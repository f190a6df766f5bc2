"""Command-line interface.

Subcommands: solve, validate-metric, manufacture, ricci, diagnose,
gauduchon-factor. Exit codes: 0 success, 2 validation failure (bad config,
bad field file, cohomology obstruction, inadmissible input), 3 solver failure.
Reports are JSON with sorted keys; identical configs and seeds produce
bit-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from . import equations as eq
from . import geometry as geo
from . import grid as gr
from . import hermitian as ha
from . import hmf1
from . import pipelines as pl
from . import solver as sv
from .config import load_config
from .errors import SolverError, TormaError, ValidationError
from .manufacture import manufacture_problem


def _write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _apply_threads(threads):
    gr.set_fft_workers(threads if threads and threads > 0 else -1)


def _solve_payload(report):
    payload = {
        "converged": report.converged,
        "b": float(report.state.b),
        "residual_sup": report.residual_sup,
        "residual_sup_full": report.residual_sup_full,
        "positivity_margin": report.positivity_margin,
        "t_history": report.t_history,
        "b_history": [float(b) for b in report.b_history],
        "newton_residuals_final_t": report.residual_history,
        "linear_iterations": report.linear_iterations(),
        "message": report.message,
    }
    payload.update(report.diagnostics)
    return payload


def _finish_solve_outputs(run, report):
    out = run.outputs
    if "records" in out:
        path = run.base_dir / out["records"]
        path.parent.mkdir(parents=True, exist_ok=True)
        report.write_records(path)
    if "u" in out:
        path = run.base_dir / out["u"]
        path.parent.mkdir(parents=True, exist_ok=True)
        hmf1.write_field(path, run.spec.grid, report.u_sup_normalized())
    payload = _solve_payload(report)
    if "report" in out:
        _write_json(run.base_dir / out["report"], payload)
    return payload


def cmd_solve(args):
    run = load_config(args.config)
    _apply_threads(run.threads)
    try:
        report = sv.continuity_solve(run.spec, run.solver)
    except SolverError as exc:
        payload = _finish_solve_outputs(run, exc.report)
        _emit(payload)
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    if run.dealias_check:
        report.diagnostics["residual_sup_dealiased"] = dg.dealiased_residual(
            run.spec, report.state
        )
    payload = _finish_solve_outputs(run, report)
    _emit(payload)
    return 0


def cmd_validate_metric(args):
    grid, values = hmf1.read_field(args.field)
    if values.ndim != len(grid.sizes) + 2:
        raise ValidationError(f"{args.field} holds a scalar field, not a metric")
    metric = geo.MetricFields(grid, values)
    _, torsion = geo.christoffel(metric)
    payload = {
        "n": grid.n,
        "sizes": list(grid.sizes),
        "defects": metric.defects().as_dict(),
        "torsion_sup": float(np.max(np.abs(torsion))),
        "min_eigenvalue": ha.min_eigenvalue(values),
    }
    if args.out:
        _write_json(args.out, payload)
    _emit(payload)
    return 0


def cmd_manufacture(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    active = tuple(int(a) for a in args.active.split(",")) if args.active else None
    grid = gr.TorusGrid.reduced(args.n, args.size, active_coords=active)
    rng = np.random.default_rng(args.seed)
    prob = manufacture_problem(
        grid, eq.Variant(args.variant), rng, amplitude=args.amplitude,
        conformal_amplitude=args.conformal_amplitude, u_family=args.u_family,
    )
    hmf1.write_field(out_dir / "omega.hmf1", grid, prob.spec.omega)
    hmf1.write_field(out_dir / "omega0.hmf1", grid, prob.spec.omega0)
    hmf1.write_field(out_dir / "F.hmf1", grid, prob.spec.F.astype(complex))
    hmf1.write_field(out_dir / "u_star.hmf1", grid, prob.u_star)
    meta = {
        "b_star": prob.b_star,
        "seed": args.seed,
        "amplitude": args.amplitude,
        "variant": args.variant,
        "u_family": args.u_family,
        "sizes": list(grid.sizes),
        "n": grid.n,
    }
    _write_json(out_dir / "meta.json", meta)
    cfg_text = "\n".join([
        "[problem]",
        f"n = {grid.n}",
        f"sizes = {','.join(str(s) for s in grid.sizes)}",
        f"variant = {args.variant}",
        "rhs_volume = omega_n",
        "omega = omega.hmf1",
        "omega0 = omega0.hmf1",
        "F = F.hmf1",
        "",
        "[outputs]",
        "report = report.json",
        "records = records.jsonl",
        "u = u.hmf1",
        "",
        "[run]",
        f"seed = {args.seed}",
        "",
    ])
    (out_dir / "solve.cfg").write_text(cfg_text, encoding="utf-8")
    _emit(meta)
    return 0


def cmd_ricci(args):
    run = load_config(args.config)
    _apply_threads(run.threads)
    psi_grid, psi = hmf1.read_field(args.psi)
    if psi_grid.sizes != run.spec.grid.sizes:
        raise ValidationError("psi grid does not match the configured grid")
    result = pl.prescribed_ricci(run.spec, psi, run.solver)
    if args.out_metric:
        hmf1.write_field(args.out_metric, run.spec.grid, result.metric)
    payload = {
        "b_prime": result.b_prime,
        "ricci_defect": result.diagnostics["ricci_defect"],
        "gauduchon_defect": result.gauduchon_defect,
        "volume_identity_sup": result.volume_identity_sup,
        "solve": _solve_payload(result.report),
    }
    if args.report:
        _write_json(args.report, payload)
    _emit(payload)
    return 0


def cmd_diagnose(args):
    run = load_config(args.config)
    _apply_threads(run.threads)
    u_grid, u = hmf1.read_field(args.u)
    if u_grid.sizes != run.spec.grid.sizes:
        raise ValidationError("state grid does not match the configured grid")
    state = eq.SolveState(u=u - np.mean(u), b=args.b, t=args.t)
    est = dg.estimate_report(run.spec, state)
    payload = est.as_dict()
    if args.out:
        _write_json(args.out, payload)
    if args.csv:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["p", "lhs", "rhs", "ratio_over_p", "saturated"]
            )
            writer.writeheader()
            for row in est.cherrier:
                writer.writerow({k: row.get(k, "") for k in writer.fieldnames})
    _emit(payload)
    return 0


def cmd_gauduchon_factor(args):
    grid, omega = hmf1.read_field(args.field)
    before = geo.MetricFields(grid, omega).gauduchon_defect()
    sigma = sv.gauduchon_factor(grid, omega, tol=args.tol)
    conformal = np.exp(sigma.real)[..., None, None] * omega
    after = geo.MetricFields(grid, conformal).gauduchon_defect()
    if args.out:
        hmf1.write_field(args.out, grid, sigma)
    _emit({"defect_before": before, "defect_after": after,
           "sigma_sup": gr.sup_norm(sigma)})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torma",
        description=(
            "Monge-Ampere equations for (n-1)-plurisubharmonic potentials on "
            "flat complex tori: spectral Newton-continuity solvers and "
            "verification pipelines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a continuity solve from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate-metric", help="closedness defects and torsion of a metric field")
    p.add_argument("--field", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate_metric)

    p = sub.add_parser("manufacture", help="generate a (u*, F*, b*) problem directory")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--active", default="0,2", help="active real coordinates, e.g. 0,2,4")
    p.add_argument("--variant", choices=["psi", "phi"], default="psi")
    p.add_argument("--amplitude", type=float, default=0.05)
    p.add_argument("--conformal-amplitude", type=float, default=0.3)
    p.add_argument("--u-family", choices=["trig", "warped"], default="trig")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_manufacture)

    p = sub.add_parser("ricci", help="prescribed Chern-Ricci pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--psi", required=True, help="HMF1 file with the target (1,1) form")
    p.add_argument("--out-metric", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_ricci)

    p = sub.add_parser("diagnose", help="estimate monitors on a saved state")
    p.add_argument("--config", required=True)
    p.add_argument("--u", required=True, help="HMF1 file with the potential")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None, help="write the Cherrier table as CSV")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("gauduchon-factor", help="conformal factor to a Gauduchon metric")
    p.add_argument("--field", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_gauduchon_factor)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except TormaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
