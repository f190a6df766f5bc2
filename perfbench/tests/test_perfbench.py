"""Checks of the benchmark itself, on grids small enough to run in seconds.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wk  # noqa: E402
from torma import equations as eq  # noqa: E402
from torma import grid as gr  # noqa: E402
from torma import hermitian as ha  # noqa: E402
from torma import solver as sv  # noqa: E402
from torma.errors import SolverError  # noqa: E402

LOOSE = {"residual_full": 1.0, "err_u": 1.0, "err_b": 1.0}
SMALL_3D = gr.TorusGrid.reduced(3, 8, active_coords=(0, 2, 4))
SMALL_2D = gr.TorusGrid.reduced(3, 32, active_coords=(0, 2))


def exact_counts(metrics):
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k in spans.COUNTS}


def traced_twice(wl, inputs):
    plain = wl.run(inputs, wl.setup(inputs))
    runs = []
    for _ in range(2):
        spec = wl.setup(inputs)
        with spans.Tracer() as tracer:
            out = wl.run(inputs, spec)
        runs.append((tracer, out))
    return plain, runs


@pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
def test_traced_solve_bit_identical_and_counts_repeat(variant):
    wl = wk.ManufacturedSolve(SMALL_3D, variant, LOOSE)
    plain, runs = traced_twice(wl, wl.generate(5))
    assert plain.correct and plain.fingerprint
    (t1, a), (t2, b) = runs
    assert a.fingerprint == plain.fingerprint == b.fingerprint
    m1, m2 = t1.metrics(), t2.metrics()
    assert exact_counts(m1) == exact_counts(m2)
    assert m1["solver.newton_steps"] > 0
    assert m1["solver.gmres.iters"] >= m1["solver.gmres.calls"] > 0
    assert m1["grid.fft.calls"] > 0
    assert m1["solver.damping_trials"] >= m1["solver.newton_steps"]
    assert (m1["hermitian.b2.calls"] > 0) == (variant is eq.Variant.PHI)
    assert t1.self_time_gap() < 1e-9
    assert set(m1) == set(spans.metric_names())


def test_pipeline_traced_bit_identical_and_counts_repeat():
    wl = wk.RicciPipeline(SMALL_2D)
    plain, runs = traced_twice(wl, wl.generate(2))
    (t1, a), (t2, b) = runs
    assert plain.attempted == 3
    assert a.fingerprint == plain.fingerprint == b.fingerprint
    m1 = t1.metrics()
    assert exact_counts(m1) == exact_counts(t2.metrics())
    for name in ("solver.gauduchon_factor", "pipelines.prescribed_ricci",
                 "pipelines.potential_from_form", "geometry.metric_defects",
                 "solver.adjoint_kernel", "equations.Linearization.apply_transpose"):
        assert m1[f"{name}.calls"] > 0, name
    assert m1["solver.adjoint_kernel.failed"] == plain.failed


def test_same_seed_same_inputs():
    wl = wk.ManufacturedSolve(SMALL_3D, eq.Variant.PHI, LOOSE)
    a, b = wl.generate(9), wl.generate(9)
    assert np.array_equal(a.spec.omega, b.spec.omega) and np.array_equal(a.spec.F, b.spec.F)
    for other in (wl.generate(10), wl.generate(9, 1)):
        assert not np.array_equal(a.spec.omega, other.spec.omega)


def test_tracer_restores_patched_functions():
    before = (gr.hessian_complex, ha.b2, sv.newton_step, eq.Linearization.__dict__["apply"])
    with spans.Tracer():
        assert gr.hessian_complex is not before[0]
    after = (gr.hessian_complex, ha.b2, sv.newton_step, eq.Linearization.__dict__["apply"])
    assert after == before


def test_gate_counts_broken_ceiling_as_failed():
    tight = {"residual_full": 1e-30, "err_u": 1.0, "err_b": 1.0}
    wl = wk.ManufacturedSolve(SMALL_3D, eq.Variant.PSI, tight)
    prob = wl.generate(5)
    out = wl.run(prob, wl.setup(prob))
    assert (out.correct, out.failed) == (False, 1)


def test_untraced_measure_reports_end_to_end_metrics():
    wl = wk.ManufacturedSolve(SMALL_3D, eq.Variant.PSI, LOOSE)
    metrics, outcomes, ok, _ = run.measure(wl, 5, 0.01)
    assert ok and [o.correct for o in outcomes] == [True]
    assert set(metrics) == {m["name"] for m in load_benchmark()["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())


def load_benchmark():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_runs_report():
    spec = load_benchmark()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.per_layer_names()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(wk.workloads())


def test_run_fails_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phi_n3_16cubed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_attempt_counts_raised_errors_as_failed():
    def raises(exc):
        raise exc

    known, unknown = wk.Outcome(), wk.Outcome()
    assert wk.attempt(known, "op", raises, SolverError("no convergence")) is None
    assert wk.attempt(unknown, "op", raises, ValueError("bug")) is None
    assert (known.attempted, known.failed, known.correct) == (1, 1, True)
    assert (unknown.attempted, unknown.failed, unknown.correct) == (1, 1, False)
