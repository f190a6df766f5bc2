"""INI run configurations: flat key-value sections, field data in HMF1 files.

Example::

    [problem]
    n = 3
    sizes = 32,1,32,1,1,1
    variant = psi
    rhs_volume = omega_n
    omega = fields/omega.hmf1     ; optional, flat when absent
    omega0 = fields/omega0.hmf1   ; optional, flat when absent
    F = fields/F.hmf1             ; optional, zero when absent

    [solver]
    newton_tol = 1e-11
    max_newton = 40               ; Newton steps per solve
    continuity_steps = 0,0.5,1
    min_t_step = 0.00390625       ; shortest continuity step after halving
    linear_tol = 1e-10            ; optional, in (0, 0.01]

    [outputs]
    report = out/report.json
    records = out/records.jsonl
    u = out/u.hmf1

    [run]
    threads = 1                   ; FFT threads, 0 = all cores; TORMA_THREADS overrides

``linear_tol`` is the floor of the inexact-Newton forcing term: each GMRES
solve aims at min(0.01, max(linear_tol, 0.1 r)) for the step's resolved
residual sup r, so the floor binds only near convergence; ``newton_tol``
decides the accuracy. The [solver] keys are the fields of SolverConfig, each
checked by it. An unknown [solver] key, or a [solver] or [run] value that does
not parse (``dealias`` takes configparser's booleans), is a ValidationError
naming its key. Other [run] keys, such as manufacture's ``seed``, are ignored.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import equations as eq
from . import grid as gr
from . import hmf1
from .errors import ValidationError
from .solver import SolverConfig


@dataclass
class RunConfig:
    spec: eq.ProblemSpec
    solver: SolverConfig
    outputs: dict
    threads: int
    dealias_check: bool = False
    base_dir: Path = field(default_factory=Path)


def _parse_floats(text):
    return tuple(float(x) for x in text.replace(";", ",").split(",") if x.strip())


def _parse_ints(text):
    return tuple(int(x) for x in text.replace(";", ",").split(",") if x.strip())


def _parse_bool(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


# the [solver] keys: each SolverConfig field, parsed as the type of its default
_SOLVER_KEYS = {f.name: _parse_floats if isinstance(f.default, tuple) else type(f.default)
                for f in fields(SolverConfig)}


def _parse_value(name, text, parse):
    """parse(text), or a ValidationError naming the setting when text is malformed."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValidationError(f"{name}: cannot read {text!r} ({exc})") from exc


def _load_field(base, grid, path_text, what, extra_shape):
    path = base / path_text
    if not path.exists():
        raise ValidationError(f"[problem] {what}: field file {path} does not exist")
    fgrid, values = hmf1.read_field(path)
    if fgrid.sizes != grid.sizes or fgrid.n != grid.n:
        raise ValidationError(
            f"[problem] {what}: grid {fgrid.sizes} in {path} does not match "
            f"the configured grid {grid.sizes}"
        )
    want = grid.sizes + extra_shape
    if values.shape != want:
        raise ValidationError(f"[problem] {what}: payload shape {values.shape} != {want}")
    return values


def load_config(path):
    """Parse and validate a run configuration; all field files are read here."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ValidationError(f"config file {path} not found or unreadable")
    base = path.parent

    if "problem" not in parser:
        raise ValidationError("config is missing the [problem] section")
    prob = parser["problem"]
    try:
        n = prob.getint("n")
        sizes = _parse_ints(prob.get("sizes"))
        grid = gr.TorusGrid(n, sizes)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"[problem] bad n/sizes: {exc}") from exc

    variant_text = prob.get("variant", "psi").strip().lower()
    try:
        variant = eq.Variant(variant_text)
    except ValueError as exc:
        raise ValidationError(f"[problem] variant must be psi or phi, got {variant_text!r}") from exc
    volume_text = prob.get("rhs_volume", "omega_n").strip().lower()
    try:
        rhs_volume = eq.RhsVolume(volume_text)
    except ValueError as exc:
        raise ValidationError(
            f"[problem] rhs_volume must be omega_n or omega_h_n, got {volume_text!r}"
        ) from exc

    flat = np.broadcast_to(np.eye(n, dtype=complex), grid.sizes + (n, n)).copy()
    omega = flat
    omega0 = flat.copy()
    datum = np.zeros(grid.sizes)
    if prob.get("omega"):
        omega = _load_field(base, grid, prob.get("omega"), "omega", (n, n))
    if prob.get("omega0"):
        omega0 = _load_field(base, grid, prob.get("omega0"), "omega0", (n, n))
    if prob.get("F"):
        datum = _load_field(base, grid, prob.get("F"), "F", ()).real
    spec = eq.ProblemSpec(
        grid=grid, variant=variant, omega0=omega0, omega=omega, F=datum,
        rhs_volume=rhs_volume,
    )

    sol = parser["solver"] if "solver" in parser else {}
    unknown = ", ".join(sorted(set(sol) - set(_SOLVER_KEYS)))
    if unknown:
        raise ValidationError(f"[solver] unknown key {unknown}; known: {', '.join(_SOLVER_KEYS)}")
    solver = SolverConfig(**{key: _parse_value(f"[solver] {key}", text, _SOLVER_KEYS[key])
                             for key, text in sol.items()})

    outputs = dict(parser["outputs"]) if "outputs" in parser else {}
    run = parser["run"] if "run" in parser else {}
    if "TORMA_THREADS" in os.environ:
        threads = _parse_value("TORMA_THREADS", os.environ["TORMA_THREADS"], int)
    else:
        threads = _parse_value("[run] threads", run.get("threads", "1"), int)
    dealias = _parse_value("[run] dealias", run.get("dealias", "false"), _parse_bool)
    return RunConfig(
        spec=spec, solver=solver, outputs=outputs, threads=threads,
        dealias_check=dealias, base_dir=base,
    )
