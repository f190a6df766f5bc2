"""The benchmark's span tracer (perfbench/spans.py) still fits torma.

The tracer patches torma's functions by name; a refactor that renames or
deletes one breaks every traced benchmark run, so check the hooks here.
"""

import sys
from pathlib import Path

import numpy as np
import scipy.fft
import scipy.sparse.linalg

from torma import equations as eq
from torma import grid as gr
from torma import solver as sv

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def _hooks():
    """(owner, attribute) of every attribute the tracer patches."""
    return ([(owner, attr) for owner, attr, _ in spans.SPANS]
            + [(sv, "continuity_solve"), (sv, "newton_step"), (sv, "adjoint_kernel"),
               (scipy.sparse.linalg, "gmres")]
            + [(scipy.fft, name) for name in spans.FFT_NAMES])


def _current(owner, attr):
    # the tracer reads class attributes from the class __dict__
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_span_resolves():
    for owner, attr in _hooks():
        assert callable(_current(owner, attr)), f"{owner.__name__}.{attr}"


def test_tracer_restores_every_hook():
    grid = gr.TorusGrid.reduced(3, 16, active_coords=(0, 2))
    flat = np.broadcast_to(np.eye(3, dtype=complex), grid.sizes + (3, 3)).copy()
    spec = eq.ProblemSpec(grid=grid, variant=eq.Variant.PSI, omega0=flat, omega=flat,
                          F=np.zeros(grid.sizes))
    state = eq.SolveState(u=np.zeros(grid.sizes), b=0.0)
    before = [_current(owner, attr) for owner, attr in _hooks()]
    with spans.Tracer() as tracer:
        patched = [_current(owner, attr) for owner, attr in _hooks()]
        sv.adjoint_kernel(spec, state)
    assert all(p is not b for p, b in zip(patched, before))
    assert all(_current(owner, attr) is b for (owner, attr), b in zip(_hooks(), before))
    metrics = tracer.metrics()
    assert metrics["solver.adjoint_kernel.calls"] == 1
    assert metrics["solver.adjoint_kernel.failed"] == 0
    assert metrics["solver.precond.calls"] > 0
    assert tracer.self_time_gap() < 1e-6
