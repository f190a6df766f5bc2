"""Each metric is factored once: the Cholesky factorizations (hermitian's
_factor kernel) that a spec, a solve, the pipelines, the adjoint kernel and
the diagnostics make, counted by wrapping the kernel."""

import numpy as np
import pytest

from torma import diagnostics as dg
from torma import equations as eq
from torma import grid as gr
from torma import hermitian as ha
from torma import pipelines as pl
from torma import solver as sv
from torma.manufacture import manufacture_problem

from .conftest import ricci_input


@pytest.fixture
def factored(monkeypatch):
    """The fields factored so far; min_eigenvalue's shifted screens, which
    factor no metric, are left out."""
    seen = []
    factor = ha._factor

    def counted(a, shift=0.0):
        if np.ndim(shift) == 0 and shift == 0.0:
            seen.append(a)
        return factor(a, shift)

    monkeypatch.setattr(ha, "_factor", counted)
    return seen


@pytest.fixture(scope="module")
def g32():
    return gr.TorusGrid.reduced(3, 32, active_coords=(0, 2))


@pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
def test_spec_and_start_factor_omega_omega0_and_gt_once(g32, rng, variant, factored):
    prob = manufacture_problem(g32, variant, rng)
    factored.clear()
    spec = eq.ProblemSpec(grid=g32, variant=variant, omega0=prob.spec.omega0,
                          omega=prob.spec.omega, F=prob.spec.F)
    assert [a is m for a, m in zip(factored, (spec.omega0, spec.omega))] == [True, True]
    sv.initial_state(spec)
    assert len(factored) == 3
    coarse = spec.resampled(g32.coarsened(2))
    assert len(factored) == 5
    assert [a is m for a, m in zip(factored[3:], (coarse.omega0, coarse.omega))] == [True, True]


def test_solved_spec_holds_no_factor(g32, rng):
    prob = manufacture_problem(g32, eq.Variant.PHI, rng)
    # a generated spec, which callers often only read, holds no factor
    assert not {"metric0", "metric"} & set(vars(prob.spec))
    spec = eq.ProblemSpec(grid=g32, variant=eq.Variant.PHI, omega0=prob.spec.omega0,
                          omega=prob.spec.omega, F=prob.spec.F)
    # never solved: the two validation factors
    assert spec.metric0.factor is not None and spec.metric.factor is not None
    assert sv.continuity_solve(spec).converged
    assert "metric0" not in vars(spec) and spec.metric.factor is None
    # a later read, such as a pipeline's precondition, makes omega_0's fields again
    assert spec.metric0.gauduchon_defect() >= 0.0


def test_prescribed_ricci_factors_each_input_metric_once(factored, monkeypatch):
    # at the benchmark's 64^2 the nested solve has three grids, so omega and
    # omega_0 exist on three levels: six metrics, plus the nm1_root reference
    # once more, since the solved spec released omega's factor
    grid = gr.TorusGrid.reduced(3, 64, active_coords=(0, 2))
    omega, omega0, psi = ricci_input(grid, 1)
    gts = []
    tilde_metric = eq.tilde_metric

    def kept(spec, u):
        gts.append(tilde_metric(spec, u))
        return gts[-1]

    in_root = []
    nm1_root = ha.nm1_root

    def root(omega_ref, s):
        start = len(factored)
        out = nm1_root(omega_ref, s)
        in_root.extend(factored[start:])
        del factored[start:]
        return out

    monkeypatch.setattr(eq, "tilde_metric", kept)
    monkeypatch.setattr(ha, "nm1_root", root)
    factored.clear()
    spec = eq.ProblemSpec(grid=grid, variant=eq.Variant.PSI, omega0=omega0, omega=omega,
                          F=np.zeros(grid.sizes))
    result = pl.prescribed_ricci(spec, psi)
    assert result.diagnostics["ricci_defect"] < 1e-6
    levels = {tuple(r["sizes"]) for r in result.report.records}
    assert len(levels) == 3
    # nm1_root factors its reference omega and the last gt relative to it,
    # whose factor validates gt and gives the root
    assert len(in_root) == 2 and in_root[0] is omega
    # outside the solver's gt evaluations and nm1_root
    inputs = [a for a in factored if not any(a is g for g in gts)]
    # the root is factored once for its volume identity, Gauduchon and Ricci defects
    assert sum(a is result.metric for a in inputs) == 1
    inputs = [a for a in inputs if a is not result.metric]
    assert len(inputs) == 2 * len(levels)
    assert sum(a is omega for a in inputs) == 1 and sum(a is omega0 for a in inputs) == 1

    factored.clear()
    kernel = sv.adjoint_kernel(spec, result.report.state)
    assert kernel.f.min() > 0.0
    assert len(factored) == 1


@pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
def test_estimate_report_factors_omega_h_and_omega_once(g32, rng, variant, factored):
    prob = manufacture_problem(g32, variant, rng)
    report = sv.continuity_solve(prob.spec)
    factored.clear()
    dg.estimate_report(prob.spec, report.state)
    # log det omega_h for the b bound, omega's factor for the relative eigenvalues
    assert len(factored) == 2
    assert np.array_equal(factored[0], prob.spec.omega_h) and factored[1] is prob.spec.omega
