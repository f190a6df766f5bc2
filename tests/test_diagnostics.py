"""Estimate monitors: b bound, C2 ratio, Cherrier table, commutation identities."""

import numpy as np
import pytest

from torma import diagnostics as dg
from torma import equations as eq
from torma import grid as gr
from torma import hermitian as ha
from torma import solver as sv
from torma import testfields as tf
from torma.manufacture import manufacture_problem

from . import oracle_forms as of


@pytest.fixture
def g3():
    return gr.TorusGrid.reduced(3, 16, active_coords=(0, 2))


def flat_field(grid):
    return np.broadcast_to(np.eye(grid.n, dtype=complex), grid.sizes + (grid.n, grid.n)).copy()


def flat_spec(grid):
    return eq.ProblemSpec(
        grid=grid, variant=eq.Variant.PSI, omega0=flat_field(grid),
        omega=flat_field(grid), F=np.zeros(grid.sizes),
    )


class TestBBound:
    def test_flat_trivial(self, g3):
        spec = flat_spec(g3)
        state = eq.SolveState(u=np.zeros(g3.sizes, dtype=complex), b=0.0)
        rec = dg.b_bound_check(spec, state)
        assert rec["abs_b"] == 0.0
        assert rec["satisfied"]

    def test_manufactured_bound_holds(self, g3, rng):
        prob = manufacture_problem(g3, eq.Variant.PSI, rng, conformal_amplitude=0.2)
        report = sv.continuity_solve(prob.spec)
        rec = dg.b_bound_check(prob.spec, report.state)
        assert rec["satisfied"]
        assert rec["slack"] >= 0.0

    def test_bound_scales_with_datum(self, g3, rng):
        prob = manufacture_problem(g3, eq.Variant.PSI, rng, conformal_amplitude=0.2)
        for scale in (1.0, 2.0):
            spec = eq.ProblemSpec(
                grid=g3, variant=eq.Variant.PSI, omega0=prob.spec.omega0,
                omega=prob.spec.omega, F=scale * prob.spec.F,
            )
            report = sv.continuity_solve(spec)
            rec = dg.b_bound_check(spec, report.state)
            assert rec["satisfied"]


class TestC2Monitor:
    def test_zero_potential(self, g3, rng):
        prob = manufacture_problem(g3, eq.Variant.PSI, rng, conformal_amplitude=0.2)
        state = eq.SolveState(u=np.zeros(g3.sizes, dtype=complex), b=0.0)
        rec = dg.c2_monitor(prob.spec, state)
        trace_h = np.einsum(
            "...ij,...ji->...", prob.spec.metric.gi, prob.spec.omega_h
        ).real
        assert rec["ratio"] == pytest.approx(trace_h.max())
        assert rec["eta_band_ok"]

    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_solved_state(self, g3, rng, variant):
        prob = manufacture_problem(g3, variant, rng, conformal_amplitude=0.2)
        report = sv.continuity_solve(prob.spec)
        rec = dg.c2_monitor(prob.spec, report.state)
        assert rec["eta_band_ok"]
        assert rec["ratio"] > 0


class TestCherrier:
    def test_zero_potential_lhs_zero(self, g3):
        spec = flat_spec(g3)
        state = eq.SolveState(u=np.zeros(g3.sizes, dtype=complex), b=0.0)
        for row in dg.cherrier_table(spec, state):
            assert not row["saturated"]
            assert row["lhs"] < 1e-12

    def test_ratios_bounded_and_grid_stable(self, rng):
        results = {}
        for size in (16, 32):
            r = np.random.default_rng(77)
            grid = gr.TorusGrid.reduced(3, size, active_coords=(0, 2))
            prob = manufacture_problem(grid, eq.Variant.PSI, r, conformal_amplitude=0.2)
            report = sv.continuity_solve(prob.spec)
            results[size] = dg.cherrier_table(prob.spec, report.state)
        for row16, row32 in zip(results[16], results[32]):
            assert not row16["saturated"]
            # spectral accuracy of the integrals across the doubling
            assert abs(row16["lhs"] - row32["lhs"]) <= 1e-6 * max(1.0, abs(row32["lhs"]))
            assert abs(row16["rhs"] - row32["rhs"]) <= 1e-6 * max(1.0, abs(row32["rhs"]))

    def test_rejects_huge_p(self, g3):
        spec = flat_spec(g3)
        state = eq.SolveState(u=np.zeros(g3.sizes, dtype=complex), b=0.0)
        with pytest.raises(ValueError):
            dg.cherrier_table(spec, state, p_list=(128,))


class TestCommutation:
    def test_flat_metric(self, g3, rng):
        u = tf.random_band_limited_real(g3, rng)
        rec = of.commutation_check(g3, flat_field(g3), u)
        assert rec["first_identity_sup"] < 1e-10
        assert rec["second_identity_sup"] < 1e-10

    def test_constant_potential(self, g3, rng):
        omega = tf.random_hermitian_metric(g3, rng, amplitude=0.15)
        u = np.full(g3.sizes, 0.3, dtype=complex)
        rec = of.commutation_check(g3, omega, u)
        assert rec["first_identity_sup"] < 1e-12
        assert rec["second_identity_sup"] < 1e-12

    def test_conformal_metric(self, rng):
        grid = gr.TorusGrid.reduced(3, 32, active_coords=(0, 2))
        sigma = tf.TrigScalar(3).add(0.3, (1, 0, 0, 0, 0, 0)).add(0.2j, (0, 0, 1, 0, 0, 0))
        metric = np.exp(sigma.sample(grid).real)[..., None, None] * np.eye(3, dtype=complex)
        u = tf.random_band_limited_real(grid, rng)
        rec = of.commutation_check(grid, metric, u)
        assert rec["first_identity_sup"] < 1e-7
        assert rec["second_identity_sup"] < 1e-7


class TestEstimateReport:
    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_bundle_is_serializable(self, g3, rng, variant):
        import json

        prob = manufacture_problem(g3, variant, rng, conformal_amplitude=0.2)
        report = sv.continuity_solve(prob.spec)
        est = dg.estimate_report(prob.spec, report.state)
        payload = json.dumps(est.as_dict(), sort_keys=True)
        assert "b_bound" in payload
        assert est.b_bound["satisfied"]
        assert est.eta_mismatch < 1e-10
        if variant is eq.Variant.PHI:
            assert est.phi_closedness is not None


class TestDealiasedResidual:
    def test_matches_inline_refined_spec(self, g3, rng):
        # the refined problem built field by field gives the same residual bit for bit
        prob = manufacture_problem(g3, eq.Variant.PHI, rng, conformal_amplitude=0.25)
        spec, state = prob.spec, prob.state()
        fine = g3.refined(2)
        spec_fine = eq.ProblemSpec(
            grid=fine, variant=spec.variant,
            omega0=gr.resample_hermitian(g3, spec.omega0, fine),
            omega=gr.resample_hermitian(g3, spec.omega, fine),
            F=gr.resample(g3, spec.F, fine),
            rhs_volume=spec.rhs_volume,
        )
        state_fine = eq.SolveState(u=gr.resample(g3, state.u, fine), b=state.b, t=state.t)
        log_det = ha.positive_log_det(eq.tilde_metric(spec_fine, state_fine.u))
        expected = gr.sup_norm(eq.ma_residual(spec_fine, state_fine, log_det=log_det))
        assert dg.dealiased_residual(spec, state) == expected


    def test_flat_zero_and_inadmissible_inf(self, g3):
        spec = flat_spec(g3)
        assert dg.dealiased_residual(spec, eq.SolveState(u=np.zeros(g3.sizes), b=0.0)) < 1e-14
        # u = A cos(2 pi x_1): gt = I + (lap u I - Hess u)/2 has the eigenvalue
        # 1 - (pi^2 A/2) cos, negative for A = 0.3 where the cosine peaks; no
        # residual exists there, so the sup is inf
        u = 0.3 * np.cos(2 * np.pi * g3.coordinate(0)).real
        assert dg.dealiased_residual(spec, eq.SolveState(u=u, b=0.0)) == np.inf
