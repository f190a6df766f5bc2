"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Shared fixtures build the working grid, an astheno-Kahler metric, a
Gauduchon reference, and solved manufactured problems once per session.
"""

import math
import time

import numpy as np
import pytest

from torma import diagnostics as dg
from torma import equations as eq
from torma import geometry as geo
from torma import grid as gr
from torma import hermitian as ha
from torma import pipelines as pl
from torma import solver as sv
from torma import testfields as tf
from torma.errors import CohomologyError
from torma.manufacture import manufacture_problem

from . import oracle_forms as of
from .conftest import random_hermitian, random_positive


def report(num, text):
    print(f"\n[criterion {num:02d}] PASS: {text}")


@pytest.fixture(scope="module")
def g32():
    return gr.TorusGrid.reduced(3, 32, active_coords=(0, 2))


@pytest.fixture(scope="module")
def astheno_omega(g32):
    rng = np.random.default_rng(101)
    gammas = [0.04 * tf.random_band_limited_real(g32, rng, max_mode=1) for _ in range(3)]
    return tf.pluriclosed_metric(g32, gammas)


@pytest.fixture(scope="module")
def gauduchon_omega0(g32):
    rng = np.random.default_rng(202)
    raw = tf.random_hermitian_metric(g32, rng, amplitude=0.15, max_mode=1)
    sigma = sv.gauduchon_factor(g32, raw, tol=1e-11)
    return np.exp(sigma.real)[..., None, None] * raw


@pytest.fixture(scope="module")
def solved(g32):
    """Manufactured trig-u problems solved at t = 1, per variant."""
    out = {}
    for variant, seed in ((eq.Variant.PSI, 51), (eq.Variant.PHI, 52)):
        rng = np.random.default_rng(seed)
        prob = manufacture_problem(g32, variant, rng, conformal_amplitude=0.3)
        out[variant] = (prob, sv.continuity_solve(prob.spec))
    return out


class TestCriterion01PointwiseAlgebra:
    def test_roundtrip_and_star_wedge_oracle(self, rng):
        start = time.time()
        for n in (2, 3, 4):
            g = random_positive(rng, n, shape=(100,), spread=0.6)
            a = random_positive(rng, n, shape=(100,), spread=0.6)
            back = ha.nm1_root(g, ha.star_power(g, a))
            rel = np.max(np.abs(back - a)) / np.max(np.abs(a))
            assert rel < 1e-12, f"roundtrip n={n}: {rel:.2e}"
        worst = 0.0
        for n in (3, 4):
            for _ in range(10):
                g = random_positive(rng, n, spread=0.6)
                alpha = random_hermitian(rng, n)
                psi = of.one_one(alpha).wedge(of.wedge_power(of.one_one(g), n - 2))
                want = of.star_nm1(g, psi) / math.factorial(n - 2)
                worst = max(worst, float(np.max(np.abs(ha.star_wedge(g, alpha) - want))))
        assert worst < 1e-12, f"star_wedge vs oracle: {worst:.2e}"
        elapsed = time.time() - start
        assert elapsed < 10.0
        report(1, f"roundtrip < 1e-12 (n=2,3,4 x100), star_wedge vs oracle "
                  f"{worst:.1e}, {elapsed:.1f}s")


class TestCriterion02FieldIdentities:
    def test_trace_and_reconstruction(self, g32):
        start = time.time()
        worst_trace, worst_rec = 0.0, 0.0
        rng = np.random.default_rng(42)
        for variant in (eq.Variant.PSI, eq.Variant.PHI):
            for _ in range(20):
                omega = tf.random_hermitian_metric(g32, rng, amplitude=0.15)
                omega0 = tf.random_hermitian_metric(g32, rng, amplitude=0.15)
                spec = eq.ProblemSpec(
                    grid=g32, variant=variant, omega0=omega0, omega=omega,
                    F=np.zeros(g32.sizes),
                )
                u = tf.random_band_limited_real(g32, rng, amplitude=0.05)
                worst_trace = max(worst_trace, eq.trace_identity_residual(spec, u))
                worst_rec = max(worst_rec, eq.reconstruction_identity_residual(spec, u))
        assert worst_trace < 1e-10
        assert worst_rec < 1e-10
        elapsed = time.time() - start
        assert elapsed < 30.0
        report(2, f"trace {worst_trace:.1e}, reconstruction {worst_rec:.1e} over "
                  f"20 random triples per variant, {elapsed:.1f}s")


class TestCriterion03Linearization:
    def test_finite_difference_match(self, g32):
        start = time.time()
        rng = np.random.default_rng(43)
        worst = 0.0
        for variant in (eq.Variant.PSI, eq.Variant.PHI):
            omega = tf.random_hermitian_metric(g32, rng, amplitude=0.15)
            omega0 = tf.random_hermitian_metric(g32, rng, amplitude=0.15)
            spec = eq.ProblemSpec(
                grid=g32, variant=variant, omega0=omega0, omega=omega,
                F=np.zeros(g32.sizes),
            )
            u = tf.random_band_limited_real(g32, rng, amplitude=0.005)
            lin = eq.Linearization(spec, eq.SolveState(u=u, b=0.0))
            h = 1e-5
            for _ in range(3):
                v = tf.random_band_limited_real(g32, rng)
                rp = eq.ma_residual(spec, eq.SolveState(u=u + h * v, b=0.0))
                rm = eq.ma_residual(spec, eq.SolveState(u=u - h * v, b=0.0))
                fd = ((rp - rm) / (2 * h)).real
                rel = gr.sup_norm(lin.apply(v) - fd) / gr.sup_norm(fd)
                worst = max(worst, rel)
        assert worst < 1e-6
        elapsed = time.time() - start
        assert elapsed < 30.0
        report(3, f"linearization vs central differences, rel {worst:.1e} "
                  f"(h=1e-5, both variants), {elapsed:.1f}s")


class TestCriterion04ManufacturedRecovery:
    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_recovery_and_spectral_convergence(self, g32, solved, variant):
        start = time.time()
        prob, rep = solved[variant]
        err_u = gr.sup_norm(rep.state.u - prob.u_star) / gr.sup_norm(prob.u_star)
        err_b = abs(rep.state.b - prob.b_star)
        assert rep.converged
        assert err_u < 1e-6
        assert err_b < 1e-8

        # convergence study: warped u* carries genuine spectral truncation
        errors = {}
        for size in (16, 32):
            rng = np.random.default_rng(60 + (variant is eq.Variant.PHI))
            grid = gr.TorusGrid.reduced(3, size, active_coords=(0, 2))
            wprob = manufacture_problem(
                grid, variant, rng, u_family="warped", conformal_amplitude=0.3
            )
            wrep = sv.continuity_solve(wprob.spec)
            errors[size] = gr.sup_norm(wrep.state.u - wprob.u_star) / gr.sup_norm(
                wprob.u_star
            )
        assert errors[32] < 1e-6
        assert errors[16] >= 100.0 * errors[32]
        elapsed = time.time() - start
        assert elapsed < 300.0
        report(4, f"{variant.value}: recovery {err_u:.1e} (b {err_b:.1e}); "
                  f"doubling 16->32 error {errors[16]:.1e} -> {errors[32]:.1e} "
                  f"({errors[16] / errors[32]:.0f}x), {elapsed:.0f}s")


class TestCriterion05Uniqueness:
    def test_random_warm_starts_agree(self, g32):
        start = time.time()
        rng = np.random.default_rng(44)
        prob = manufacture_problem(g32, eq.Variant.PSI, rng, conformal_amplitude=0.3)
        states = []
        for seed in (1, 2):
            r = np.random.default_rng(seed)
            u0 = tf.random_band_limited_real(g32, r, amplitude=0.01)
            states.append(sv.continuity_solve(prob.spec, u0=u0).state)
        du = gr.sup_norm(states[0].u - states[1].u)
        db = abs(states[0].b - states[1].b)
        assert du < 1e-8
        assert db < 1e-8
        elapsed = time.time() - start
        assert elapsed < 600.0
        report(5, f"two random warm starts agree: |du| {du:.1e}, |db| {db:.1e}, "
                  f"{elapsed:.0f}s")


class TestCriterion06GauduchonPreservation:
    def test_calabi_yau_preserves_gauduchon(self, g32, astheno_omega, gauduchon_omega0):
        d_omega = geo.metric_defects(g32, astheno_omega)
        d_omega0 = geo.metric_defects(g32, gauduchon_omega0)
        assert d_omega.astheno < 1e-8
        assert d_omega0.gauduchon < 1e-8
        rng = np.random.default_rng(45)
        f_prime = 0.1 * tf.random_band_limited_real(g32, rng, max_mode=1).real
        spec = eq.ProblemSpec(
            grid=g32, variant=eq.Variant.PSI, omega0=gauduchon_omega0,
            omega=astheno_omega, F=np.zeros(g32.sizes),
        )
        result = pl.calabi_yau_gauduchon(spec, f_prime)
        assert result.gauduchon_defect < 1e-7
        assert result.volume_identity_sup < 1e-8
        report(6, f"solved root metric: Gauduchon defect {result.gauduchon_defect:.1e}, "
                  f"volume identity {result.volume_identity_sup:.1e} "
                  f"(inputs {d_omega.astheno:.1e}/{d_omega0.gauduchon:.1e})")


class TestCriterion07PrescribedRicci:
    def test_pipeline_and_obstruction(self, g32, astheno_omega, gauduchon_omega0):
        rng = np.random.default_rng(46)
        phi = 0.2 * tf.random_band_limited_real(g32, rng, max_mode=1)
        phi -= phi.mean()
        psi = ha.hermitize(
            geo.chern_ricci(g32, astheno_omega) - gr.hessian_complex(g32, phi)
        )
        spec = eq.ProblemSpec(
            grid=g32, variant=eq.Variant.PSI, omega0=gauduchon_omega0,
            omega=astheno_omega, F=np.zeros(g32.sizes),
        )
        result = pl.prescribed_ricci(spec, psi)
        defect = result.diagnostics["ricci_defect"]
        assert defect < 1e-6
        with pytest.raises(CohomologyError):
            pl.prescribed_ricci(spec, psi + 0.03 * np.eye(3))
        report(7, f"Ricci defect {defect:.1e}; obstructed class cleanly rejected")


class TestCriterion08AdjointKernel:
    def test_flat_and_perturbed_kernel(self, g32, solved):
        flat = np.broadcast_to(np.eye(3, dtype=complex), g32.sizes + (3, 3)).copy()
        flat_spec = eq.ProblemSpec(
            grid=g32, variant=eq.Variant.PSI, omega0=flat, omega=flat,
            F=np.zeros(g32.sizes),
        )
        state0 = eq.SolveState(u=np.zeros(g32.sizes, dtype=complex), b=0.0)
        res0 = sv.adjoint_kernel(flat_spec, state0)
        vol = np.sum(gr.volume_weights(g32, flat))
        assert gr.sup_norm(res0.f - 1.0 / vol) < 1e-9

        prob, rep = solved[eq.Variant.PSI]
        res = sv.adjoint_kernel(prob.spec, rep.state)
        assert res.f.min() > 0.0
        assert res.residual_sup < 1e-8
        lin = eq.Linearization(prob.spec, rep.state)
        w = gr.volume_weights(g32, lin.gt)
        rng = np.random.default_rng(47)
        worst = 0.0
        for _ in range(10):
            zeta = tf.random_band_limited_real(g32, rng)
            worst = max(worst, abs(np.sum(res.f * lin.apply(zeta) * w)))
        assert worst < 1e-8
        report(8, f"flat kernel constant; perturbed kernel positive, "
                  f"|L*f| {res.residual_sup:.1e}, orthogonality {worst:.1e}")


class TestCriterion09EstimateMonitors:
    # tripwire baselines recorded from the reference run of this suite
    # (values rounded up; the assertions allow 10x headroom)
    BASELINE_C2_RATIO = 6.0
    BASELINE_CHERRIER = 0.12

    def test_monitors_on_passing_solves(self, solved):
        for variant, (prob, rep) in solved.items():
            bb = dg.b_bound_check(prob.spec, rep.state)
            assert bb["satisfied"], f"{variant}: |b| exceeds sup|F| + C_meas"
            c2 = dg.c2_monitor(prob.spec, rep.state)
            assert c2["eta_band_ok"]
            assert c2["ratio"] < 10.0 * self.BASELINE_C2_RATIO
            rows = dg.cherrier_table(prob.spec, rep.state, p_list=(4, 8, 16, 32))
            for row in rows:
                assert not row["saturated"]
                assert row["ratio_over_p"] < 10.0 * self.BASELINE_CHERRIER
        report(9, "b-bound, eta band, and Cherrier ratios within tripwires "
                  "on both solved variants")


class TestCriterion10BetaClosedness:
    def test_closedness_with_gauduchon_metric(self, g32, gauduchon_omega0):
        rng = np.random.default_rng(48)
        spec = eq.ProblemSpec(
            grid=g32, variant=eq.Variant.PHI, omega0=gauduchon_omega0,
            omega=gauduchon_omega0, F=np.zeros(g32.sizes),
        )
        worst = 0.0
        for _ in range(5):
            u = tf.random_band_limited_real(g32, rng, amplitude=0.5)
            worst = max(worst, gr.sup_norm(eq.beta_closedness_scalar(spec, u)))
        assert worst < 1e-8
        report(10, f"ddbar(beta_u) defect {worst:.1e} for random u over a "
                   f"Gauduchon metric")
