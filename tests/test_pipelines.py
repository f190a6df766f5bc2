"""Geometric pipelines: Calabi-Yau for Gauduchon metrics, prescribed Ricci, PHI route."""

import numpy as np
import pytest

from torma import equations as eq
from torma import geometry as geo
from torma import grid as gr
from torma import hermitian as ha
from torma import pipelines as pl
from torma import solver as sv
from torma import testfields as tf
from torma.errors import CohomologyError, ValidationError

from . import oracle_forms as of
from .conftest import ricci_input


@pytest.fixture(scope="module")
def g3():
    # pipeline validations chase 1e-8 defects of exp-conformal metrics, which
    # needs 32 nodes per active axis
    return gr.TorusGrid.reduced(3, 32, active_coords=(0, 2))


def flat_field(grid):
    return np.broadcast_to(np.eye(grid.n, dtype=complex), grid.sizes + (grid.n, grid.n)).copy()


@pytest.fixture(scope="module")
def astheno_omega(g3):
    rng = np.random.default_rng(101)
    gammas = [0.04 * tf.random_band_limited_real(g3, rng, max_mode=1) for _ in range(3)]
    omega = tf.pluriclosed_metric(g3, gammas)
    d = geo.metric_defects(g3, omega)
    assert d.astheno < 1e-9 and d.kahler > 1e-3
    return omega


@pytest.fixture(scope="module")
def gauduchon_omega0(g3):
    rng = np.random.default_rng(202)
    raw = tf.random_hermitian_metric(g3, rng, amplitude=0.15, max_mode=1)
    sigma = sv.gauduchon_factor(g3, raw, tol=1e-11)
    omega0 = np.exp(sigma.real)[..., None, None] * raw
    assert geo.metric_defects(g3, omega0).gauduchon < 1e-9
    return omega0


def cy_spec(g3, omega0, omega):
    return eq.ProblemSpec(
        grid=g3, variant=eq.Variant.PSI, omega0=omega0, omega=omega,
        F=np.zeros(g3.sizes),
    )


class TestPotentialSolve:
    def test_forward_roundtrip(self, g3, rng):
        phi = tf.random_band_limited_real(g3, rng, amplitude=0.3)
        phi -= phi.mean()
        beta = gr.hessian_complex(g3, phi)
        rec = pl.potential_from_form(g3, beta)
        assert gr.sup_norm(rec - phi) < 1e-9

    def test_zero_mode_obstruction(self, g3, rng):
        phi = tf.random_band_limited_real(g3, rng, amplitude=0.3)
        beta = gr.hessian_complex(g3, phi)
        beta = beta + 0.05 * np.eye(3)  # constant (1,1)-form: nonzero class
        with pytest.raises(CohomologyError):
            pl.potential_from_form(g3, beta)

    def test_non_exact_form_rejected(self, g3, rng):
        beta = tf.random_hermitian_metric(g3, rng, amplitude=0.3) - np.eye(3)
        with pytest.raises(CohomologyError):
            pl.potential_from_form(g3, beta)


class TestCalabiYau:
    def test_flat_trivial(self, g3):
        spec = cy_spec(g3, flat_field(g3), flat_field(g3))
        result = pl.calabi_yau_gauduchon(spec, np.zeros(g3.sizes))
        assert abs(result.b_prime) < 1e-10
        assert gr.sup_norm(result.metric - spec.omega) < 1e-9
        assert result.volume_identity_sup < 1e-10

    def test_manufactured_volume_prescription(self, g3, astheno_omega, gauduchon_omega0):
        rng = np.random.default_rng(7)
        f_prime = 0.1 * tf.random_band_limited_real(g3, rng, max_mode=1).real
        spec = cy_spec(g3, gauduchon_omega0, astheno_omega)
        result = pl.calabi_yau_gauduchon(spec, f_prime)
        assert result.report.converged
        assert result.volume_identity_sup < 1e-8
        assert result.gauduchon_defect < 1e-7
        # root metric positive and consistent with the dual bijection
        assert ha.min_eigenvalue(result.metric) > 0
        back = ha.star_power(astheno_omega, result.metric)
        gt = eq.tilde_metric(
            eq.ProblemSpec(
                grid=g3, variant=eq.Variant.PSI, omega0=gauduchon_omega0,
                omega=astheno_omega, F=2.0 * f_prime,
            ),
            result.report.state.u,
        )
        assert gr.sup_norm(back - gt) < 1e-9

    def test_rejects_non_astheno(self, g3, rng, gauduchon_omega0):
        omega = tf.random_hermitian_metric(g3, rng, amplitude=0.2)
        spec = cy_spec(g3, gauduchon_omega0, omega)
        with pytest.raises(ValidationError):
            pl.calabi_yau_gauduchon(spec, np.zeros(g3.sizes))


    def test_every_metric_is_astheno_at_n2(self):
        # i ddbar(omega^0) = 0, so a random omega passes the precondition and
        # the root inherits omega_0's Gauduchon defect
        grid = gr.TorusGrid.reduced(2, 16, active_coords=(0, 2))
        rng = np.random.default_rng(202)
        raw = tf.random_hermitian_metric(grid, rng, amplitude=0.15, max_mode=1)
        omega0 = np.exp(sv.gauduchon_factor(grid, raw, tol=1e-11))[..., None, None] * raw
        omega = tf.random_hermitian_metric(grid, rng, amplitude=0.15, max_mode=1)
        spec = cy_spec(grid, omega0, omega)
        f_prime = 0.1 * tf.random_band_limited_real(grid, rng, max_mode=1).real
        for result in (pl.calabi_yau_gauduchon(spec, f_prime),
                       pl.prescribed_ricci(spec, geo.chern_ricci(grid, omega))):
            assert result.report.converged
            assert result.volume_identity_sup < 1e-8
            assert result.gauduchon_defect < 1e-7
            assert result.diagnostics["omega0_gauduchon_defect"] < pl.PRECONDITION_TOL


class TestPrescribedRicci:
    def test_trivial_class_representative(self, g3, astheno_omega, gauduchon_omega0):
        spec = cy_spec(g3, gauduchon_omega0, astheno_omega)
        psi = geo.chern_ricci(g3, astheno_omega)
        result = pl.prescribed_ricci(spec, psi)
        assert result.diagnostics["ricci_defect"] < 1e-8

    def test_omega0_defect_evaluated_once(self, g3, astheno_omega, gauduchon_omega0,
                                          monkeypatch):
        # the precondition and the diagnostics share one Gauduchon evaluation
        spec = cy_spec(g3, gauduchon_omega0, astheno_omega)
        psi = geo.chern_ricci(g3, astheno_omega)
        defect = geo.MetricFields.gauduchon_defect
        seen = []

        def counting(metric):
            seen.append(np.array_equal(metric.g, spec.omega0))
            return defect(metric)

        monkeypatch.setattr(geo.MetricFields, "gauduchon_defect", counting)
        result = pl.prescribed_ricci(spec, psi)
        assert sum(seen) == 1
        assert result.diagnostics["omega0_gauduchon_defect"] < 1e-9

    def test_shifted_representative(self, g3, astheno_omega, gauduchon_omega0):
        rng = np.random.default_rng(13)
        phi = 0.2 * tf.random_band_limited_real(g3, rng, max_mode=1)
        phi -= phi.mean()
        psi = geo.chern_ricci(g3, astheno_omega) - gr.hessian_complex(g3, phi)
        spec = cy_spec(g3, gauduchon_omega0, astheno_omega)
        result = pl.prescribed_ricci(spec, ha.hermitize(psi))
        # the resolved potential is phi up to its mean
        assert abs(result.diagnostics["potential_sup"] - gr.sup_norm(phi)) < 1e-7
        assert result.diagnostics["ricci_defect"] < 1e-6
        assert result.gauduchon_defect < 1e-7

    def test_obstructed_class_rejected(self, g3, astheno_omega, gauduchon_omega0):
        spec = cy_spec(g3, gauduchon_omega0, astheno_omega)
        psi = geo.chern_ricci(g3, astheno_omega) + 0.03 * np.eye(3)
        with pytest.raises(CohomologyError):
            pl.prescribed_ricci(spec, psi)

    def test_ricci_of_root_two_ways(self, g3, astheno_omega, gauduchon_omega0):
        # direct Chern-Ricci of the root vs Ric(omega) - ddbar of the solved
        # log-volume F' (b' is constant and drops out)
        rng = np.random.default_rng(23)
        f_prime = 0.1 * tf.random_band_limited_real(g3, rng, max_mode=1).real
        spec = cy_spec(g3, gauduchon_omega0, astheno_omega)
        result = pl.calabi_yau_gauduchon(spec, f_prime)
        direct = geo.chern_ricci(g3, result.metric)
        via_volume = geo.chern_ricci(g3, astheno_omega) - gr.hessian_complex(
            g3, f_prime.astype(complex)
        )
        assert gr.sup_norm(direct - via_volume) < 1e-6


class TestPhiPipeline:
    def test_flat_trivial(self, g3):
        spec = cy_spec(g3, flat_field(g3), flat_field(g3))
        result = pl.phi_pipeline(spec, np.zeros(g3.sizes))
        assert gr.sup_norm(result.report.state.u) < 1e-9
        assert result.volume_identity_sup < 1e-10

    def test_gauduchon_preserved_from_omega0(self, g3, gauduchon_omega0):
        # omega Gauduchon, omega_0 Gauduchon: the root inherits the defect
        rng = np.random.default_rng(31)
        f_datum = 0.1 * tf.random_band_limited_real(g3, rng, max_mode=1).real
        spec = eq.ProblemSpec(
            grid=g3, variant=eq.Variant.PHI, omega0=gauduchon_omega0,
            omega=gauduchon_omega0, F=f_datum,
        )
        result = pl.phi_pipeline(spec, f_datum)
        assert result.report.converged
        assert result.volume_identity_sup < 1e-8
        defect0 = result.diagnostics["omega0_gauduchon_defect"]
        assert result.gauduchon_defect <= defect0 + 1e-8

    def test_b_prime_is_b_over_n_minus_1(self, g3, gauduchon_omega0):
        # as in the Calabi-Yau route, b' is the metric-level constant of the
        # volume identity omega_u^n = e^{F/(n-1) + b'} omega^n
        rng = np.random.default_rng(37)
        # the constant 0.3 moves b to about -0.3
        f_datum = 0.1 * tf.random_band_limited_real(g3, rng, max_mode=1).real + 0.3
        spec = eq.ProblemSpec(
            grid=g3, variant=eq.Variant.PHI, omega0=gauduchon_omega0,
            omega=gauduchon_omega0, F=f_datum,
        )
        result = pl.phi_pipeline(spec, f_datum)
        b = result.report.state.b
        assert abs(b) > 0.1
        assert result.b_prime == b / 2
        assert result.diagnostics["b"] == b
        assert result.volume_identity_sup < 1e-8

    def test_rejects_non_gauduchon_omega(self, g3, rng):
        omega = tf.random_hermitian_metric(g3, rng, amplitude=0.2)
        spec = eq.ProblemSpec(
            grid=g3, variant=eq.Variant.PHI, omega0=omega, omega=omega,
            F=np.zeros(g3.sizes),
        )
        with pytest.raises(ValidationError):
            pl.phi_pipeline(spec, np.zeros(g3.sizes))


def test_root_matches_eigen_route(monkeypatch):
    # one prescribed-Ricci pass at the benchmark's 64^2: its root against the
    # per-node eigendecomposition of the same omega and gt
    grid = gr.TorusGrid.reduced(3, 64, active_coords=(0, 2))
    omega, omega0, psi = ricci_input(grid, 2)
    calls = []
    nm1_root = ha.nm1_root

    def kept(omega_ref, s):
        calls.append((omega_ref, s, nm1_root(omega_ref, s)))
        return calls[-1][2]

    monkeypatch.setattr(ha, "nm1_root", kept)
    result = pl.prescribed_ricci(cy_spec(grid, omega0, omega), psi)
    [(omega_ref, s, root)] = calls
    assert root is result.metric and omega_ref is omega
    want = of.nm1_root_eigh(omega_ref, s)
    assert np.max(np.abs(root - want)) <= 1e-13 * np.max(np.abs(want))
