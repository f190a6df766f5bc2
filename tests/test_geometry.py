"""Chern connection/curvature and metric closedness defects."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from torma import geometry as geo
from torma import grid as gr
from torma import hermitian as ha
from torma import testfields as tf
from torma.errors import ValidationError

from . import oracle_forms as of
from .conftest import PROPERTY, property_grids


@pytest.fixture
def g3():
    return gr.TorusGrid.reduced(3, 16)


def flat_field(grid):
    return np.broadcast_to(
        np.eye(grid.n, dtype=complex), grid.sizes + (grid.n, grid.n)
    ).copy()


def conformal_setup(grid, amplitude=0.3):
    sigma = tf.TrigScalar(grid.n)
    sigma.add(amplitude, (1, 0) + (0,) * (2 * grid.n - 2))
    sigma.add(0.5 * amplitude * 1j, (0, 0, 2) + (0,) * (2 * grid.n - 3))
    field = sigma.sample(grid).real
    metric = np.exp(field)[..., None, None] * np.eye(grid.n, dtype=complex)
    return sigma, metric


@pytest.fixture
def g3fine():
    # e^sigma is analytic but not band-limited; 32 nodes push the truncation
    # error of its spectral derivatives below the comparison tolerances
    return gr.TorusGrid.reduced(3, 32, active_coords=(0, 2))


class TestChernConnection:
    def test_constant_metric_is_flat(self, g3, rng):
        from .conftest import random_positive

        g0 = random_positive(rng, 3)
        metric = np.broadcast_to(g0, g3.sizes + (3, 3)).copy()
        conn = geo.chern_connection(g3, metric)
        assert np.max(np.abs(conn.gamma)) < 1e-12
        assert conn.torsion_sup() < 1e-12
        assert np.max(np.abs(conn.curvature)) < 1e-11

    def test_conformal_flat_analytic(self, g3fine):
        # g = e^sigma I:  Gamma^k_{ij} = delta_{jk} d_i sigma,
        # T^k_{ij} = delta_{jk} d_i sigma - delta_{ik} d_j sigma,
        # R_{l mbar i}^p = -delta_{ip} sigma_{l mbar}
        g3 = g3fine
        sigma, metric = conformal_setup(g3)
        conn = geo.chern_connection(g3, metric)
        dsig = sigma.gradient(g3)
        hess = sigma.hessian(g3)
        n = g3.n
        want_gamma = np.zeros_like(conn.gamma)
        want_r = np.zeros_like(conn.curvature)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if j == k:
                        want_gamma[..., k, i, j] = dsig[..., i]
        for l in range(n):
            for m in range(n):
                for i in range(n):
                    want_r[..., l, m, i, i] = -hess[..., l, m]
        np.testing.assert_allclose(conn.gamma, want_gamma, atol=1e-10)
        want_t = want_gamma - np.swapaxes(want_gamma, -1, -2)
        np.testing.assert_allclose(conn.torsion, want_t, atol=1e-10)
        np.testing.assert_allclose(conn.curvature, want_r, atol=1e-9)

    def test_torsion_antisymmetry_exact(self, g3, rng):
        metric = tf.random_hermitian_metric(g3, rng)
        conn = geo.chern_connection(g3, metric)
        swapped = np.swapaxes(conn.torsion, -1, -2)
        assert np.max(np.abs(conn.torsion + swapped)) == 0.0

    def test_kahler_metric_is_torsion_free(self, g3, rng):
        phi = 0.02 * tf.random_band_limited_real(g3, rng)
        metric = tf.kahler_perturbation(g3, phi)
        conn = geo.chern_connection(g3, metric)
        assert conn.torsion_sup() < 1e-11

    def test_gamma_definition_against_finite_differences(self, g3, rng):
        metric = tf.random_hermitian_metric(g3, rng, amplitude=0.15)
        conn = geo.chern_connection(g3, metric)
        with of.derivatives("fd4"):
            conn_fd = geo.chern_connection(g3, metric)
        assert np.max(np.abs(conn.gamma - conn_fd.gamma)) < 5e-3


class TestChernRicci:
    def test_constant_metric(self, g3, rng):
        from .conftest import random_positive

        metric = np.broadcast_to(random_positive(rng, 3), g3.sizes + (3, 3)).copy()
        assert np.max(np.abs(geo.chern_ricci(g3, metric))) < 1e-11

    def test_conformal_value(self, g3fine):
        # log det(e^sigma I) = n sigma + const, so Ric = -n Hess(sigma)
        sigma, metric = conformal_setup(g3fine)
        ric = geo.chern_ricci(g3fine, metric)
        np.testing.assert_allclose(ric, -3.0 * sigma.hessian(g3fine), atol=1e-9)

    def test_hermitian_entry_for_entry(self, g3, rng):
        # the Hessian of the real log det needs no Hermitian-part copy: the
        # form equals that of its complex cast made Hermitian, bit for bit
        metric = tf.random_hermitian_metric(g3, rng, amplitude=0.2)
        ric = geo.chern_ricci(g3, metric)
        log_det = ha.log_det(ha.require_positive(metric)).astype(np.complex128)
        assert np.array_equal(ric, ha.hermitize(-gr.hessian_complex(g3, log_det)))
        assert np.array_equal(ric, np.conj(np.swapaxes(ric, -1, -2)))

    def test_log_difference_identity(self, g3, rng):
        # Ric(g1) - Ric(g2) = -ddbar log(det g1 / det g2)
        g1 = tf.random_hermitian_metric(g3, rng, amplitude=0.2)
        g2 = tf.random_hermitian_metric(g3, rng, amplitude=0.2)
        lhs = geo.chern_ricci(g3, g1) - geo.chern_ricci(g3, g2)
        ratio = np.log((np.linalg.det(g1) / np.linalg.det(g2)).real).astype(complex)
        rhs = -gr.hessian_complex(g3, ratio)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestMetricDefects:
    @pytest.mark.parametrize("n,size", [(3, 16), (4, 8)])
    def test_shared_parts_match_separate_defects(self, rng, n, size, monkeypatch):
        # one g^{-1}, one dbar_g and one spectrum of g serve all three
        # defects, with the values of the separate evaluations bit for bit
        grid = gr.TorusGrid.reduced(n, size, active_coords=(0, 2))
        metric = tf.random_hermitian_metric(grid, rng, amplitude=0.2)
        gauduchon = geo.MetricFields(grid, metric).gauduchon_defect()
        astheno = geo.MetricFields(grid, metric).astheno_defect()
        assert astheno == float(np.max(np.abs(geo.MetricFields(grid, metric).astheno_dual())))
        calls = {"inv": 0, "spectrum": 0, "dbar": 0}
        inv, spectrum, dbar = ha.inverse, geo._spectrum, geo._dbar_entries

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(ha, "inverse", counted("inv", inv))
        monkeypatch.setattr(geo, "_spectrum", counted("spectrum", spectrum))
        monkeypatch.setattr(geo, "_dbar_entries", counted("dbar", dbar))
        d = geo.metric_defects(grid, metric)
        assert calls == {"inv": 1, "spectrum": 1, "dbar": 1}
        assert d.gauduchon == gauduchon
        assert d.astheno == astheno

    def test_astheno_defect_n2_and_validation(self, rng):
        g2 = gr.TorusGrid.reduced(2, 8)
        metric = tf.random_hermitian_metric(g2, rng, amplitude=0.2)
        assert geo.MetricFields(g2, metric).astheno_defect() is None
        g3 = gr.TorusGrid.reduced(3, 8, active_coords=(0, 2))
        with pytest.raises(ValidationError):
            geo.MetricFields(g3, -tf.random_hermitian_metric(g3, rng, amplitude=0.2))

    def test_constant_metric_all_zero(self, g3, rng):
        from .conftest import random_positive

        metric = np.broadcast_to(random_positive(rng, 3), g3.sizes + (3, 3)).copy()
        d = geo.metric_defects(g3, metric)
        assert d.gauduchon < 1e-11
        assert d.astheno < 1e-11
        assert d.kahler < 1e-12

    def test_kahler_perturbation_all_closed(self, g3, rng):
        phi = 0.02 * tf.random_band_limited_real(g3, rng)
        d = geo.metric_defects(g3, tf.kahler_perturbation(g3, phi))
        assert d.kahler < 1e-10
        assert d.gauduchon < 1e-9
        assert d.astheno < 1e-9

    def test_pluriclosed_trick_astheno_but_not_kahler(self, g3, rng):
        gammas = [0.05 * tf.random_band_limited_real(g3, rng) for _ in range(3)]
        metric = tf.pluriclosed_metric(g3, gammas)
        d = geo.metric_defects(g3, metric)
        assert d.astheno < 1e-9          # ddbar omega = 0 by construction
        assert d.kahler > 1e-3           # but d omega != 0
        assert d.gauduchon > 1e-6        # and ddbar omega^2 = -2 dbar omega ^ d omega != 0

    def test_astheno_not_applicable_n2(self, rng):
        g2 = gr.TorusGrid.reduced(2, 16)
        metric = tf.random_hermitian_metric(g2, rng, amplitude=0.1)
        d = geo.metric_defects(g2, metric)
        assert d.astheno is None

    @pytest.mark.parametrize("n,size", [(3, 16), (4, 8)])
    def test_gauduchon_scalar_two_routes_agree(self, rng, n, size):
        grid = gr.TorusGrid.reduced(n, size, active_coords=(0, 2))
        metric = tf.random_hermitian_metric(grid, rng, amplitude=0.2)
        a = geo.gauduchon_scalar(grid, metric)
        b = of.gauduchon_scalar_direct(grid, metric)
        np.testing.assert_allclose(a, b, atol=1e-9 * max(1.0, np.max(np.abs(b))))

    @pytest.mark.parametrize("n", [3, 4])
    def test_astheno_dual_against_canonical_oracle(self, rng, n):
        # build i ddbar(omega^{n-2}) in the wedge engine from canonical
        # 1-form prepends (independent of the production slot grouping) and
        # compare its star dual at sampled nodes
        grid = gr.TorusGrid.reduced(n, 8, active_coords=(0, 2))
        metric = tf.random_hermitian_metric(grid, rng, amplitude=0.15)
        dbar_g = of.metric_dbar_tensor(grid, metric)
        ddbar_g = of.metric_ddbar_tensor(grid, metric, dbar_g)
        dual = geo.MetricFields(grid, metric).astheno_dual()
        rho = geo.gauduchon_scalar(grid, metric)
        d_g = of.metric_d_tensor(grid, metric, dbar_g)
        for node in [(0, 0, 3, 0) + (0,) * (2 * n - 4), (5, 0, 1, 0) + (0,) * (2 * n - 4)]:
            g = metric[node]
            omega_f = of.one_one(g)
            ddbar_omega = 1j * of.ddbar_one_one(ddbar_g[node])
            cross = 1j * of.dbar_metric(dbar_g[node]).wedge(of.d_one_one(d_g[node]))
            # i ddbar(omega^{n-2}) = (n-2)[i ddbar(w) ^ w^{n-3} - (n-3) i dbar(w) ^ d(w) ^ w^{n-4}]
            psi = (n - 2) * (ddbar_omega if n == 3 else ddbar_omega.wedge(omega_f))
            if n == 4:
                psi = psi - (n - 2) * (n - 3) * cross
            want = of.star_nm1(g, psi)
            np.testing.assert_allclose(dual[node], want, atol=1e-9)
            # i ddbar(omega^{n-1}) = (n-1)[i ddbar(w) ^ w^{n-2} - (n-2) i dbar(w) ^ d(w) ^ w^{n-3}]
            top = ddbar_omega.wedge(of.wedge_power(omega_f, n - 2))
            top = top - (n - 2) * (cross if n == 3 else cross.wedge(omega_f))
            want_rho = (n - 1) * of.top_ratio(top, g)
            np.testing.assert_allclose(rho[node], want_rho, atol=1e-9)

    def test_analytic_dbar_tensor_matches_spectral(self, g3fine, rng):
        # the discrepancy is pure spectral truncation of exp(sigma); doubling
        # the grid collapses it by many orders (same mechanism the manufactured
        # convergence criterion relies on)
        coarse = gr.TorusGrid.reduced(3, 16, active_coords=(0, 2))
        metric = tf.random_analytic_metric(
            3, rng, amplitude=0.2, conformal_amplitude=0.3,
            active_coords=g3fine.active_axes,
        )
        err = {}
        for grid in (coarse, g3fine):
            sampled = metric.sample(grid)
            spectral = of.metric_dbar_tensor(grid, sampled)
            err[grid.sizes[0]] = np.max(np.abs(spectral - metric.dbar_tensor(grid)))
        assert err[32] < 1e-8
        assert err[16] > 100 * err[32]


# x-only and y-active grids per dimension for the closed-form/slot-loop match
ORACLE_GRIDS = {
    "n2-x": (2, 16, (0, 2)),
    "n2-y": (2, 8, (0, 1, 3)),
    "n3-x": (3, 8, (0, 2, 4)),
    "n3-y": (3, 8, (0, 1, 4)),
    "n4-x": (4, 4, (0, 2, 4, 6)),
    "n4-y": (4, 4, (0, 3, 5)),
}


def oracle_case(key, sigma_kind, rng):
    n, size, active = ORACLE_GRIDS[key]
    grid = gr.TorusGrid.reduced(n, size, active_coords=active)
    metric = tf.random_hermitian_metric(grid, rng, amplitude=0.2)
    if sigma_kind == "omega":
        sigma = metric
    else:
        # an indefinite real (1,1)-form
        sigma = tf.random_hermitian_metric(grid, rng, amplitude=0.4) - 0.8 * np.eye(n)
    return grid, metric, sigma


def assert_oracle_close(got, want, what=""):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale, what


@pytest.mark.parametrize("key", list(ORACLE_GRIDS))
class TestClosedFormsAgainstSlotLoops:
    """The closed-form contractions of geometry against one S/B call per slot."""

    @pytest.mark.parametrize("sigma_kind", ["omega", "other"])
    def test_blocks(self, key, sigma_kind, rng):
        # the blocks every ddbar defect is built from: the signed (n-2)-minors
        # of geometry._cofactor_minors against C_{ba,kl} = D (A_ba A_kl -
        # A_ka A_bl) from np.linalg, for the metric and for an indefinite
        # Hermitian field (Jacobi's identity needs only an inverse)
        grid, _, sigma = oracle_case(key, sigma_kind, rng)
        n = grid.n
        inv, det = np.linalg.inv(sigma), np.linalg.det(sigma)
        want = det[..., None, None, None, None] * (
            np.einsum("...ba,...kl->...bakl", inv, inv)
            - np.einsum("...ka,...bl->...bakl", inv, inv))
        got = np.zeros_like(want)
        for l in range(n):
            for k in range(n):
                for b, a, terms in geo._cofactor_minors(n, l, k):
                    for sign, cells in terms:
                        got[..., b, a, k, l] += sign * np.prod(
                            [sigma[(...,) + c] for c in cells], axis=0)
        assert_oracle_close(got, want)

    @pytest.mark.parametrize("sigma_kind", ["omega", "other"])
    def test_ddbar_scalar(self, key, sigma_kind, rng):
        grid, metric, sigma = oracle_case(key, sigma_kind, rng)
        assert_oracle_close(geo.MetricFields(grid, metric).ddbar_scalar(sigma),
                            of.ddbar_scalar_slots(grid, metric, sigma))

    def test_gauduchon_scalar(self, key, rng):
        # the product-rule divergence of the cofactor matrix against the
        # minors path of ddbar_scalar and the slot loops
        grid, metric, _ = oracle_case(key, "omega", rng)
        fields = geo.MetricFields(grid, metric)
        got = fields.gauduchon_scalar()
        assert_oracle_close(got, fields.ddbar_scalar(metric))
        assert_oracle_close(got, of.ddbar_scalar_slots(grid, metric, metric))

    def test_dbar_field(self, key, rng):
        # one transform pair per coordinate's own axes against one
        # d_antiholo per coordinate, bit for bit
        grid, metric, _ = oracle_case(key, "omega", rng)
        np.testing.assert_array_equal(geo.MetricFields(grid, metric).dbar_field,
                                      of.metric_dbar_tensor(grid, metric))

    def test_astheno_dual(self, key, rng):
        grid, metric, _ = oracle_case(key, "omega", rng)
        dual = geo.MetricFields(grid, metric).astheno_dual()
        if grid.n == 2:
            assert dual is None
        else:
            assert_oracle_close(dual, of.astheno_dual_slots(grid, metric))


class TestGauduchonScalarOnRandomGrids:
    """The ddbar defect kernels over random grid shapes, y axes included: on
    a grid with only x axes active, entries [k, l] and [l, k] of a flat dual
    agree under d_l d_kbar, so only a y axis tells them apart."""

    @PROPERTY
    @given(case=property_grids(max_nodes=4 ** 4))
    def test_against_slot_loops(self, case):
        grid, rng = case
        metric = tf.random_hermitian_metric(grid, rng, amplitude=0.2)
        assert_oracle_close(geo.MetricFields(grid, metric).gauduchon_scalar(),
                            of.ddbar_scalar_slots(grid, metric, metric))

    @PROPERTY
    @given(case=property_grids(max_nodes=4 ** 4))
    def test_astheno_dual_against_slot_loops(self, case):
        grid, rng = case
        metric = tf.random_hermitian_metric(grid, rng, amplitude=0.2)
        dual = geo.MetricFields(grid, metric).astheno_dual()
        if grid.n == 2:
            assert dual is None
        else:
            assert_oracle_close(dual, of.astheno_dual_slots(grid, metric))

    @PROPERTY
    @given(case=property_grids(max_nodes=4 ** 4))
    def test_ddbar_scalar_against_slot_loops(self, case):
        grid, rng = case
        metric = tf.random_hermitian_metric(grid, rng, amplitude=0.2)
        sigma = tf.random_hermitian_metric(grid, rng, amplitude=0.4) - 0.8 * np.eye(grid.n)
        assert_oracle_close(geo.MetricFields(grid, metric).ddbar_scalar(sigma),
                            of.ddbar_scalar_slots(grid, metric, sigma))


@pytest.mark.parametrize("key", list(ORACLE_GRIDS))
@pytest.mark.parametrize("sigma_kind", ["omega", "other"])
def test_pair_slices_against_ddbar_tensor(key, sigma_kind, rng):
    # the slices d_l d_kbar s every ddbar defect takes, one inverse transform
    # of one spectrum per live pair l <= k, against the whole ddbar tensor of
    # the oracle (d_holo of the dbar stack): the (k, l) slices are their
    # adjoints and those of a coordinate the grid does not resolve vanish
    grid, _, sigma = oracle_case(key, sigma_kind, rng)
    want = of.metric_ddbar_tensor(grid, sigma)
    got = np.zeros_like(want)
    pairs = []
    for l, k, h in geo._pair_slices(grid, geo._spectrum(grid, sigma)):
        pairs.append((l, k))
        got[..., l, k, :, :] = ha.as_field(h)
        got[..., k, l, :, :] = np.conj(np.swapaxes(ha.as_field(h), -1, -2))
    live = gr.spectral_table(grid).live
    assert pairs == [(l, k) for l in live for k in live if l <= k]
    assert_oracle_close(got, want)


class _EinsumOperands:
    """numpy as geometry sees it, recording the operand shapes of np.einsum."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, subscripts, *operands, **kwargs):
        self.shapes += [np.shape(op) for op in operands]
        return np.einsum(subscripts, *operands, **kwargs)


@pytest.mark.parametrize("n,size", [(3, 16), (4, 8)])
def test_defects_pass_no_einsum_more_than_two_matrix_axes(rng, monkeypatch, n, size):
    # the ddbar defects contract entrywise; an einsum over stacked (n, n, n)
    # or (n, n, n, n) tensors per node is what they replaced
    grid = gr.TorusGrid.reduced(n, size, active_coords=(0, 2))
    metric = tf.random_hermitian_metric(grid, rng, amplitude=0.2)
    seen = _EinsumOperands()
    monkeypatch.setattr(geo, "np", seen)
    geo.MetricFields(grid, metric).gauduchon_defect()
    geo.MetricFields(grid, metric).astheno_defect()
    assert all(len(shape) - 2 * n <= 2 for shape in seen.shapes), seen.shapes
    # the recorder sees geometry's einsums: the connection contracts d_g
    geo.chern_connection(grid, metric)
    assert max(len(shape) - 2 * n for shape in seen.shapes) == 3


def test_ddbar_scalar_allocation_bound():
    # one ddbar_scalar with sigma != omega at the pipeline benchmark's grid
    # (64^2, n = 3), every derivative of both fields taken inside: 9.7 MB
    # peak measured (the einsum contractions, handed omega's derivative
    # tensors, peaked at 11.8 MB). An n^4 complex field is 5.3 MB here, so
    # holding any whole ddbar tensor crosses the bound; an n^3 one is 1.7 MB.
    grid = gr.TorusGrid.reduced(3, 64, active_coords=(0, 2))
    rng = np.random.default_rng(5)
    metric = tf.random_hermitian_metric(grid, rng, amplitude=0.15, max_mode=1)
    sigma = tf.random_hermitian_metric(grid, rng, amplitude=0.3, max_mode=1) - 0.5 * np.eye(3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        geo.MetricFields(grid, metric).ddbar_scalar(sigma)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 13.0e6
