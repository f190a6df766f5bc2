"""Monge-Ampere operator assembly: residuals, E/Z term, linearization, eta."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torma import equations as eq
from torma import grid as gr
from torma import hermitian as ha
from torma import testfields as tf
from torma.errors import PositivityError, ValidationError
from torma.manufacture import manufacture_problem

from . import oracle_forms as of


@pytest.fixture
def g3():
    return gr.TorusGrid.reduced(3, 16, active_coords=(0, 2))


def flat_field(grid):
    return np.broadcast_to(np.eye(grid.n, dtype=complex), grid.sizes + (grid.n, grid.n)).copy()


def flat_spec(grid, variant=eq.Variant.PSI):
    return eq.ProblemSpec(
        grid=grid, variant=variant, omega0=flat_field(grid), omega=flat_field(grid),
        F=np.zeros(grid.sizes),
    )


def random_spec(grid, rng, variant, metric_amplitude=0.15):
    omega = tf.random_hermitian_metric(grid, rng, amplitude=metric_amplitude)
    omega0 = tf.random_hermitian_metric(grid, rng, amplitude=metric_amplitude)
    return eq.ProblemSpec(
        grid=grid, variant=variant, omega0=omega0, omega=omega, F=np.zeros(grid.sizes)
    )


# at most 4^6 nodes, so every axis is active only for n = 3
LAYER_NODES = 4 ** 6


@st.composite
def layer_cases(draw):
    """(spec, u) on a random grid with n = 3 or 4: reduced (any non-empty set
    of active axes) or full (every coordinate resolved, so every Hessian
    entry lives), 4-16 nodes per active axis."""
    n = draw(st.sampled_from([3, 4]))
    if draw(st.booleans()):
        active = [a for j in range(n)
                  for a in draw(st.sampled_from([(2 * j,), (2 * j + 1,), (2 * j, 2 * j + 1)]))]
        while len(active) > 6:  # drop y-axes from the last coordinates
            active.remove(max(a for a in active if a % 2 and a - 1 in active))
    else:
        active = sorted(draw(st.sets(st.integers(0, 2 * n - 1), min_size=1, max_size=6)))
    sizes = [1] * (2 * n)
    for k, axis in enumerate(active):
        # leave 4 nodes for each active axis still to size
        room = LAYER_NODES // (math.prod(sizes) * 4 ** (len(active) - k - 1))
        sizes[axis] = draw(st.sampled_from([s for s in (4, 8, 16) if s <= room]))
    grid = gr.TorusGrid(n, tuple(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    variant = draw(st.sampled_from(list(eq.Variant)))
    omega = tf.random_hermitian_metric(grid, rng, amplitude=0.15, max_mode=1)
    omega0 = tf.random_hermitian_metric(grid, rng, amplitude=0.15, max_mode=1)
    spec = eq.ProblemSpec(grid=grid, variant=variant, omega0=omega0, omega=omega,
                          F=np.zeros(grid.sizes))
    # band-limited plus white noise, so Nyquist modes and every symbol take part
    u = (tf.random_band_limited_real(grid, rng, amplitude=0.02, max_mode=1).real
         + 1e-5 * rng.standard_normal(grid.sizes))
    return spec, u


def assert_rel(got, want, rtol=1e-13):
    assert gr.sup_norm(got - want) <= rtol * gr.sup_norm(want)


class TestEntrywiseLayerOnRandomGrids:
    """The entrywise gt, torsion operator and Newton coefficients against
    their einsum and hermitize forms in oracle_forms, over random grids."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=layer_cases())
    def test_against_einsum_forms(self, case):
        spec, u = case
        grid = spec.grid
        gt = eq.tilde_metric(spec, u)
        assert_rel(gt, of.tilde_metric_einsum(spec, u))
        assert np.array_equal(gt, np.conj(np.swapaxes(gt, -1, -2)))
        z, h = eq.e_term_from_parts(spec.omega, gr.holo_gradient(grid, u), spec.metric.dbar_field,
                                    spec.metric.gi)
        z_want, h_want = of.e_term_einsum(spec, u)
        assert_rel(z, z_want)
        assert_rel(h, h_want)
        assert np.array_equal(z, np.conj(np.swapaxes(z, -1, -2)))
        if spec.variant is eq.Variant.PHI:
            assert_rel(spec.torsion_operator, of.spec_torsion_operator_einsum(spec))
        lin = eq.Linearization(spec, eq.SolveState(u=u, b=0.0), gt=gt)
        coeff, first = of.linearization_coefficients(lin)
        want = gr.SecondOrderOperator.from_coefficients(grid, coeff, first)
        # (i, j, A, B) and (p, Re a/2, Im a/2): labels, then fields or None
        got_terms = lin.operator.second + lin.operator.first
        want_terms = want.second + want.first
        assert [t[:-2] for t in got_terms] == [t[:-2] for t in want_terms]
        scale = max(gr.sup_norm(f) for t in want_terms for f in t[-2:] if f is not None)
        for got, exp in zip(got_terms, want_terms):
            for got_f, want_f in zip(got[-2:], exp[-2:]):
                assert (got_f is None) == (want_f is None)
                if want_f is not None:
                    assert gr.sup_norm(got_f - want_f) <= 1e-13 * scale
        mean = np.mean(coeff, axis=tuple(range(coeff.ndim - 2)))
        assert_rel(lin.coeff_mean, mean)


class TestResampledSpec:
    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_coarsen_then_refine_keeps_band_limited_data(self, g3, rng, variant):
        # the data are band-limited below the coarse Nyquist: both ways exact
        spec = random_spec(g3, rng, variant)
        spec = eq.ProblemSpec(grid=g3, variant=variant, omega0=spec.omega0, omega=spec.omega,
                              F=tf.random_band_limited_real(g3, rng, max_mode=2),
                              rhs_volume=eq.RhsVolume.OMEGA_H_N)
        coarse = spec.resampled(g3.coarsened(2))
        assert coarse.grid == g3.coarsened(2)
        assert (coarse.variant, coarse.rhs_volume) == (variant, eq.RhsVolume.OMEGA_H_N)
        assert coarse.F.dtype == np.float64
        for name in ("omega0", "omega"):
            m = getattr(coarse, name)
            np.testing.assert_array_equal(m, ha.hermitize(m))
        back = coarse.resampled(g3)
        for name in ("omega0", "omega", "F"):
            np.testing.assert_allclose(getattr(back, name), getattr(spec, name), atol=1e-13)

    def test_inadmissible_resample_raises(self, g3):
        # a conformal step 0.01 | 1 along x_1: truncated to 8 x 8, its Gibbs
        # undershoot is negative at some coarse nodes
        step = np.where(g3.coordinate(0) < 0.5, 0.01, 1.0)
        omega = step[..., None, None] * flat_field(g3)
        spec = eq.ProblemSpec(grid=g3, variant=eq.Variant.PSI, omega0=flat_field(g3),
                              omega=omega, F=np.zeros(g3.sizes))
        with pytest.raises(ValidationError, match="omega"):
            spec.resampled(g3.coarsened(2))


class TestOmegaH:
    def test_flat(self, g3):
        spec = flat_spec(g3)
        np.testing.assert_allclose(spec.omega_h, flat_field(g3), atol=1e-13)

    def test_diag_example(self, g3):
        omega0 = flat_field(g3) * np.diag([1.0, 2.0, 3.0])
        spec = eq.ProblemSpec(
            grid=g3, variant=eq.Variant.PSI, omega0=omega0, omega=flat_field(g3),
            F=np.zeros(g3.sizes),
        )
        np.testing.assert_allclose(
            spec.omega_h, flat_field(g3) * np.diag([6.0, 3.0, 2.0]), atol=1e-12
        )

    def test_positive(self, g3, rng):
        spec = random_spec(g3, rng, eq.Variant.PSI)
        assert ha.min_eigenvalue(spec.omega_h) > 0


class TestSpecValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["omega0", "omega", "F"])
    def test_rejects_non_finite_input(self, g3, field, bad):
        data = {"omega0": flat_field(g3), "omega": flat_field(g3), "F": np.zeros(g3.sizes)}
        data[field].flat[0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            eq.ProblemSpec(grid=g3, variant=eq.Variant.PSI, **data)

    @pytest.mark.parametrize("field", ["omega0", "omega"])
    def test_rejects_non_finite_upper_triangle(self, g3, field):
        # a Cholesky factor reads the lower triangle only
        data = {"omega0": flat_field(g3), "omega": flat_field(g3), "F": np.zeros(g3.sizes)}
        data[field][..., 0, 1] = np.nan
        with pytest.raises(ValidationError, match=f"{field.replace('0', '_0')} has non-finite"):
            eq.ProblemSpec(grid=g3, variant=eq.Variant.PSI, **data)


class TestTildeMetric:
    def test_zero_potential_gives_omega_h(self, g3, rng):
        spec = random_spec(g3, rng, eq.Variant.PSI)
        gt = eq.tilde_metric(spec, np.zeros(g3.sizes, dtype=complex))
        np.testing.assert_allclose(gt, spec.omega_h, atol=1e-12)

    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_trace_identity(self, g3, rng, variant):
        spec = random_spec(g3, rng, variant)
        u = tf.random_band_limited_real(g3, rng, amplitude=0.05)
        assert eq.trace_identity_residual(spec, u) < 1e-10

    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_reconstruction_identity(self, g3, rng, variant):
        spec = random_spec(g3, rng, variant)
        u = tf.random_band_limited_real(g3, rng, amplitude=0.05)
        assert eq.reconstruction_identity_residual(spec, u) < 1e-10

    def test_flat_small_amplitude_closed_form(self, g3):
        # flat omega = omega_0 = I: gt = I + ((lap u) I - Hess u)/2 for n=3
        spec = flat_spec(g3)
        u = (0.01 * np.cos(2 * np.pi * g3.coordinate(0))).astype(complex)
        gt = eq.tilde_metric(spec, u)
        hess = gr.hessian_complex(g3, u)
        lap = np.einsum("...ii->...", hess)
        want = flat_field(g3) + (lap[..., None, None] * flat_field(g3) - hess) / 2.0
        np.testing.assert_allclose(gt, want, atol=1e-13)


class TestETerm:
    def test_requires_phi(self, g3, rng):
        spec = random_spec(g3, rng, eq.Variant.PSI)
        with pytest.raises(ValidationError):
            eq.e_term(spec, np.zeros(g3.sizes, dtype=complex))

    def test_constant_metric_gives_zero(self, g3, rng):
        spec = flat_spec(g3, eq.Variant.PHI)
        u = tf.random_band_limited_real(g3, rng)
        z, h = eq.e_term(spec, u)
        assert np.max(np.abs(z)) < 1e-12
        assert np.max(np.abs(h)) < 1e-12

    def test_linearity(self, g3, rng):
        spec = random_spec(g3, rng, eq.Variant.PHI)
        u = tf.random_band_limited_real(g3, rng)
        v = tf.random_band_limited_real(g3, rng)
        zu, hu = eq.e_term(spec, u)
        zv, hv = eq.e_term(spec, v)
        zs, hs = eq.e_term(spec, 2.0 * u - 0.3 * v)
        np.testing.assert_allclose(zs, 2.0 * zu - 0.3 * zv, atol=1e-11)
        np.testing.assert_allclose(hs, 2.0 * hu - 0.3 * hv, atol=1e-11)

    def test_gradient_bound_with_measured_constant(self, g3, rng):
        # |Z|_g <= C |grad u|_g with C measured from the metric first derivatives
        spec = random_spec(g3, rng, eq.Variant.PHI, metric_amplitude=0.2)
        u = tf.random_band_limited_real(g3, rng)
        z, _ = eq.e_term(spec, u)
        z_norm = np.linalg.norm(z.reshape(-1, 9), axis=1).reshape(g3.sizes)
        grad = np.sqrt(np.maximum(gr.grad_norm_sq(g3, spec.metric.gi, u), 1e-30))
        c_meas = float(np.max(np.abs(spec.metric.dbar_field))) * 10.0
        assert np.max(z_norm / grad) < c_meas

    @pytest.mark.parametrize("n", [3, 4])
    def test_against_exterior_oracle(self, rng, n):
        # Z = star E and n! E ^ omega = H omega^n (Eq-level convention lock),
        # checked at random pointwise data via the full wedge engine
        from .conftest import random_positive, random_complex

        g = random_positive(rng, n)
        du = random_complex(rng, n)
        dbar_g = random_complex(rng, n, n, n, scale=0.3)
        z, h = eq.e_term_from_parts(g, du, dbar_g, np.linalg.inv(g))
        omega_f = of.one_one(g)
        dbar_omega_f = of.dbar_metric(dbar_g)
        # dbar(omega^{n-2}) = (n-2) dbar(omega) ^ omega^{n-3}
        dbar_pow = (n - 2.0) * dbar_omega_f
        if n > 3:
            dbar_pow = dbar_pow.wedge(of.wedge_power(omega_f, n - 3))
        xi = (1j * of.one_zero(du)).wedge(dbar_pow)
        e_form = (1.0 / math.factorial(n - 1)) * xi.real_part()
        z_oracle = of.star_nm1(g, e_form)
        np.testing.assert_allclose(z, z_oracle, atol=1e-11)
        # trace identity n! E ^ omega = H omega^n
        lhs = math.factorial(n) * of.top_ratio(e_form.wedge(omega_f), g)
        rhs = math.factorial(n) * h
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


class TestTorsionClosedForms:
    """Closed-form torsion contractions against the slot loops they replace."""

    @staticmethod
    def pointwise(rng, n, nodes=6):
        from .conftest import random_positive, random_complex

        g = random_positive(rng, n, shape=(nodes,))
        dbar_g = random_complex(rng, nodes, n, n, n, scale=0.3)
        return g, dbar_g, np.linalg.inv(g)

    @pytest.mark.parametrize("n", [3, 4])
    def test_operator_matches_slot_loop(self, rng, n):
        g, dbar_g, ginv = self.pointwise(rng, n)
        m = ha.as_field(eq.torsion_operator_entries(ha.entrywise(g), ha.entrywise(dbar_g, 3),
                                                 ha.entrywise(ginv)), 3)
        for p, unit in enumerate(np.eye(n, dtype=complex)):
            du = np.broadcast_to(unit, g.shape[:-1])
            np.testing.assert_allclose(
                m[..., p, :, :], of.e_raw_slots(g, du, dbar_g, ginv), rtol=0, atol=1e-13
            )

    @pytest.mark.parametrize("n", [3, 4])
    def test_coefficient_matches_s2_slot_sum(self, rng, n):
        from .conftest import random_complex

        g, dbar_g, ginv = self.pointwise(rng, n)
        du = random_complex(rng, g.shape[0], n)
        c = eq.torsion_coefficient(ha.entrywise(dbar_g, 3), ha.entrywise(ginv))
        got = np.einsum("...p,...p->...", du, ha.as_field(c, 1))
        np.testing.assert_allclose(got, of.cross_slots(g, du, dbar_g, ginv), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [3, 4])
    def test_first_order_matches_slot_loop(self, rng, n):
        grid = gr.TorusGrid.reduced(n, 8, active_coords=(0, 2))
        spec = random_spec(grid, rng, eq.Variant.PHI)
        u = tf.random_band_limited_real(grid, rng, amplitude=0.03)
        lin = eq.Linearization(spec, eq.SolveState(u=u, b=0.0))
        gt_inv = ha.inverse(ha.cholesky(lin.gt))
        want = np.stack([
            np.einsum(
                "...ij,...ji->...", gt_inv,
                of.e_raw_slots(spec.omega, np.broadcast_to(unit, grid.sizes + (n,)),
                               spec.metric.dbar_field, spec.metric.gi),
            ) / (n - 1)
            for unit in np.eye(n, dtype=complex)
        ], axis=-1)
        np.testing.assert_allclose(of.linearization_coefficients(lin)[1], want,
                                   rtol=0, atol=1e-13)
        # the operator's first-order fields are (Re a_p / 2, Im a_p / 2)
        assert [p for p, _, _ in lin.operator.first] == [0, 1]
        for p, re, im in lin.operator.first:
            np.testing.assert_allclose(re, 0.5 * want[..., p].real, rtol=0, atol=1e-13)
            assert im is None


class TestResidual:
    def test_flat_zero(self, g3):
        spec = flat_spec(g3)
        state = eq.SolveState(u=np.zeros(g3.sizes, dtype=complex), b=0.0, t=1.0)
        assert gr.sup_norm(eq.ma_residual(spec, state)) < 1e-13

    def test_manufactured_zero_residual(self, g3, rng):
        # with analytic band-limited metric data (no conformal factor) the
        # sampled assembly reproduces F* to near machine precision
        prob = manufacture_problem(
            g3, eq.Variant.PSI, rng, conformal_amplitude=0.0, metric_amplitude=0.1
        )
        r = eq.ma_residual(prob.spec, prob.state())
        assert gr.sup_norm(r) < 1e-11

    def test_exp_log_consistency(self, g3, rng):
        spec = random_spec(g3, rng, eq.Variant.PSI)
        u = tf.random_band_limited_real(g3, rng, amplitude=0.03)
        state = eq.SolveState(u=u, b=0.17, t=1.0)
        gt = eq.tilde_metric(spec, u)
        r = eq.ma_residual(spec, state, gt=gt)
        lhs = np.exp(r + spec.F + state.b) * np.exp(spec.log_det_ref)
        np.testing.assert_allclose(lhs, np.linalg.det(gt).real, rtol=1e-12)

    def test_positivity_error_reports_nodes(self, g3):
        spec = flat_spec(g3)
        u = (2.0 * np.cos(2 * np.pi * g3.coordinate(0))).astype(complex)
        state = eq.SolveState(u=u, b=0.0, t=1.0)
        with pytest.raises(PositivityError) as err:
            eq.ma_residual(spec, state)
        assert len(err.value.bad_nodes) > 0


def theta_coefficients(spec, state, gt=None):
    """Theta^{i jbar} = ((tr_gt g) g^{i jbar} - gt^{i jbar})/(n-1), the
    transpose of the linearization's second-order coefficients."""
    lin = eq.Linearization(spec, state, gt=gt)
    return np.swapaxes(of.linearization_coefficients(lin)[0], -1, -2)


class TestTheta:
    def test_flat_identity(self, g3):
        spec = flat_spec(g3)
        state = eq.SolveState(u=np.zeros(g3.sizes, dtype=complex), b=0.0)
        theta = theta_coefficients(spec, state)
        np.testing.assert_allclose(theta, flat_field(g3), atol=1e-13)

    def test_diag_example(self, g3):
        # g = I, gt = diag(1,2,3): Theta = diag(5/12, 2/3, 3/4)
        spec = flat_spec(g3)
        gt = flat_field(g3) * np.diag([1.0, 2.0, 3.0])
        state = eq.SolveState(u=np.zeros(g3.sizes, dtype=complex), b=0.0)
        theta = theta_coefficients(spec, state, gt=gt)
        want = flat_field(g3) * np.diag([5.0 / 12.0, 2.0 / 3.0, 3.0 / 4.0])
        np.testing.assert_allclose(theta, want, atol=1e-13)

    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_positive_and_trace_identity(self, g3, rng, variant):
        spec = random_spec(g3, rng, variant)
        u = tf.random_band_limited_real(g3, rng, amplitude=0.03)
        state = eq.SolveState(u=u, b=0.0)
        gt = eq.tilde_metric(spec, u)
        theta = theta_coefficients(spec, state, gt=gt)
        assert ha.min_eigenvalue(theta) > 0
        # sum_i Theta^{i ibar} = tr_gt(g) in g-orthonormal frames; contract
        # invariantly: g_{j ibar} Theta^{i jbar} = tr(Theta g^T)
        lhs = np.einsum("...ij,...ij->...", theta, spec.omega)
        rhs = np.einsum("...ij,...ji->...", np.linalg.inv(gt), spec.omega)
        np.testing.assert_allclose(lhs.real, rhs.real, atol=1e-11)


class TestLinearization:
    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_constant_direction_annihilated(self, g3, rng, variant):
        spec = random_spec(g3, rng, variant)
        state = eq.SolveState(u=np.zeros(g3.sizes, dtype=complex), b=0.0)
        out = eq.Linearization(spec, state).apply(np.full(g3.sizes, 3.3, dtype=complex))
        assert gr.sup_norm(out) < 1e-12

    def test_flat_psi_is_laplacian(self, g3, rng):
        spec = flat_spec(g3)
        state = eq.SolveState(u=np.zeros(g3.sizes, dtype=complex), b=0.0)
        v = tf.random_band_limited_real(g3, rng)
        np.testing.assert_allclose(
            eq.Linearization(spec, state).apply(v),
            gr.laplacian(g3, spec.metric.gi, v).real,
            atol=1e-11,
        )

    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_finite_difference_match(self, g3, rng, variant):
        spec = random_spec(g3, rng, variant)
        u = tf.random_band_limited_real(g3, rng, amplitude=0.03)
        state = eq.SolveState(u=u, b=0.0)
        v = tf.random_band_limited_real(g3, rng)
        lin = eq.Linearization(spec, state)
        got = lin.apply(v)
        h = 1e-5
        rp = eq.ma_residual(spec, eq.SolveState(u=u + h * v, b=0.0))
        rm = eq.ma_residual(spec, eq.SolveState(u=u - h * v, b=0.0))
        fd = ((rp - rm) / (2 * h)).real
        rel = gr.sup_norm(got - fd) / gr.sup_norm(fd)
        assert rel < 1e-6

    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_transpose_is_exact(self, g3, rng, variant):
        spec = random_spec(g3, rng, variant)
        u = tf.random_band_limited_real(g3, rng, amplitude=0.03)
        lin = eq.Linearization(spec, eq.SolveState(u=u, b=0.0))
        w = of.volume_weights(g3, lin.gt)
        v = tf.random_band_limited_real(g3, rng).real
        f = tf.random_band_limited_real(g3, rng).real
        lhs = np.sum(lin.apply(v.astype(complex)) * f * w)
        rhs = np.sum(v * lin.apply_transpose(f, w) * w)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


class TestEta:
    def test_trivial_example(self, g3, rng):
        # u = 0, omega_0 = omega: h = g so eta = g
        omega = tf.random_hermitian_metric(g3, rng, amplitude=0.1)
        spec = eq.ProblemSpec(
            grid=g3, variant=eq.Variant.PSI, omega0=omega, omega=omega,
            F=np.zeros(g3.sizes),
        )
        state = eq.SolveState(u=np.zeros(g3.sizes, dtype=complex), b=0.0)
        eta_u, eta_gt, mismatch = eq.eta_tensor(spec, state)
        assert mismatch < 1e-10
        np.testing.assert_allclose(eta_u, omega, atol=1e-10)

    def test_diagonal_paper_values(self, g3):
        # lambda = (1,2,3), n = 3: eta_{i ibar} = sum lambda - 2 lambda_i = (4,2,0)
        lam = np.array([1.0, 2.0, 3.0])
        eta_diag = lam.sum() - 2.0 * lam
        np.testing.assert_allclose(eta_diag, [4.0, 2.0, 0.0])
        # realize through the code: gt = diag(lam) via omega_0 with
        # star_power(I, omega_0) = diag(lam), u = 0
        omega0 = ha.nm1_root(
            np.eye(3, dtype=complex), np.diag(lam).astype(complex)
        )
        spec = eq.ProblemSpec(
            grid=g3, variant=eq.Variant.PSI,
            omega0=np.broadcast_to(omega0, g3.sizes + (3, 3)).copy(),
            omega=flat_field(g3), F=np.zeros(g3.sizes),
        )
        state = eq.SolveState(u=np.zeros(g3.sizes, dtype=complex), b=0.0)
        eta_u, eta_gt, mismatch = eq.eta_tensor(spec, state)
        assert mismatch < 1e-10
        np.testing.assert_allclose(eta_u, flat_field(g3) * np.diag(eta_diag), atol=1e-10)

    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_dual_formula_agreement(self, g3, rng, variant):
        spec = random_spec(g3, rng, variant)
        u = tf.random_band_limited_real(g3, rng, amplitude=0.04)
        _, _, mismatch = eq.eta_tensor(spec, eq.SolveState(u=u, b=0.0))
        assert mismatch < 1e-12

    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_eigenvalue_band(self, g3, rng, variant):
        # (1/n) tr_w(gt) <= lam_max <= eta_max <= (n-1) lam_max pointwise
        spec = random_spec(g3, rng, variant)
        u = tf.random_band_limited_real(g3, rng, amplitude=0.04)
        gt = eq.tilde_metric(spec, u)
        lam = ha.relative_eigenvalues(spec.omega, gt)
        trace = lam.sum(axis=-1)
        eta_max = trace - (spec.n - 1) * lam[..., 0]
        lam_max = lam[..., -1]
        tol = 1e-12
        assert np.all(trace / spec.n <= lam_max + tol)
        assert np.all(lam_max <= eta_max + tol)
        assert np.all(eta_max <= (spec.n - 1) * lam_max + tol)


class TestBetaClosedness:
    def test_defect_is_spectrally_small(self, rng):
        # the identity is exact; the discrete defect is aliasing of the
        # composite assembly and must collapse spectrally with resolution
        errs = {}
        for size in (16, 32):
            r = np.random.default_rng(11)
            grid = gr.TorusGrid.reduced(3, size, active_coords=(0, 2))
            omega = tf.random_hermitian_metric(grid, r, amplitude=0.15, max_mode=1)
            omega0 = tf.random_hermitian_metric(grid, r, amplitude=0.15, max_mode=1)
            spec = eq.ProblemSpec(
                grid=grid, variant=eq.Variant.PHI, omega0=omega0, omega=omega,
                F=np.zeros(grid.sizes),
            )
            u = tf.random_band_limited_real(grid, r, amplitude=0.5)
            errs[size] = gr.sup_norm(eq.beta_closedness_scalar(spec, u))
        assert errs[32] < 1e-8
        assert errs[16] > 50 * errs[32]
