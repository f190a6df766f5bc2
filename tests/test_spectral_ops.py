"""Fused spectral operators of torma.grid against per-axis compositions.

The oracles in oracle_forms differentiate one real axis at a time (a 1-D FFT
or the fd4 np.roll stencil) and compose first derivatives; the operators
under test transform once over all active axes and multiply by the cached
table of the grid. Inputs are white noise, so every mode, Nyquist included,
takes part.
"""

import sys

import numpy as np
import pytest
import scipy.fft
from hypothesis import given

from torma import equations as eq
from torma import grid as gr
from torma import hermitian as ha
from torma import solver as sv
from torma import testfields as tf
from torma.errors import PositivityError, ValidationError
from torma.manufacture import manufacture_problem

from . import oracle_forms as of
from .conftest import PROPERTY, property_grids

# x-only grids (n = 4 leaves coordinate 4 without an active axis) and grids
# with active y-axes (n = 4 has a y-only and an x-only coordinate)
GRIDS = {
    (2, "x"): gr.TorusGrid.reduced(2, 16),
    (3, "x"): gr.TorusGrid.reduced(3, 8),
    (4, "x"): gr.TorusGrid.reduced(4, 8, active_coords=(0, 2, 4)),
    (2, "y"): gr.TorusGrid(2, (8, 4, 8, 4)),
    (3, "y"): gr.TorusGrid(3, (8, 4, 8, 1, 4, 4)),
    (4, "y"): gr.TorusGrid(4, (4, 4, 4, 1, 4, 1, 1, 4)),
}
METHODS = ["spectral", "fd4"]


@pytest.fixture(params=METHODS)
def method(request):
    with of.derivatives(request.param):
        yield request.param


def noise(grid, rng, dtype):
    f = rng.standard_normal(grid.sizes)
    if dtype == "complex":
        f = f + 1j * rng.standard_normal(grid.sizes)
    return f


def assert_rel_close(got, want, rtol=1e-12):
    scale = gr.sup_norm(want)
    assert gr.sup_norm(got - want) <= rtol * scale


@pytest.mark.parametrize("key", list(GRIDS), ids=lambda k: f"n{k[0]}-{k[1]}")
@pytest.mark.parametrize("dtype", ["real", "complex"])
class TestAgainstComposition:
    def test_hessian(self, key, dtype, method, rng):
        grid = GRIDS[key]
        u = noise(grid, rng, dtype)
        assert_rel_close(gr.hessian_complex(grid, u), of.hessian_composed(grid, u, method))

    def test_first_derivatives(self, key, dtype, method, rng):
        grid = GRIDS[key]
        f = noise(grid, rng, dtype)
        grad = gr.holo_gradient(grid, f)
        for i in range(grid.n):
            want = of.d_holo_axes(grid, f, i, method)
            assert_rel_close(grad[..., i], want)
            assert_rel_close(gr.d_holo(grid, f, i), want)
            assert_rel_close(gr.d_antiholo(grid, f, i), of.d_antiholo_axes(grid, f, i, method))
        for axis in range(2 * grid.n):
            assert_rel_close(of.deriv_real(grid, f, axis),
                             of.deriv_real_axis(grid, f, axis, method))

    def test_matrix_field_derivatives(self, key, dtype, method, rng):
        grid = GRIDS[key]
        f = np.stack([noise(grid, rng, dtype) for _ in range(4)], axis=-1).reshape(
            grid.sizes + (2, 2)
        )
        for i in range(grid.n):
            assert_rel_close(gr.d_holo(grid, f, i), of.d_holo_axes(grid, f, i, method))

    def test_drop_nyquist(self, key, dtype, rng):
        grid = GRIDS[key]
        f = noise(grid, rng, dtype)
        got = gr.drop_nyquist(grid, f)
        assert_rel_close(got, of.drop_nyquist_full(grid, f))
        assert np.iscomplexobj(got) == (dtype == "complex")


def linearization(grid, rng, variant):
    omega = tf.random_hermitian_metric(grid, rng, amplitude=0.15, max_mode=1)
    omega0 = tf.random_hermitian_metric(grid, rng, amplitude=0.15, max_mode=1)
    spec = eq.ProblemSpec(grid=grid, variant=variant, omega0=omega0, omega=omega,
                          F=np.zeros(grid.sizes))
    u = tf.random_band_limited_real(grid, rng, amplitude=0.02, max_mode=1).real
    return eq.Linearization(spec, eq.SolveState(u=u, b=0.0))


@pytest.mark.parametrize("key", list(GRIDS), ids=lambda k: f"n{k[0]}-{k[1]}")
def test_linearization_matches_composition(key, rng):
    grid = GRIDS[key]
    variant = eq.Variant.PSI if grid.n == 2 else eq.Variant.PHI
    lin = linearization(grid, rng, variant)
    weights = of.volume_weights(grid, lin.gt)
    f = rng.standard_normal(grid.sizes)
    for method in METHODS:
        with of.derivatives(method):
            assert_rel_close(lin.apply(f), of.apply_composed(lin, f, method))
            assert_rel_close(lin.apply_transpose(f, weights),
                             of.apply_transpose_pairs(lin, f, weights, method))


def test_linearization_rejects_complex_argument(rng):
    grid = GRIDS[(3, "x")]
    lin = linearization(grid, rng, eq.Variant.PHI)
    v = rng.standard_normal(grid.sizes)
    np.testing.assert_array_equal(lin.apply(v + 1e-12j), lin.apply(v))
    with pytest.raises(ValidationError):
        lin.apply(v + 1e-6j)


def test_method_switch_never_reuses_spectral_table(rng):
    grid = GRIDS[(3, "y")]
    u = noise(grid, rng, "real")
    spectral = gr.hessian_complex(grid, u)
    spectral_table = gr.spectral_table(grid)
    with of.derivatives("fd4"):
        assert gr.spectral_table(grid) is not spectral_table
        fd4 = gr.hessian_complex(grid, u)
    assert_rel_close(fd4, of.hessian_composed(grid, u, "fd4"))
    assert gr.sup_norm(fd4 - spectral) > 1e-3 * gr.sup_norm(spectral)
    assert gr.spectral_table(grid) is spectral_table
    np.testing.assert_array_equal(gr.hessian_complex(grid, u), spectral)


class TestIdentitiesOnRandomGrids:
    """The identities the resolved Krylov solves rest on, over random grid shapes."""

    @PROPERTY
    @given(case=property_grids())
    def test_operator_transpose(self, case):
        # sum a L(b) = sum L^T(a) b, with first-order terms; transpose is the
        # inverse transform of transpose_spectrum
        grid, rng = case
        n = grid.n
        shape = grid.sizes
        coeff = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
        first = rng.standard_normal(shape + (n,)) + 1j * rng.standard_normal(shape + (n,))
        op = gr.SecondOrderOperator.from_coefficients(grid, coeff, first)
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        lb = op.apply_spectrum(gr.rfftn(grid, b))
        lta = op.transpose(a)
        np.testing.assert_array_equal(gr.irfftn(grid, op.transpose_spectrum(a)), lta)
        assert abs(np.sum(a * lb) - np.sum(lta * b)) <= 1e-12 * np.sum(np.abs(a * lb))

    @PROPERTY
    @given(case=property_grids())
    def test_parseval_weights(self, case):
        # |w rfftn(v)| = |drop_nyquist(v)|: the resolved coordinates are isometric
        grid, rng = case
        v = rng.standard_normal(grid.sizes)
        w, _ = gr.resolved_weights(grid)
        want = np.linalg.norm(gr.drop_nyquist(grid, v))
        assert abs(np.linalg.norm(w * gr.rfftn(grid, v)) - want) <= 1e-12 * want


class TestTransformCounts:
    """Transforms made from torma.grid; guards against per-axis loops coming back."""

    FORWARD = ("fft", "fftn", "rfft", "rfftn")
    INVERSE = ("ifft", "ifftn", "irfft", "irfftn")

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"forward": 0, "inverse": 0}

        def counted(name, fn):
            kind = "forward" if name in self.FORWARD else "inverse"

            def call(*args, **kwargs):
                if sys._getframe(1).f_globals.get("__name__") == gr.__name__:
                    counts[kind] += 1
                return fn(*args, **kwargs)

            return call

        for name in self.FORWARD + self.INVERSE:
            monkeypatch.setattr(scipy.fft, name, counted(name, getattr(scipy.fft, name)))
        return counts

    def test_hessian_of_real_field(self, counts, rng):
        # all n(n+1)/2 entries from one batched inverse transform
        grid = GRIDS[(3, "x")]
        gr.hessian_complex(grid, rng.standard_normal(grid.sizes))
        assert counts == {"forward": 1, "inverse": 1}

    @pytest.mark.parametrize("key", [(3, "x"), (3, "y")], ids=lambda k: f"n{k[0]}-{k[1]}")
    def test_operator_apply(self, counts, rng, key):
        grid = GRIDS[key]
        lin = linearization(grid, rng, eq.Variant.PHI)
        counts.update(forward=0, inverse=0)
        lin.apply(rng.standard_normal(grid.sizes))
        assert counts == {"forward": 1, "inverse": 1}

    @pytest.mark.parametrize("key", [(3, "x"), (3, "y")], ids=lambda k: f"n{k[0]}-{k[1]}")
    def test_operator_transpose(self, counts, rng, key):
        # every term's coefficient times t through one batched forward transform
        grid = GRIDS[key]
        lin = linearization(grid, rng, eq.Variant.PHI)
        counts.update(forward=0, inverse=0)
        lin.operator.transpose(rng.standard_normal(grid.sizes))
        assert counts == {"forward": 1, "inverse": 1}

    def test_augmented_solve_iteration(self, counts, rng, monkeypatch):
        # one matvec and one preconditioner solve, as in one GMRES iteration:
        # the Nyquist projection and the preconditioner cost no transform
        grid = GRIDS[(3, "y")]
        lin = linearization(grid, rng, eq.Variant.PHI)
        precond = sv.SpectralPreconditioner(grid, lin.coeff_mean)
        seen = {}

        def one_iteration(matvec, psolve, b, rtol, atol):
            counts.update(forward=0, inverse=0)
            matvec(psolve(b))
            seen.update(counts)
            return b, 0, dict(sv.NO_LINEAR_SOLVE)

        def no_projection(*args):
            raise AssertionError("drop_nyquist called")

        monkeypatch.setattr(sv, "_gmres", one_iteration)
        monkeypatch.setattr(gr, "drop_nyquist", no_projection)
        sv._augmented_solve(lin.operator, rng.standard_normal(grid.sizes), precond,
                            sv.SolverConfig(), 1e-3)
        assert seen == {"forward": 1, "inverse": 1}

    def test_adjoint_kernel_iteration(self, counts, rng, monkeypatch):
        # the transposed matvec and the same preconditioner solve make the
        # 2 calls of a Newton iteration; GMRES is stopped after them
        grid = GRIDS[(3, "y")]
        lin = linearization(grid, rng, eq.Variant.PHI)
        seen = {}

        class Stop(Exception):
            pass

        def one_iteration(matvec, psolve, b, rtol, atol):
            x = rng.standard_normal(b.size)
            counts.update(forward=0, inverse=0)
            matvec(psolve(x))
            seen.update(counts)
            raise Stop

        def no_projection(*args):
            raise AssertionError("drop_nyquist called")

        monkeypatch.setattr(sv, "_gmres", one_iteration)
        monkeypatch.setattr(gr, "drop_nyquist", no_projection)
        with pytest.raises(Stop):
            sv.adjoint_kernel(lin.spec, lin.state)
        assert seen == {"forward": 1, "inverse": 1}

    def test_apply_transpose(self, counts, rng):
        grid = GRIDS[(3, "x")]
        lin = linearization(grid, rng, eq.Variant.PHI)
        weights = of.volume_weights(grid, lin.gt)
        counts.update(forward=0, inverse=0)
        lin.apply_transpose(rng.standard_normal(grid.sizes), weights)
        live = len(gr.spectral_table(grid).live)
        assert counts["inverse"] == 1
        assert counts["forward"] + counts["inverse"] <= live ** 2 + 1


@pytest.fixture
def fft_workers():
    """Set the FFT worker count inside a test; the previous one comes back after."""
    before = gr._FFT_WORKERS
    yield gr.set_fft_workers
    gr.set_fft_workers(before)


def test_every_transform_honours_worker_count(fft_workers, monkeypatch):
    # a 32^3 scalar and a 3 x 3 matrix field, each through all four
    # transforms: the set count reaches scipy.fft, with bit-identical output
    grid = gr.TorusGrid.reduced(3, 32)
    seen = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        def recorded(*args, _transform=getattr(scipy.fft, name), workers=None, **kwargs):
            seen.append(workers)
            return _transform(*args, workers=workers, **kwargs)

        monkeypatch.setattr(scipy.fft, name, recorded)
    rng = np.random.default_rng(0)
    fields = (rng.standard_normal(grid.sizes), rng.standard_normal(grid.sizes + (3, 3)))
    results = []
    for workers in (1, -1):
        fft_workers(workers)
        seen.clear()
        out = []
        for f in fields:
            out += [gr.ifftn(grid, gr.fftn(grid, f)), gr.irfftn(grid, gr.rfftn(grid, f))]
        assert seen == [workers] * 8
        results.append(out)
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


def test_solve_bit_identical_across_fft_workers(fft_workers):
    # 16^3 nests through 8^3: every transform of both levels runs on the
    # given worker count
    grid = gr.TorusGrid.default(3)
    prob = manufacture_problem(grid, eq.Variant.PSI, np.random.default_rng(3),
                               amplitude=0.03)
    reports = []
    for workers in (1, -1):
        fft_workers(workers)
        reports.append(sv.continuity_solve(prob.spec))
    one, default = reports
    assert one.converged and default.converged
    assert {tuple(r["sizes"]) for r in one.records} == {grid.sizes, grid.coarsened(2).sizes}
    np.testing.assert_array_equal(one.state.u, default.state.u)
    assert one.state.b == default.state.b
    assert one.records == default.records


class TestInitialPotential:
    @pytest.fixture
    def spec(self):
        grid = gr.TorusGrid.reduced(2, 8)
        flat = np.broadcast_to(np.eye(2, dtype=complex), grid.sizes + (2, 2)).copy()
        return eq.ProblemSpec(grid=grid, variant=eq.Variant.PSI, omega0=flat,
                              omega=flat, F=np.zeros(grid.sizes))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e-6j])
    def test_rejects_non_finite_or_complex(self, spec, bad):
        u0 = np.zeros(spec.grid.sizes, dtype=complex)
        u0[0, 0, 3, 0] = bad
        with pytest.raises(ValidationError):
            sv.initial_state(spec, u0)
        with pytest.raises(ValidationError):
            sv.continuity_solve(spec, u0=u0)

    def test_rejects_wrong_shape(self, spec):
        with pytest.raises(ValidationError):
            sv.initial_state(spec, np.zeros((8, 8)))

    def test_keeps_real_part_within_tolerance(self, spec, rng):
        u0 = 1e-4 * rng.standard_normal(spec.grid.sizes) + 1e-12j
        state = sv.initial_state(spec, u0)
        assert state.u.dtype == np.float64
        np.testing.assert_allclose(state.u, u0.real - np.mean(u0.real), rtol=0, atol=1e-15)


class TestLinearizationPositivity:
    def test_cholesky_check_skips_eigenvalues(self, monkeypatch, rng):
        grid = GRIDS[(3, "x")]
        lin = linearization(grid, rng, eq.Variant.PSI)
        calls = []
        original = ha.min_eigenvalue
        monkeypatch.setattr(ha, "min_eigenvalue", lambda a: calls.append(1) or original(a))
        eq.Linearization(lin.spec, lin.state, gt=lin.gt)
        assert calls == []

    def test_non_positive_metric_reports_min_eigenvalue(self, rng):
        grid = GRIDS[(3, "x")]
        lin = linearization(grid, rng, eq.Variant.PSI)
        gt = lin.gt.copy()
        gt[3, 0, 2, 0, 1, 0] = -np.eye(3)
        with pytest.raises(PositivityError, match="min eig -1.000e"):
            eq.Linearization(lin.spec, lin.state, gt=gt)
