"""Spectral calculus on the periodic torus grid."""

import numpy as np
import pytest

from torma import grid as gr
from torma import hermitian as ha
from torma.errors import ValidationError

from . import oracle_forms as of


@pytest.fixture
def g2():
    # n=2, two active coordinates (x1, x2) at 32 nodes
    return gr.TorusGrid.reduced(2, 32)


@pytest.fixture
def g3():
    return gr.TorusGrid.reduced(3, 16)


def band_limited_real(grid, rng, modes=3, scale=1.0):
    """Random real trigonometric field supported on low modes of active axes."""
    f = np.zeros(grid.sizes)
    for _ in range(4):
        term = np.ones(grid.sizes)
        for axis in grid.active_axes:
            k = rng.integers(1, modes + 1)
            phase = rng.uniform(0, 2 * np.pi)
            term = term * np.cos(2 * np.pi * k * grid.coordinate(axis) + phase)
        f = f + rng.normal() * term
    return scale * f.astype(np.complex128)


class TestGridConstruction:
    def test_sizes_validation(self):
        with pytest.raises(ValidationError):
            gr.TorusGrid(2, (32, 32, 32))  # wrong count
        with pytest.raises(ValidationError):
            gr.TorusGrid(2, (32, 1, 3, 1))  # not a power of two
        with pytest.raises(ValidationError):
            gr.TorusGrid(5, (4,) * 10)  # n out of range

    def test_reduced_grid(self, g3):
        assert g3.sizes == (16, 1, 16, 1, 16, 1)
        assert g3.active_axes == (0, 2, 4)
        assert g3.num_nodes == 16 ** 3

    def test_default_grids(self):
        assert gr.TorusGrid.default(2).sizes == (32, 1, 32, 1)
        assert gr.TorusGrid.default(3).sizes == (16, 1, 16, 1, 16, 1)

    def test_coarsened_halves_active_axes(self, g3):
        assert g3.coarsened(2).sizes == (8, 1, 8, 1, 8, 1)
        assert gr.TorusGrid(2, (16, 1, 32, 8)).coarsened(2).sizes == (8, 1, 16, 4)
        assert g3.coarsened(2).refined(2) == g3
        with pytest.raises(ValidationError):
            gr.TorusGrid.reduced(2, 4).coarsened(2)  # active axes stay >= 4

    def test_node_budget(self, monkeypatch):
        with pytest.raises(ValidationError):
            gr.TorusGrid(4, (1024,) * 8)
        monkeypatch.setattr(gr, "MAX_NODES", 100)
        with pytest.raises(ValidationError):
            gr.TorusGrid.reduced(2, 16)


class TestDerivatives:
    def test_fourier_mode_example(self, g2):
        # f = exp(2 pi i x1): d_1 f = pi i f and d_1bar f = pi i f
        f = np.exp(2j * np.pi * g2.coordinate(0))
        np.testing.assert_allclose(gr.d_holo(g2, f, 0), 1j * np.pi * f, atol=1e-12)
        np.testing.assert_allclose(gr.d_antiholo(g2, f, 0), 1j * np.pi * f, atol=1e-12)

    def test_constant(self, g2):
        f = np.full(g2.sizes, 2.7, dtype=complex)
        assert gr.sup_norm(gr.d_holo(g2, f, 1)) < 1e-14

    def test_conjugation_symmetry(self, g2, rng):
        f = band_limited_real(g2, rng)
        for i in range(2):
            np.testing.assert_allclose(
                np.conj(gr.d_holo(g2, f, i)), gr.d_antiholo(g2, np.conj(f), i), atol=1e-12
            )

    def test_inactive_axis_is_exactly_zero(self, g3):
        f = band_limited_real(g3, np.random.default_rng(0))
        d = of.deriv_real(g3, f, 1)  # y1 is inactive
        assert np.all(d == 0)

    def test_mixed_mode_multiplier(self):
        # full (non-reduced) grid in n=2; f = exp(2 pi i (2 x1 - y2))
        grid = gr.TorusGrid(2, (8, 8, 8, 8))
        x1, y2 = grid.coordinate(0), grid.coordinate(3)
        f = np.exp(2j * np.pi * (2 * x1 - y2))
        # d_2 = (d/dx2 - i d/dy2)/2 -> (0 - i * (-2 pi i)) / 2 = -pi
        np.testing.assert_allclose(gr.d_holo(grid, f, 1), -np.pi * f, atol=1e-12)
        np.testing.assert_allclose(gr.d_antiholo(grid, f, 1), np.pi * f, atol=1e-12)

    def test_fd4_cross_check(self):
        grid = gr.TorusGrid.reduced(2, 64)
        f = np.exp(np.cos(2 * np.pi * grid.coordinate(0))).astype(complex)
        spectral = gr.d_holo(grid, f, 0)
        with of.derivatives("fd4"):
            fd = gr.d_holo(grid, f, 0)
        assert gr.sup_norm(fd - spectral) < 1e-3


class TestHessianLaplacian:
    def test_cosine_hessian(self, g2):
        u = np.cos(2 * np.pi * g2.coordinate(0)).astype(complex)
        hess = gr.hessian_complex(g2, u)
        want = -np.pi ** 2 * np.cos(2 * np.pi * g2.coordinate(0))
        np.testing.assert_allclose(hess[..., 0, 0], want, atol=1e-11)
        assert gr.sup_norm(hess[..., 0, 1]) < 1e-12
        assert gr.sup_norm(hess[..., 1, 1]) < 1e-12

    def test_constant_hessian(self, g3):
        u = np.full(g3.sizes, 1.23, dtype=complex)
        assert gr.sup_norm(gr.hessian_complex(g3, u)) < 1e-14

    def test_real_gives_hermitian(self, g2, rng):
        u = band_limited_real(g2, rng)
        hess = gr.hessian_complex(g2, u)
        assert gr.sup_norm(hess - np.conj(np.swapaxes(hess, -1, -2))) < 1e-12

    def test_flat_laplacian_cosine(self, g2):
        u = np.cos(2 * np.pi * g2.coordinate(0)).astype(complex)
        flat = np.broadcast_to(np.eye(2, dtype=complex), g2.sizes + (2, 2))
        lap = gr.laplacian(g2, flat, u)
        np.testing.assert_allclose(lap, -np.pi ** 2 * np.cos(2 * np.pi * g2.coordinate(0)), atol=1e-11)

    def test_laplacian_zero_mean_and_linearity(self, g2, rng):
        flat = np.broadcast_to(np.eye(2, dtype=complex), g2.sizes + (2, 2))
        u = band_limited_real(g2, rng)
        v = band_limited_real(g2, rng)
        assert abs(gr.mean(g2, gr.laplacian(g2, flat, u))) < 1e-13
        lhs = gr.laplacian(g2, flat, 2.0 * u + 0.5 * v)
        rhs = 2.0 * gr.laplacian(g2, flat, u) + 0.5 * gr.laplacian(g2, flat, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestReductions:
    def test_constant_field(self, g2):
        f = np.full(g2.sizes, -0.4, dtype=complex)
        flat = np.broadcast_to(np.eye(2, dtype=complex), g2.sizes + (2, 2))
        assert gr.mean(g2, f) == pytest.approx(-0.4)
        assert gr.sup_norm(f) == pytest.approx(0.4)
        assert gr.sup_norm(gr.grad_norm_sq(g2, flat, f)) < 1e-14

    def test_gradient_norm_example(self, g2):
        # f = cos(2 pi x1): |grad f|^2 = pi^2 sin^2(2 pi x1), sup = pi^2
        f = np.cos(2 * np.pi * g2.coordinate(0)).astype(complex)
        flat = np.broadcast_to(np.eye(2, dtype=complex), g2.sizes + (2, 2))
        gsq = gr.grad_norm_sq(g2, flat, f)
        want = np.pi ** 2 * np.sin(2 * np.pi * g2.coordinate(0)) ** 2
        np.testing.assert_allclose(gsq, want, atol=1e-11)
        assert gsq.min() >= -1e-15

    def test_parseval(self, g2, rng):
        f = band_limited_real(g2, rng)
        phys = gr.mean(g2, np.abs(f) ** 2)
        fh = np.fft.fftn(f, axes=g2.active_axes) / g2.num_nodes
        spec = np.sum(np.abs(fh) ** 2)
        assert abs(phys - spec) < 1e-12

    def test_integral_flat_volume(self, g3):
        flat = np.broadcast_to(np.eye(3, dtype=complex), g3.sizes + (3, 3))
        # int omega^n = n! 2^n on the unit torus for the flat metric
        assert np.sum(gr.volume_weights(g3, flat)) == pytest.approx(48.0)


class TestResample:
    def test_band_limited_refinement_exact(self, g2, rng):
        f = band_limited_real(g2, rng).real
        fine = g2.refined(2)
        ff = gr.resample(g2, f, fine)
        # compare against direct sampling of the same trig field
        x0, x1 = fine.coordinate(0), fine.coordinate(2)
        # build the same field by resampling back
        back = gr.resample(fine, ff, g2)
        np.testing.assert_allclose(back, f, atol=1e-12)
        assert ff.shape == fine.sizes

    def test_refine_then_coarsen_roundtrip(self, g3, rng):
        f = band_limited_real(g3, rng).real
        fine = g3.refined(2)
        back = gr.resample(fine, gr.resample(g3, f, fine), g3)
        np.testing.assert_allclose(back, f, atol=1e-12)

    # x-only and y-containing active axes; the last active axis is the one
    # whose Nyquist plane the half spectrum holds once
    @pytest.mark.parametrize("sizes", [(16, 1, 8, 1), (8, 1, 1, 16, 1, 1), (1, 8, 16, 1)],
                             ids=["x", "x-y", "y-x"])
    @pytest.mark.parametrize("first", [0.5, 1, 2])
    @pytest.mark.parametrize("last", [0.5, 1, 2])
    def test_white_noise_matches_complex_route(self, rng, sizes, first, last):
        # white noise fills the Nyquist blocks, where the real route splits a
        # -m/2 placement from its mirror
        grid = gr.TorusGrid(len(sizes) // 2, sizes)
        out = list(sizes)
        out[grid.active_axes[0]] = int(first * sizes[grid.active_axes[0]])
        out[grid.active_axes[-1]] = int(last * sizes[grid.active_axes[-1]])
        out_grid = gr.TorusGrid(grid.n, tuple(out))
        f = rng.standard_normal(sizes + (2,))
        ref = of.resample_complex(grid, f, out_grid)
        np.testing.assert_allclose(gr.resample(grid, f, out_grid), ref.real,
                                   rtol=0, atol=1e-14 * np.max(np.abs(ref)))
        a = rng.standard_normal(sizes + (grid.n, grid.n, 2)) @ np.array([1.0, 1j])
        g = a + np.conj(np.swapaxes(a, -1, -2))
        ref = ha.hermitize(of.resample_complex(grid, g, out_grid))
        np.testing.assert_allclose(gr.resample_hermitian(grid, g, out_grid), ref,
                                   rtol=0, atol=1e-14 * np.max(np.abs(ref)))

    def test_rejects_complex_field(self, g2):
        with pytest.raises(ValidationError, match="real"):
            gr.resample(g2, np.zeros(g2.sizes, dtype=complex), g2.refined(2))