"""Closed-form test fields: the warped scalar's Hessian."""

import tracemalloc

import numpy as np
import pytest

from torma import grid as gr
from torma import testfields as tf


def hessian_out_of_place(u, grid):
    """A exp(B)'s Hessian as one expression of field-sized temporaries."""
    a = u.amp.sample(grid)
    e = np.exp(u.warp.sample(grid).real)
    da = u.amp.gradient(grid)
    db = u.warp.gradient(grid)
    da_bar = np.conj(da)
    db_bar = np.conj(db)
    out = (
        u.amp.hessian(grid)
        + da[..., :, None] * db_bar[..., None, :]
        + db[..., :, None] * da_bar[..., None, :]
        + a[..., None, None] * u.warp.hessian(grid)
        + a[..., None, None] * db[..., :, None] * db_bar[..., None, :]
    )
    return out * e[..., None, None]


@pytest.mark.parametrize("n,size,active", [(2, 16, (0, 1, 2)), (3, 8, (0, 2, 4)), (4, 4, (0, 3, 5))])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_warped_hessian_in_place_bit_identical(n, size, active, seed):
    grid = gr.TorusGrid.reduced(n, size, active_coords=active)
    u = tf.random_warped_scalar(n, np.random.default_rng(seed), active_coords=active)
    np.testing.assert_array_equal(u.hessian(grid), hessian_out_of_place(u, grid))


def test_warped_hessian_allocation_bound():
    # 32^3, n = 3, the psi benchmark's grid: one complex matrix field is
    # 4.7 MB. Accumulating in place peaks at 18.6 MB (the two Hessians, the
    # gradients and their conjugates, and the warp's Hessian being built);
    # the out-of-place sum peaked at 27.8 MB.
    grid = gr.TorusGrid.reduced(3, 32, active_coords=(0, 2, 4))
    u = tf.random_warped_scalar(3, np.random.default_rng(5), active_coords=grid.active_axes)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u.hessian(grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 20.0e6
