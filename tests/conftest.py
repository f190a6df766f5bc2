import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from torma import geometry as geo
from torma import grid as gr
from torma import hermitian as ha
from torma import solver as sv
from torma import testfields as tf


@pytest.fixture
def rng():
    return np.random.default_rng(20240 + 7)


def random_complex(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hermitian(rng, n, scale=1.0, shape=()):
    a = random_complex(rng, *shape, n, n, scale=scale)
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def random_positive(rng, n, shape=(), spread=1.0):
    """Random Hermitian positive-definite matrices with O(1) conditioning."""
    a = random_complex(rng, *shape, n, n, scale=spread)
    return a @ np.conj(np.swapaxes(a, -1, -2)) + 0.5 * np.eye(n)


def ricci_input(grid, seed):
    """A prescribed-Ricci input as the benchmark draws it: an astheno-Kahler
    omega, a Gauduchon omega_0 and psi in the class of Ric(omega)."""
    rng = np.random.default_rng([seed, 0])
    gammas = [0.04 * tf.random_band_limited_real(grid, rng, max_mode=1) for _ in range(3)]
    omega = tf.pluriclosed_metric(grid, gammas)
    raw = tf.random_hermitian_metric(grid, rng, amplitude=0.15, max_mode=1)
    phi = 0.2 * tf.random_band_limited_real(grid, rng, max_mode=1)
    phi -= phi.mean()
    psi = ha.hermitize(geo.chern_ricci(grid, omega) - gr.hessian_complex(grid, phi))
    omega0 = np.exp(sv.gauduchon_factor(grid, raw, tol=1e-11))[..., None, None] * raw
    return omega, omega0, psi


# grids of n = 2-4 with any non-empty set of active axes, each of 4, 8 or 16
# nodes, at most max_nodes in all (8 active axes of 4 nodes fit the default)
PROPERTY_NODES = 4 ** 8


@st.composite
def property_grids(draw, max_nodes=PROPERTY_NODES):
    n = draw(st.integers(2, 4))
    # each active axis takes at least 4 nodes
    most = (max_nodes.bit_length() - 1) // 2
    bound = {} if most >= 2 * n else {"max_size": most}
    active = sorted(draw(st.sets(st.integers(0, 2 * n - 1), min_size=1, **bound)))
    sizes = [1] * (2 * n)
    for k, axis in enumerate(active):
        # leave 4 nodes for each active axis still to size
        room = max_nodes // (math.prod(sizes) * 4 ** (len(active) - k - 1))
        sizes[axis] = draw(st.sampled_from([s for s in (4, 8, 16) if s <= room]))
    return gr.TorusGrid(n, tuple(sizes)), np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
