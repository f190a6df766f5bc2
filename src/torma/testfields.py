"""Analytic field families: trigonometric scalars, exp-conformal metrics,
pluriclosed (astheno-Kahler) constructions, and random smooth samples.

Two uses:

* manufactured problems: data F* is generated from closed-form derivatives of
  these families (no FFTs), so solver recovery error measures genuine spectral
  truncation rather than a tautological discrete identity;
* test metrics with known structure (Kahler potentials, pluriclosed trick
  omega = c I + dbar(gamma) + d(gammabar), conformal families).

Wavevectors are integer tuples of length 2n over the real coordinates
(x_1, y_1, ..., x_n, y_n); a term (c, k) stands for c exp(2 pi i k.x).
Hermitian objects carry conjugate term pairs automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid as gr
from . import hermitian as ha


def _phase(grid, kvec):
    theta = np.zeros(grid.sizes)
    for axis, k in enumerate(kvec):
        if k:
            theta = theta + k * grid.coordinate(axis)
    return np.exp(2j * np.pi * theta)


def _holo_factor(kvec, j):
    """d_j of exp(2 pi i k.x) divided by the exponential: i pi (k_x - i k_y)."""
    return 1j * np.pi * (kvec[2 * j] - 1j * kvec[2 * j + 1])


def _antiholo_factor(kvec, j):
    return 1j * np.pi * (kvec[2 * j] + 1j * kvec[2 * j + 1])


@dataclass
class TrigScalar:
    """Real trigonometric polynomial sum_m Re(c_m exp(2 pi i k_m . x))."""

    n: int
    terms: list = field(default_factory=list)  # (complex coeff, kvec)

    def add(self, coeff, kvec):
        self.terms.append((complex(coeff), tuple(int(k) for k in kvec)))
        return self

    def scaled(self, factor):
        return TrigScalar(self.n, [(factor * c, k) for c, k in self.terms])

    def _pairs(self):
        # each Re-term contributes (c/2) e^{i theta} + (cbar/2) e^{-i theta}
        for c, k in self.terms:
            yield 0.5 * c, k
            yield 0.5 * np.conj(c), tuple(-x for x in k)

    def sample(self, grid):
        out = np.zeros(grid.sizes, dtype=np.complex128)
        for c, k in self._pairs():
            out += c * _phase(grid, k)
        return out

    def gradient(self, grid):
        """Holomorphic gradient d_j f, shape grid.shape + (n,)."""
        out = np.zeros(grid.sizes + (self.n,), dtype=np.complex128)
        for c, k in self._pairs():
            e = c * _phase(grid, k)
            for j in range(self.n):
                out[..., j] += _holo_factor(k, j) * e
        return out

    def hessian(self, grid):
        """d_i d_jbar f, shape grid.shape + (n, n)."""
        out = np.zeros(grid.sizes + (self.n, self.n), dtype=np.complex128)
        for c, k in self._pairs():
            e = c * _phase(grid, k)
            for i in range(self.n):
                fi = _holo_factor(k, i)
                for j in range(self.n):
                    out[..., i, j] += fi * _antiholo_factor(k, j) * e
        return out


@dataclass
class WarpedTrigScalar:
    """u = A exp(B) for real trig polynomials A, B: analytic, full spectrum.

    Closed-form Wirtinger derivatives via product/chain rules on the TrigScalar
    pieces; used where manufactured data must carry genuine spectral tails.
    """

    amp: TrigScalar
    warp: TrigScalar

    @property
    def n(self):
        return self.amp.n

    def scaled(self, factor):
        return WarpedTrigScalar(self.amp.scaled(factor), self.warp)

    def sample(self, grid):
        return self.amp.sample(grid) * np.exp(self.warp.sample(grid).real)

    def gradient(self, grid):
        a = self.amp.sample(grid)
        e = np.exp(self.warp.sample(grid).real)
        da = self.amp.gradient(grid)
        db = self.warp.gradient(grid)
        return (da + a[..., None] * db) * e[..., None]

    def hessian(self, grid):
        a = self.amp.sample(grid)
        e = np.exp(self.warp.sample(grid).real)
        da = self.amp.gradient(grid)
        db = self.warp.gradient(grid)
        da_bar = np.conj(da)  # A real
        db_bar = np.conj(db)
        # ha + da db* + db da* + a hb + (a db) db*, summed left to right in
        # place; the outer products are taken entry by entry, so the two
        # Hessians are the only matrix fields held
        out = self.amp.hessian(grid)
        a_hb = self.warp.hessian(grid)
        np.multiply(a[..., None, None], a_hb, out=a_hb)
        a_db = a[..., None] * db
        for i in range(self.n):
            for j in range(self.n):
                entry = out[..., i, j]
                entry += da[..., i] * db_bar[..., j]
                entry += db[..., i] * da_bar[..., j]
        out += a_hb
        del a_hb
        for i in range(self.n):
            for j in range(self.n):
                out[..., i, j] += a_db[..., i] * db_bar[..., j]
        out *= e[..., None, None]
        return out


def random_warped_scalar(n, rng, amplitude=1.0, max_mode=2, warp_amplitude=1.0,
                         warp_max_mode=2, active_coords=None):
    """Random A exp(B) scalar with sup-norm roughly `amplitude`."""
    amp = random_trig_scalar(n, rng, amplitude=amplitude, max_mode=max_mode,
                             active_coords=active_coords)
    warp = random_trig_scalar(n, rng, amplitude=warp_amplitude, max_mode=warp_max_mode,
                              active_coords=active_coords)
    return WarpedTrigScalar(amp, warp)


def random_trig_scalar(n, rng, amplitude=1.0, max_mode=2, num_terms=4, active_coords=None):
    """Mean-zero real trig polynomial on the active coordinates."""
    if active_coords is None:
        active_coords = tuple(2 * j for j in range(n))
    f = TrigScalar(n)
    for _ in range(num_terms):
        k = [0] * (2 * n)
        while not any(k):
            for a in active_coords:
                k[a] = int(rng.integers(-max_mode, max_mode + 1))
        c = (rng.normal() + 1j * rng.normal()) * amplitude / num_terms
        f.add(c, k)
    return f


@dataclass
class AnalyticMetric:
    """Hermitian metric g = exp(sigma) * B with analytic derivatives.

    sigma is a TrigScalar (real) and B a band-limited Hermitian matrix
    polynomial sum_m Re-pair(c_m exp(2 pi i k_m.x) M_m) + const. The
    exponential factor makes the entries analytic but not band-limited, which
    is what drives genuine spectral convergence in manufactured runs.
    """

    n: int
    sigma: TrigScalar
    const: np.ndarray
    terms: list = field(default_factory=list)  # (complex coeff, kvec, matrix)

    @classmethod
    def flat(cls, n):
        return cls(n=n, sigma=TrigScalar(n), const=np.eye(n, dtype=np.complex128))

    def add_term(self, coeff, kvec, matrix):
        """Adds Re(coeff e^{2 pi i k.x} M) + its Hermitian transpose partner."""
        self.terms.append((complex(coeff), tuple(int(k) for k in kvec), np.asarray(matrix, dtype=np.complex128)))
        return self

    def _pairs(self):
        for c, k, m in self.terms:
            yield 0.5 * c, k, m
            yield 0.5 * np.conj(c), tuple(-x for x in k), np.conj(m.T)

    def _base(self, grid):
        out = np.zeros(grid.sizes + (self.n, self.n), dtype=np.complex128)
        out += self.const
        for c, k, m in self._pairs():
            out += (c * _phase(grid, k))[..., None, None] * m
        return out

    def _dbar_base(self, grid):
        out = np.zeros(grid.sizes + (self.n, self.n, self.n), dtype=np.complex128)
        for c, k, m in self._pairs():
            e = c * _phase(grid, k)
            for kk in range(self.n):
                out[..., kk, :, :] += (_antiholo_factor(k, kk) * e)[..., None, None] * m
        return out

    def sample(self, grid):
        conf = np.exp(self.sigma.sample(grid).real)
        return conf[..., None, None] * self._base(grid)

    def dbar_tensor(self, grid):
        """Analytic dbar_g[..., k, i, j] = d_kbar g_{i jbar}."""
        conf = np.exp(self.sigma.sample(grid).real)
        dsig = np.conj(self.sigma.gradient(grid))  # d_kbar sigma for real sigma
        base = self._base(grid)
        dbase = self._dbar_base(grid)
        out = dbase.copy()
        for kk in range(self.n):
            out[..., kk, :, :] += dsig[..., kk, None, None] * base
        return conf[..., None, None, None] * out


def random_analytic_metric(n, rng, amplitude=0.2, max_mode=2, num_terms=4,
                           conformal_amplitude=0.0, active_coords=None):
    """Random Hermitian-positive AnalyticMetric: exp(sigma)(I + trig perturbation)."""
    if active_coords is None:
        active_coords = tuple(2 * j for j in range(n))
    sigma = TrigScalar(n)
    if conformal_amplitude:
        sigma = random_trig_scalar(
            n, rng, amplitude=conformal_amplitude, max_mode=max_mode,
            active_coords=active_coords,
        )
    metric = AnalyticMetric(n=n, sigma=sigma, const=np.eye(n, dtype=np.complex128))
    for _ in range(num_terms):
        k = [0] * (2 * n)
        while not any(k):
            for a in active_coords:
                k[a] = int(rng.integers(-max_mode, max_mode + 1))
        c = (rng.normal() + 1j * rng.normal()) * amplitude / num_terms
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        metric.add_term(c, k, m / np.abs(m).max())
    return metric


def kahler_perturbation(grid, phi_field):
    """omega = I + i ddbar(phi): closed (Kahler), torsion-free test metric."""
    hess = gr.hessian_complex(grid, phi_field)
    g = np.zeros(grid.sizes + (grid.n, grid.n), dtype=np.complex128)
    g += np.eye(grid.n)
    g += hess
    ha.require_positive(g, "Kahler perturbation")
    return g


def pluriclosed_metric(grid, gamma_fields, scale=1.0):
    """omega = scale I + dbar(gamma) + d(gammabar) for a (1,0)-form gamma.

    ddbar-exactness of both pieces makes ddbar(omega) = 0 identically, so for
    n = 3 the metric is astheno-Kahler; it is not Kahler for generic gamma.
    gamma_fields is a sequence of n complex scalar fields (the components
    gamma_i of gamma = gamma_i dz^i).
    """
    n = grid.n
    a = np.zeros(grid.sizes + (n, n), dtype=np.complex128)
    for i, gam in enumerate(gamma_fields):
        for j in range(n):
            a[..., i, j] = 1j * gr.d_antiholo(grid, gam, j)
    g = a + np.conj(np.swapaxes(a, -1, -2))
    g += scale * np.eye(n)
    ha.require_positive(g, "pluriclosed metric")
    return g


def random_band_limited_real(grid, rng, amplitude=1.0, max_mode=2, num_terms=4):
    return random_trig_scalar(
        grid.n, rng, amplitude=amplitude, max_mode=max_mode, num_terms=num_terms,
        active_coords=grid.active_axes,
    ).sample(grid).real.astype(np.complex128)


def random_hermitian_metric(grid, rng, amplitude=0.2, max_mode=2):
    """I + small random trig Hermitian perturbation (sampled, band-limited)."""
    metric = random_analytic_metric(
        grid.n, rng, amplitude=amplitude, max_mode=max_mode,
        active_coords=grid.active_axes,
    )
    g = metric.sample(grid)
    ha.require_positive(g, "random Hermitian metric")
    return g
