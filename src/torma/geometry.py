"""Chern connection, curvature, and closedness defects of Hermitian metric fields.

Index conventions follow T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji} and
R_{l mbar i}^p = -d_mbar Gamma^p_{li} with Gamma^k_{ij} = g^{k qbar} d_i g_{j qbar}.
Array layouts:

    gamma[..., k, i, j]      Gamma^k_{ij}
    torsion[..., k, i, j]    T^k_{ij}
    curvature[..., l, m, i, p]   R_{l mbar i}^p
    dbar_g[..., k, i, j]     d_kbar g_{i jbar}

and ddbar_g[l, k, i, j] = d_l d_kbar g_{i jbar}, which no function holds
whole: its (l, k) slices are taken one at a time, each one inverse
transform of the metric's entrywise spectrum.

Every ddbar defect is the divergence of a flat dual (docs/conventions.md,
"ddbar of wedge powers"): i ddbar of an (n-1,n-1)-form is
sum_{l,k} d_l d_kbar of entry [k, l] of its dual relative to the flat
metric. With A = g^{-1} and D = det g, the dual of omega^{n-1} is (n-1)! D A
(the cofactor matrix), and those of sigma ^ omega^{n-2} and of
omega^{n-2} ^ E_ab are (n-2)! times contractions of

    C_{ba,kl} = D (A_ba A_kl - A_ka A_bl),

which by Jacobi's complementary-minor identity is a signed (n-2)-minor of
g itself (:func:`_cofactor_minors`). The Gauduchon scalar expands d_l d_kbar
(D A) by the product rule (:func:`_gauduchon_sum`); the astheno dual and
ddbar_scalar(sigma) expand d_l d_kbar of products of entries of g and sigma
(:func:`_ddbar_product`), with no g^{-1}. All of them are entrywise kernels
in hermitian's layout (matrix axes first, every entry a contiguous node
field; Python loops over matrix entries only), and no n^4 array exists. What
depends on the metric alone (g^{-1}, log det g, dbar_g, the spectrum) is
built at most once per MetricFields.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import grid as gr
from . import hermitian as ha
from .errors import ValidationError


@dataclass
class ConnectionData:
    """Chern connection coefficients, torsion, and curvature as index fields."""

    gamma: np.ndarray
    torsion: np.ndarray
    curvature: np.ndarray

    def torsion_sup(self):
        return float(np.max(np.abs(self.torsion)))


def christoffel(metric):
    """(Gamma^k_{ij}, T^k_{ij}) of a :class:`MetricFields`: the Chern
    connection and its torsion, without the curvature."""
    # d_g[..., c, a, b] = d_c g_{a bbar} = conj(d_cbar g_{b abar})
    d_g = np.conj(np.swapaxes(metric.dbar_field, -1, -2))
    # g^{k qbar} realizes index raising via the transposed inverse
    gamma = np.einsum("...kq,...ijq->...kij", np.swapaxes(metric.gi, -1, -2), d_g)
    return gamma, gamma - np.swapaxes(gamma, -1, -2)


def chern_connection(grid, omega):
    """Connection Gamma^k_{ij}, torsion T^k_{ij}, curvature R_{l mbar i}^p."""
    gamma, torsion = christoffel(MetricFields(grid, omega))
    dbar_gamma = np.stack([gr.d_antiholo(grid, gamma, m) for m in range(grid.n)], axis=-4)
    # dbar_gamma[..., m, p, l, i] = d_mbar Gamma^p_{li}; reorder to R[..., l, m, i, p]
    curvature = -np.transpose(dbar_gamma, axes=(*range(dbar_gamma.ndim - 4), -2, -4, -1, -3))
    return ConnectionData(gamma=gamma, torsion=torsion, curvature=curvature)


def chern_ricci(grid, omega):
    """Chern-Ricci form -d_i d_jbar log det g as a Hermitian field."""
    return MetricFields(grid, omega).ricci()


# ---------------------------------------------------------------------------
# entrywise kernels
#
# The ddbar contractions work in hermitian's entrywise layout: matrix axes
# first, then the node axes, so every matrix entry is a contiguous node
# field. Python loops run over matrix entries only; every operation inside
# them is vectorized over all nodes.

def _entries(x, axes=2):
    """The contiguous entrywise (matrix axes, *nodes) array of a (*nodes,
    matrix axes) field; no copy for a field view of an entrywise buffer
    (ha.inverse)."""
    return np.ascontiguousarray(ha.entrywise(x, axes))


def _apply(a, t, axis=0):
    """sum_i a_xi t[.., i, ..]: the matrix field a applied to matrix axis
    `axis` of the entrywise tensor t (a t for axis 0 of a matrix), entry by
    entry."""
    t = np.moveaxis(t, axis, 0)
    out = np.empty((a.shape[0],) + t.shape[1:], dtype=np.result_type(a, t))
    for x in range(a.shape[0]):
        for rest in np.ndindex(t.shape[1:t.ndim - a.ndim + 2]):
            entry = out[(x,) + rest]
            np.multiply(a[x, 0], t[(0,) + rest], out=entry)
            for i in range(1, a.shape[1]):
                entry += a[x, i] * t[(i,) + rest]
    return np.moveaxis(out, 0, axis)


def _trace_product(a, b):
    """tr(a b) = sum_ij a_ij b_ji of entrywise matrices."""
    n = a.shape[0]
    out = a[0, 0] * b[0, 0]
    for i in range(n):
        for j in range(n):
            if i or j:
                out += a[i, j] * b[j, i]
    return out


def _node_axes(grid):
    """The active axes of an entrywise array, counted from its end."""
    return tuple(a - len(grid.sizes) for a in grid.active_axes)


def _spectrum(grid, s):
    """The entrywise spectrum of a matrix field: every slice d_l d_kbar s is
    one inverse transform of it (:func:`_pair_slices`)."""
    return gr.fftn(grid, _entries(s), _node_axes(grid))


def _pair_slices(grid, spectrum):
    """(l, k, d_l d_kbar s) for the live pairs l <= k, from the entrywise
    spectrum of s: one inverse transform per pair, dropped by the caller
    after it. For Hermitian s the (k, l) slice is the adjoint of the (l, k)
    one; slices of a coordinate the grid does not resolve vanish."""
    hol, antih = gr.wirtinger_symbols(grid), gr.wirtinger_symbols(grid, anti=True)
    for l, k in itertools.combinations_with_replacement(gr.spectral_table(grid).live, 2):
        yield l, k, gr.ifftn(grid, spectrum * (hol[l] * antih[k]), _node_axes(grid))


def _dbar_entries(grid, s):
    """dbar[k, i, j] = d_kbar s_{i jbar} of the entrywise field s; zero for a
    coordinate the grid does not resolve. Each derivative transforms over its
    own coordinate's axes only, which for n >= 2 costs less than inverse
    transforms of the whole spectrum."""
    antih = gr.wirtinger_symbols(grid, anti=True)
    out = np.zeros((grid.n,) + s.shape, dtype=np.complex128)
    nodes = len(grid.sizes)
    for k in gr.spectral_table(grid).live:
        axes = tuple(a - nodes for a in (2 * k, 2 * k + 1) if grid.sizes[a] > 1)
        spectrum = gr.fftn(grid, s, axes)
        spectrum *= antih[k]
        out[k] = gr.ifftn(grid, spectrum, axes)
    return out


def _gauduchon_sum(grid, gi, dbar, spectrum):
    """Re sum_{l,k} [D^{-1} d_l d_kbar (D A)]_{kl} for A = g^{-1} and D = det g,
    the Gauduchon scalar over (n-1)!: D A is the flat dual of omega^{n-1}
    (the cofactor matrix), and i ddbar of that form is the divergence
    sum d_i d_jbar of its dual's entries.

    By the product rule, with Y = A d_kbar g, X = A d_l g and H = d_l d_kbar g,

        D^{-1} d_l d_kbar (D A) = (tr X tr Y + tr(A H) - tr(X Y)) A
            - tr X (Y A) - tr Y (X A) + X Y A + Y X A - A H A,

    where d_l g = (d_lbar g)^*, tr X = conj(tr Y_l), Y A = B_k = A d_kbar g A,
    X A = B_l^* and tr(X Y) = tr(d_l g B_k). Only entry [k, l] of each
    matrix is taken: rows k of X, of Y X = B_k d_l g and of A H, against
    column l of B_k and of A. The (k, l) term is the conjugate of the
    (l, k) one, so the pairs l <= k are summed, those off the diagonal
    twice; H is one inverse transform of g's entrywise spectrum per pair,
    and dropped after it. gi and dbar are entrywise.
    """
    live = gr.spectral_table(grid).live
    gi_t = np.swapaxes(gi, 0, 1)
    tr_y = {k: _trace_product(gi, dbar[k]) for k in live}
    b = {k: _apply(gi, _apply(gi_t, dbar[k], 1)) for k in live}
    rho = np.zeros(gi.shape[2:])
    for l, k, h in _pair_slices(grid, spectrum):
        d_l = np.conj(np.swapaxes(dbar[l], 0, 1))
        tr_x = np.conj(tr_y[l])
        scalar = tr_x * tr_y[k] + _trace_product(gi, h) - _trace_product(d_l, b[k])
        entry = scalar * gi[k, l] - tr_x * b[k][k, l] - tr_y[k] * np.conj(b[l][l, k])
        x_row = _apply(gi[k][None], d_l)[0]
        yx_row = _apply(b[k][k][None], d_l)[0]
        yx_row -= _apply(gi[k][None], h)[0]
        for m in range(gi.shape[0]):
            entry += x_row[m] * b[k][m, l] + yx_row[m] * gi[m, l]
        rho += entry.real if l == k else 2.0 * entry.real
    return rho


def _cofactor_minors(n, l, k):
    """The entries C_{ba,kl} = D (A_ba A_kl - A_ka A_bl) of the minors tensor
    (A = g^{-1}, D = det g) as polynomials in the entries of g.

    The bracket is the minor of A on rows (b, k) and columns (a, l), so by
    Jacobi's complementary-minor identity C_{ba,kl} vanishes for a = l or
    b = k and is otherwise (-1)^{a+l+b+k} s(b, k) s(a, l) det g[R, S], with
    R = {0..n-1} - {a, l}, S = {0..n-1} - {b, k} and s(x, y) = 1 for x < y,
    -1 for x > y (the order sign against sorted rows and columns). Returns
    (b, a, terms) for the nonzero entries, terms the Leibniz expansion
    [(sign, ((r, s), ..))] of the (n-2)-minor: a constant at n = 2, one entry
    of g at n = 3, a 2 x 2 minor at n = 4.
    """
    out = []
    for b, a in itertools.product(range(n), repeat=2):
        if a == l or b == k:
            continue
        rows = [r for r in range(n) if r not in (a, l)]
        cols = [s for s in range(n) if s not in (b, k)]
        sign = (-1) ** (a + l + b + k) * (1 if b < k else -1) * (1 if a < l else -1)
        terms = []
        for perm in itertools.permutations(range(n - 2)):
            inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
            terms.append((sign * (-1) ** inversions,
                          tuple(zip(rows, (cols[p] for p in perm)))))
        out.append((b, a, terms))
    return out


def _jet(s, dbar, l, k, h):
    """(s, d_l s, d_kbar s, d_l d_kbar s) of the Hermitian entrywise field s,
    from its dbar and its (l, k) slice h: d_l s = (d_lbar s)^*. With dbar
    None the first derivatives are None, for products of one factor."""
    if dbar is None:
        return s, None, None, h
    return s, np.conj(np.swapaxes(dbar[l], 0, 1)), dbar[k], h


def _ddbar_product(factors):
    """d_l d_kbar prod_t x_t by the product rule, each factor given by its
    jet (x, d_l x, d_kbar x, d_l d_kbar x) of node fields."""
    total = 0.0
    for i, j in itertools.product(range(len(factors)), repeat=2):
        term = factors[i][3] if i == j else factors[i][1] * factors[j][2]
        for t, x in enumerate(factors):
            if t != i and t != j:
                term = term * x[0]
        total = total + term
    return total


def _cells(jet, cells):
    """The jets of the entries `cells` = ((r, s), ..) of an entrywise jet."""
    return [tuple(m if m is None else m[c] for m in jet) for c in cells]


# ---------------------------------------------------------------------------
# the derived fields of one metric


class MetricFields:
    """The fields of one Hermitian metric g from its one factorization, which
    its ddbar defects, its connection and a ProblemSpec share.

    Construction checks the shape and finiteness of g and factors it: the
    factor validates g (ValidationError naming `what`), gives log_det and is
    held for gi = g^{-1} and hermitian.star_power_factored until release().
    gi, gi_entries (its entrywise buffer), the entrywise g, its dbar and its
    entrywise spectrum are built on first use: the one spectrum of g from
    which both ddbar defects take their slices d_l d_kbar g.
    """

    def __init__(self, grid, g, what="metric"):
        grid.check_field(g, (grid.n, grid.n))
        if not np.all(np.isfinite(g)):  # the factor reads the lower triangle only
            raise ValidationError(f"{what} has non-finite values")
        self.grid = grid
        self.g = g
        self.factor = ha.require_positive(g, what)
        self.log_det = ha.log_det(self.factor)

    @functools.cached_property
    def gi(self):
        return ha.inverse(self.factor)

    @property
    def gi_entries(self):
        return _entries(self.gi)

    def release(self):
        """Keep log_det and gi, what a solve reads of its reference metric,
        and drop the factor and the ddbar fields."""
        self.gi  # built from the factor before it goes
        self.factor = None
        for name in ("entries", "dbar", "spectrum"):
            self.__dict__.pop(name, None)

    @functools.cached_property
    def entries(self):
        return _entries(self.g)

    @functools.cached_property
    def dbar(self):
        """dbar[k, i, j] = d_kbar g_{i jbar}, entrywise."""
        # not from self.entries: a ProblemSpec needs dbar alone and keeps no
        # entrywise copy of g
        return _dbar_entries(self.grid, _entries(self.g))

    @property
    def dbar_field(self):
        """dbar_g[..., k, i, j] = d_kbar g_{i jbar}: the (..., k, i, j) view of
        dbar (every entry a contiguous node field, which also suits the
        ``...``-broadcast einsums of its callers)."""
        return ha.as_field(self.dbar, 3)

    @functools.cached_property
    def spectrum(self):
        """The entrywise spectrum of g (:func:`_pair_slices`)."""
        return _spectrum(self.grid, self.g)

    def ricci(self):
        """The Chern-Ricci form -d_i d_jbar log det g, a Hermitian field."""
        return -gr.hessian_complex(self.grid, self.log_det)

    def ddbar_scalar(self, sigma):
        """[i ddbar(sigma ^ g^{n-2})] / (g^n / n!) as a real scalar field.

        sigma is any real (1,1)-form field. With the sigma-representation of a
        dual (1,1)-form it evaluates ddbar of any (n-1,n-1)-form; with
        sigma = g it is the Gauduchon scalar, which :meth:`gauduchon_scalar`
        takes in fewer operations.

        The flat dual of sigma ^ g^{n-2} is (n-2)! sum_{p,q} sigma_pq C_{qp,..}
        (:func:`_cofactor_minors`), so the scalar is

            (n-2)! D^{-1} Re sum_{l,k live} d_l d_kbar sum_{p,q} sigma_pq C_{qp,kl},

        each term a product of sigma_pq and entries of g, expanded by the
        product rule (:func:`_ddbar_product`). The (k, l) term is the
        conjugate of the (l, k) one, so the pairs l <= k are summed, those
        off the diagonal twice, each from one slice of sigma and of g.
        """
        grid, n = self.grid, self.grid.n
        s = _entries(sigma)
        s_dbar = _dbar_entries(grid, s)
        rho = np.zeros(grid.sizes)
        for (l, k, h), (_, _, h_s) in zip(_pair_slices(grid, self.spectrum),
                                          _pair_slices(grid, _spectrum(grid, sigma))):
            jet, s_jet = _jet(self.entries, self.dbar, l, k, h), _jet(s, s_dbar, l, k, h_s)
            entry = np.zeros(grid.sizes, dtype=np.complex128)
            for q, p, terms in _cofactor_minors(n, l, k):
                for sign, cells in terms:
                    entry += sign * _ddbar_product(_cells(s_jet, [(p, q)]) + _cells(jet, cells))
            rho += entry.real if l == k else 2.0 * entry.real
        return math.factorial(n - 2) * np.exp(-self.log_det) * rho

    def gauduchon_scalar(self):
        """[i ddbar(g^{n-1})] / (g^n / n!), zero iff g is Gauduchon: (n-1)! times
        the divergence of the cofactor matrix (:func:`_gauduchon_sum`), from
        gi, dbar and the spectrum of g."""
        n = self.grid.n
        return math.factorial(n - 1) * _gauduchon_sum(
            self.grid, self.gi_entries, self.dbar, self.spectrum)

    def gauduchon_defect(self):
        """sup |gauduchon_scalar| of g."""
        return float(np.max(np.abs(self.gauduchon_scalar())))

    def astheno_dual(self):
        """Hodge dual (1,1)-field S of i ddbar(g^{n-2}); None for n = 2.

        For a constant (1,1)-form E_ab, i ddbar(g^{n-2}) ^ E_ab =
        i ddbar(g^{n-2} ^ E_ab), whose flat dual has entries (n-2)! C_{ba,..}
        (:func:`_cofactor_minors`); paired with E_ab, S gives

            (A S A)_{ba} = (n-2)! D^{-1} sum_{l,k live} d_l d_kbar C_{ba,kl},

        each C_{ba,kl} a product of entries of g differentiated by the
        product rule (:func:`_ddbar_product`), so S = g (A S A) g takes no
        g^{-1}. The (k, l) term of the sum is the adjoint of the (l, k) one.
        """
        n = self.grid.n
        if n == 2:
            return None
        g = self.entries
        # at n = 3 each C_{ba,kl} is one entry of g and takes no dbar
        dbar = self.dbar if n >= 4 else None
        half = np.zeros(g.shape, dtype=np.complex128)
        for l, k, h in _pair_slices(self.grid, self.spectrum):
            jet = _jet(g, dbar, l, k, h)
            weight = 0.5 if l == k else 1.0
            for b, a, terms in _cofactor_minors(n, l, k):
                for sign, cells in terms:
                    half[b, a] += (weight * sign) * _ddbar_product(_cells(jet, cells))
        m = half + np.conj(np.swapaxes(half, 0, 1))
        m *= math.factorial(n - 2) * np.exp(-self.log_det)
        return ha.hermitize(ha.as_field(_apply(np.swapaxes(g, 0, 1), _apply(g, m), 1)))

    def astheno_defect(self):
        """sup |astheno_dual| of g; None for n = 2."""
        return None if self.grid.n == 2 else float(np.max(np.abs(self.astheno_dual())))

    def defects(self):
        """The MetricDefects of ddbar(g^{n-1}), ddbar(g^{n-2}) and d(g)."""
        # d_c g_{a bbar} - d_a g_{c bbar} = conj(d_cbar g_{b abar} - d_abar g_{b cbar})
        kahler = float(np.max(np.abs(self.dbar - np.swapaxes(self.dbar, 0, 2))))
        return MetricDefects(gauduchon=self.gauduchon_defect(), astheno=self.astheno_defect(),
                             kahler=kahler)


# ---------------------------------------------------------------------------
# ddbar defect scalars and duals


def gauduchon_scalar(grid, omega):
    """[i ddbar(omega^{n-1})] / (omega^n / n!); zero iff omega is Gauduchon."""
    return MetricFields(grid, omega).gauduchon_scalar()


@dataclass
class MetricDefects:
    """Sup-norms of the closedness defect tensors; astheno is None for n = 2."""

    gauduchon: float
    astheno: float | None
    kahler: float

    def as_dict(self):
        return {
            "gauduchon_defect": self.gauduchon,
            "astheno_defect": self.astheno,
            "kahler_defect": self.kahler,
        }


def metric_defects(grid, omega):
    """:meth:`MetricFields.defects` of omega."""
    return MetricFields(grid, omega).defects()
