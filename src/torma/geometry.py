"""Chern connection, curvature, and closedness defects of Hermitian metric fields.

Index conventions follow T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji} and
R_{l mbar i}^p = -d_mbar Gamma^p_{li} with Gamma^k_{ij} = g^{k qbar} d_i g_{j qbar}.
Array layouts:

    gamma[..., k, i, j]      Gamma^k_{ij}
    torsion[..., k, i, j]    T^k_{ij}
    curvature[..., l, m, i, p]   R_{l mbar i}^p
    dbar_g[..., k, i, j]     d_kbar g_{i jbar}

and ddbar_g[l, k, i, j] = d_l d_kbar g_{i jbar}, which no function holds
whole: its (l, k) slices are taken one at a time.

Every ddbar-type defect is a sum of polarized wedge contractions S_m/B_m
whose (1,1)-slots are matrix units or rank-one matrices labelled by
derivative indices, e.g.

    i ddbar(omega)           = sum_{l,k} E_{lk} ^ (ddbar_g slice)
    i dbar(omega) ^ d(omega) = sum_{k,j,c} A_{kj} ^ E_{cj} ^ (d_c g)

A unit slot raised by g^{-1} is g^{-1}_{xl} delta_{kX}, so each sum over
slots collapses to index contractions of g^{-1}, sigma and the derivative
tensors: the second-order blocks through the g-trace K of a ddbar tensor,
the first-order ones through one alternating sum over permutations
(docs/conventions.md, "ddbar of wedge powers"). These contractions are
entrywise kernels in hermitian's layout (matrix axes first, every entry a
contiguous node field; Python loops over matrix entries only), one
implementation for every n. K is built slice by slice from one spectrum of
the metric, so no n^4 array exists. No exterior coefficients and no per-slot
loops exist outside the test oracle. What depends on the metric alone
(g^{-1}, log det g, dbar_g, K) is built at most once per MetricFields.

The Gauduchon scalar of g itself takes no wedge blocks: omega^{n-1} has the
flat dual det(g) g^{-1} (the cofactor matrix), and i ddbar of it is the
divergence sum_{l,k} d_l d_kbar of that matrix's [k, l] entries, expanded
by the product rule (:func:`_gauduchon_sum`).
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

_ROWS, _COLS = "abcd", "ABCD"


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


def _alternating(subscripts, *operands):
    """S_m(a_1, .., a_m) = sum_{pi in S_m} sgn(pi) sum_x prod_t (R_t)_{x_t x_pi(t)}
    for raised slots R_t = g^{-1} a_t given through entrywise `operands`.

    Slot t's row index is the t-th letter of "abcd" and its column index the
    matching capital; the term of pi gives capital t the value of the row
    letter of pi(t). Output letters after "->" are left open (a row letter
    there leaves its slot open, the matrix results of B_m type). Rows that
    repeat a value cancel between pi and pi composed with their transposition,
    so only rows with distinct values are visited: n!/(n-m)! row tuples
    times m! permutations, one product of operand entries each.
    """
    inputs, _, out = subscripts.partition("->")
    terms = inputs.split(",")
    m = sum(c in subscripts for c in _COLS)
    n = operands[0].shape[0]
    nodes = operands[0].shape[len(terms[0]):]
    result = np.zeros((n,) * len(out) + nodes, dtype=np.complex128)
    free = [c for c in out if c not in _ROWS[:m] + _COLS[:m]]
    for rows in itertools.permutations(range(n), m):
        for perm in itertools.permutations(range(m)):
            inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
            value = dict(zip(_ROWS, rows))
            value.update((_COLS[t], rows[perm[t]]) for t in range(m))
            for extra in itertools.product(range(n), repeat=len(free)):
                value.update(zip(free, extra))
                term = operands[0][tuple(value[c] for c in terms[0])]
                for op, letters in zip(operands[1:], terms[1:]):
                    term = term * op[tuple(value[c] for c in letters)]
                entry = result[tuple(value[c] for c in out)]
                if inversions % 2:
                    entry -= term
                else:
                    entry += term
    return result


def _node_axes(grid):
    """The active axes of an entrywise array, counted from its end."""
    return tuple(a - len(grid.sizes) for a in grid.active_axes)


def _spectrum(grid, s):
    """The entrywise spectrum of a matrix field: every second derivative
    d_l d_kbar s that K takes is one inverse transform of it."""
    return gr.fftn(grid, _entries(s), _node_axes(grid))


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


def _ddbar_trace(grid, gi, spectrum):
    """K_ab = g^{ji} (h_abij + h_ijab - h_ajib - h_ibaj) for h[l, k, i, j] =
    d_l d_kbar s_{i jbar}: the g-trace of the (2,2)-form i ddbar(s) over one
    (dz, dzbar) pair, as an entrywise matrix, from s's entrywise spectrum.

    For Hermitian s, h[k, l, j, i] = conj(h[l, k, i, j]): the first two terms
    are Hermitian matrices and the last two adjoint to each other, so
    K = N + N^* with N_ab = g^{ji} (h_abij + h_ijab) / 2 - g^{ji} h_ajib. The
    (l, k) slice of h for l <= k is one inverse transform of the spectrum,
    the (k, l) slice its adjoint. Each slice is added into N (tr(g^{-1} h_lk)/2
    into N_lk, g^{kl} h_lk / 2 into N, row k of g^{-1} h_lk out of row l) and
    dropped, so no n^4 array is held. Slices of a coordinate the grid does
    not resolve vanish and are skipped. gi is entrywise.
    """
    hol, antih = gr.wirtinger_symbols(grid), gr.wirtinger_symbols(grid, anti=True)
    live = gr.spectral_table(grid).live
    half = np.zeros(gi.shape, dtype=np.complex128)

    def add(l, k, h):
        half[l, k] += _trace_product(gi, h)
        half[...] += gi[k, l] * h
        half[l] -= 2.0 * _apply(gi[k][None], h)[0]

    for l, k in itertools.combinations_with_replacement(live, 2):
        h = gr.ifftn(grid, spectrum * (0.5 * hol[l] * antih[k]), _node_axes(grid))
        add(l, k, h)
        if l < k:
            add(k, l, np.conj(np.swapaxes(h, 0, 1)))
    return half + np.conj(np.swapaxes(half, 0, 1))


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
    hol, antih = gr.wirtinger_symbols(grid), gr.wirtinger_symbols(grid, anti=True)
    live = gr.spectral_table(grid).live
    gi_t = np.swapaxes(gi, 0, 1)
    tr_y = {k: _trace_product(gi, dbar[k]) for k in live}
    b = {k: _apply(gi, _apply(gi_t, dbar[k], 1)) for k in live}
    rho = np.zeros(gi.shape[2:])
    for l, k in itertools.combinations_with_replacement(live, 2):
        d_l = np.conj(np.swapaxes(dbar[l], 0, 1))
        h = gr.ifftn(grid, spectrum * (hol[l] * antih[k]), _node_axes(grid))
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


def _ddbar_dual(gi, g, k):
    """A2 = sum_{lk} B2(E_lk, d_l d_kbar g) = (tr_g K / 2) g - K from K of
    ddbar_g: the star dual of i ddbar(omega) ^ omega^{n-3}/(n-3)!; entrywise."""
    return 0.5 * _trace_product(gi, k) * g - k


def _raised_d(gi, dbar_s):
    """P[x, y, Y] = g^{-1}_{xc} g^{-1}_{ya} d_c s_{a Ybar}: the raised rank-one
    slots e_c x (d_c s)_{a.} together with the unit slot E_a. that follows them.

    With d_c s_{a Ybar} = conj(d_cbar s_{Y abar}) and g^{-1} Hermitian, P is
    the conjugate of g^{-T} applied to axes 0 and 2 of the entrywise dbar_s.
    """
    gi_t = np.swapaxes(gi, 0, 1)
    p = _apply(gi_t, _apply(gi_t, dbar_s, 0), 2)
    np.conj(p, out=p)
    return np.swapaxes(p, 1, 2)


def _raised_dbar(gi, dbar_g):
    """R[k, x, X] = (g^{-1} d_kbar g)_{xX} from the entrywise dbar_g."""
    return _apply(gi, dbar_g, 1)


# ---------------------------------------------------------------------------
# the derived fields of one metric


class MetricFields:
    """The fields of one Hermitian metric g from its one factorization, which
    its ddbar defects, its connection and a ProblemSpec share.

    Construction checks the shape and finiteness of g and factors it: the
    factor validates g (ValidationError naming `what`), gives log_det and is
    held for gi = g^{-1} and hermitian.star_power_factored until release().
    gi, gi_entries (its entrywise buffer), the entrywise g, its dbar and the
    g-trace k of ddbar_g are built on first use; k from one spectrum of g.
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
        for name in ("entries", "dbar", "k"):
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
    def k(self):
        """The g-trace K of ddbar_g (:func:`_ddbar_trace`), entrywise."""
        return _ddbar_trace(self.grid, self.gi_entries, _spectrum(self.grid, self.g))

    def ricci(self):
        """The Chern-Ricci form -d_i d_jbar log det g, a Hermitian field."""
        return -gr.hessian_complex(self.grid, self.log_det)

    def ddbar_scalar(self, sigma):
        """[i ddbar(sigma ^ g^{n-2})] / (g^n / n!) as a real scalar field.

        sigma is any real (1,1)-form field. With the sigma-representation of a
        dual (1,1)-form it evaluates ddbar of any (n-1,n-1)-form; with
        sigma = g it is the Gauduchon scalar, which :meth:`gauduchon_scalar`
        takes in fewer operations.
        """
        n = self.grid.n
        t_a, t_b1, t_c, t_d = _ddbar_terms(self, sigma)
        rho = math.factorial(n - 2) * t_a
        if n >= 3:
            rho = rho + (n - 2) * math.factorial(n - 3) * (2.0 * t_b1.real + t_c)
        if n >= 4:
            rho = rho - (n - 2) * (n - 3) * math.factorial(n - 4) * t_d
        return rho.real

    def gauduchon_scalar(self):
        """[i ddbar(g^{n-1})] / (g^n / n!), zero iff g is Gauduchon: (n-1)! times
        the divergence of the cofactor matrix (:func:`_gauduchon_sum`), from
        gi, dbar and one spectrum of g."""
        n = self.grid.n
        return math.factorial(n - 1) * _gauduchon_sum(
            self.grid, self.gi_entries, self.dbar, _spectrum(self.grid, self.g))

    def gauduchon_defect(self):
        """sup |gauduchon_scalar| of g."""
        return float(np.max(np.abs(self.gauduchon_scalar())))

    def astheno_dual(self):
        """Hodge dual (1,1)-field of i ddbar(g^{n-2}); None for n = 2.

        i ddbar(g^{n-2}) = (n-2) [i ddbar(g) ^ g^{n-3}
                                  - (n-3) i dbar(g) ^ d(g) ^ g^{n-4}],
        whose second part is sum_{kjc} B3(d_kbar g_{.j} x e_k, E_cj, d_c g).
        """
        n = self.grid.n
        if n == 2:
            return None
        gi, g = self.gi_entries, self.entries
        dual = _ddbar_dual(gi, g, self.k)
        if n >= 4:
            # the output slot: B_ij = g_iq S4(.., c) with (g^{-1} c)_{xX} -> delta_xj delta_Xq,
            # so B = g X^T for the alternating sum X_jq with the slot's row and column open
            open_slot = _alternating("AaB,bcC->dD", _raised_dbar(gi, self.dbar),
                                     _raised_d(gi, self.dbar))
            dual -= (n - 3) * _apply(g, np.swapaxes(open_slot, 0, 1))
        return ha.hermitize(ha.as_field((n - 2) * dual))

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


def _ddbar_terms(metric, sigma):
    """The four wedge-scalar blocks of i ddbar(sigma ^ omega^{n-2}) for the
    MetricFields `metric` of omega = g:

        T_A  = sum_{lk} S2(E_lk, d_l d_kbar sigma) = tr(g^{-1} K_sigma)/2
        T_B1 = -sum_{ack} S3(e_c x d_c sigma_{a.}, E_ak, d_kbar g)
        T_C  = sum_{lk} S3(sigma, E_lk, d_l d_kbar g) = tr(g^{-1} sigma g^{-1} A2)
        T_D  = sum_{kjc} S4(sigma, d_kbar g_{.j} x e_k, E_cj, d_c g)
    """
    grid, n = metric.grid, metric.grid.n
    gi = metric.gi_entries
    t_a = 0.5 * _trace_product(gi, _ddbar_trace(grid, gi, _spectrum(grid, sigma)))
    t_b1 = t_c = t_d = 0.0
    if n >= 3:
        g_e = metric.entries
        sigma_e = _entries(sigma)
        raised_sigma = _apply(gi, sigma_e)
        t_c = _trace_product(raised_sigma, _apply(gi, _ddbar_dual(gi, g_e, metric.k)))
        # sigma's first derivatives live only while they are raised
        p_sigma = _raised_d(gi, _dbar_entries(grid, sigma_e))
        r_dbar = _raised_dbar(gi, metric.dbar)
        t_b1 = -_alternating("abA,BcC", p_sigma, r_dbar)
    if n >= 4:
        p_g = _raised_d(gi, metric.dbar)
        t_d = _alternating("aA,BbC,cdD", raised_sigma, r_dbar, p_g)
    return t_a, t_b1, t_c, t_d


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
