"""Chern connection, curvature, and closedness defects of Hermitian metric fields.

Index conventions follow T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji} and
R_{l mbar i}^p = -d_mbar Gamma^p_{li} with Gamma^k_{ij} = g^{k qbar} d_i g_{j qbar}.
Array layouts:

    gamma[..., k, i, j]      Gamma^k_{ij}
    torsion[..., k, i, j]    T^k_{ij}
    curvature[..., l, m, i, p]   R_{l mbar i}^p
    dbar_g[..., k, i, j]     d_kbar g_{i jbar}
    ddbar_g[..., l, k, i, j] d_l d_kbar g_{i jbar}

Every ddbar-type defect is a sum of polarized wedge contractions S_m/B_m
whose (1,1)-slots are matrix units or rank-one matrices labelled by
derivative indices, e.g.

    i ddbar(omega)           = sum_{l,k} E_{lk} ^ (ddbar_g slice)
    i dbar(omega) ^ d(omega) = sum_{k,j,c} A_{kj} ^ E_{cj} ^ (d_c g)

A unit slot raised by g^{-1} is g^{-1}_{xl} delta_{kX}, so each sum over
slots collapses to index contractions of g^{-1}, sigma and the derivative
tensors: the second-order blocks through the g-trace K of a ddbar tensor,
the first-order ones through one alternating sum over permutations
(docs/conventions.md, "ddbar of wedge powers"). No exterior coefficients
and no per-slot loops exist outside the test oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import grid as gr
from . import hermitian as ha


@dataclass
class ConnectionData:
    """Chern connection coefficients, torsion, and curvature as index fields."""

    gamma: np.ndarray
    torsion: np.ndarray
    curvature: np.ndarray

    def torsion_sup(self):
        return float(np.max(np.abs(self.torsion)))


def metric_dbar_tensor(grid, g):
    """dbar_g[..., k, i, j] = d_kbar g_{i jbar}."""
    return np.stack([gr.d_antiholo(grid, g, k) for k in range(grid.n)], axis=-3)


def metric_d_tensor(grid, g, dbar_g=None):
    """d_g[..., c, a, b] = d_c g_{a bbar} = conj(d_cbar g_{b abar})."""
    if dbar_g is None:
        dbar_g = metric_dbar_tensor(grid, g)
    return np.conj(np.swapaxes(dbar_g, -1, -2))


def metric_ddbar_tensor(grid, g, dbar_g=None):
    """ddbar_g[..., l, k, i, j] = d_l d_kbar g_{i jbar}."""
    if dbar_g is None:
        dbar_g = metric_dbar_tensor(grid, g)
    # filled in place: a stack of the slices would hold the n^4 tensor twice
    out = np.empty(dbar_g.shape[:-3] + (grid.n,) + dbar_g.shape[-3:], dtype=np.complex128)
    for l in range(grid.n):
        out[..., l, :, :, :] = gr.d_holo(grid, dbar_g, l)
    return out


def chern_connection(grid, omega):
    """Connection Gamma^k_{ij}, torsion T^k_{ij}, curvature R_{l mbar i}^p."""
    grid.check_field(omega, (grid.n, grid.n))
    ginv = ha.inverse(ha.require_positive(omega))
    n = grid.n
    dbar_g = metric_dbar_tensor(grid, omega)
    d_g = metric_d_tensor(grid, omega, dbar_g)
    # g^{k qbar} realizes index raising via the transposed inverse
    ginv_up = np.swapaxes(ginv, -1, -2)
    gamma = np.einsum("...kq,...ijq->...kij", ginv_up, d_g)
    torsion = gamma - np.swapaxes(gamma, -1, -2)
    dbar_gamma = np.stack([gr.d_antiholo(grid, gamma, m) for m in range(n)], axis=-4)
    # dbar_gamma[..., m, p, l, i] = d_mbar Gamma^p_{li}; reorder to R[..., l, m, i, p]
    curvature = -np.transpose(dbar_gamma, axes=(*range(dbar_gamma.ndim - 4), -2, -4, -1, -3))
    return ConnectionData(gamma=gamma, torsion=torsion, curvature=curvature)


def chern_ricci(grid, omega):
    """Chern-Ricci form -d_i d_jbar log det g as a Hermitian field."""
    grid.check_field(omega, (grid.n, grid.n))
    logdet = ha.log_det(ha.require_positive(omega)).astype(np.complex128)
    return ha.hermitize(-gr.hessian_complex(grid, logdet))


# ---------------------------------------------------------------------------
# ddbar defect scalars and duals

_ROWS, _COLS = "abcd", "ABCD"


def _alternating(subscripts, *operands):
    """S_m(a_1, .., a_m) = sum_{pi in S_m} sgn(pi) sum_x prod_t (R_t)_{x_t x_pi(t)}
    for raised slots R_t = g^{-1} a_t given through `operands`.

    Slot t's row index is the t-th letter of "abcd" and its column index the
    matching capital; the term of pi renames capital t to the row letter of
    pi(t). A row letter kept in the output leaves its slot open, which gives
    the matrix results of B_m type (see astheno_dual).
    """
    m = sum(c in subscripts for c in _COLS)
    total = 0
    for perm in itertools.permutations(range(m)):
        inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        renamed = subscripts.translate({ord(_COLS[t]): _ROWS[perm[t]] for t in range(m)})
        total = total + (-1) ** inversions * np.einsum(renamed, *operands)
    return total


def _trace_product(a, b):
    return np.einsum("...ij,...ji->...", a, b)


def _ddbar_trace(gi, h):
    """K_ab = g^{ji} (h_abij + h_ijab - h_ajib - h_ibaj) for h[l, k, i, j] =
    d_l d_kbar s_{i jbar}: the g-trace of the (2,2)-form i ddbar(s) over one
    (dz, dzbar) pair."""
    return (np.einsum("...ji,...abij->...ab", gi, h) + np.einsum("...ji,...ijab->...ab", gi, h)
            - np.einsum("...ji,...ajib->...ab", gi, h) - np.einsum("...ji,...ibaj->...ab", gi, h))


def _ddbar_dual(gi, g, k):
    """A2 = sum_{lk} B2(E_lk, d_l d_kbar g) = (tr_g K / 2) g - K from K of
    ddbar_g: the star dual of i ddbar(omega) ^ omega^{n-3}/(n-3)!."""
    return 0.5 * _trace_product(gi, k)[..., None, None] * g - k


def _raised_d(gi, d_s):
    """P[x, y, Y] = g^{-1}_{xc} g^{-1}_{ya} d_c s_{a Ybar}: the raised rank-one
    slots e_c x (d_c s)_{a.} together with the unit slot E_a. that follows them."""
    return np.einsum("...ya,...xaY->...xyY", gi, np.einsum("...xc,...caY->...xaY", gi, d_s))


def _raised_dbar(gi, dbar_g):
    """R[k, x, X] = (g^{-1} d_kbar g)_{xX}."""
    return np.einsum("...xi,...kiX->...kxX", gi, dbar_g)


def _ddbar_terms(grid, g, sigma, gi, dbar_g, ddbar_g, k_g=None):
    """The four wedge-scalar blocks of i ddbar(sigma ^ omega^{n-2}):

        T_A  = sum_{lk} S2(E_lk, d_l d_kbar sigma) = tr(g^{-1} K_sigma)/2
        T_B1 = -sum_{ack} S3(e_c x d_c sigma_{a.}, E_ak, d_kbar g)
        T_C  = sum_{lk} S3(sigma, E_lk, d_l d_kbar g) = tr(g^{-1} sigma g^{-1} A2)
        T_D  = sum_{kjc} S4(sigma, d_kbar g_{.j} x e_k, E_cj, d_c g)

    k_g, when given, is _ddbar_trace(gi, ddbar_g).
    """
    n = grid.n
    if k_g is None:
        k_g = _ddbar_trace(gi, ddbar_g)
    if sigma is g:
        dbar_sigma, k_sigma = dbar_g, k_g
    else:
        # sigma's n^4 tensor lives only for this contraction
        dbar_sigma = metric_dbar_tensor(grid, sigma)
        k_sigma = _ddbar_trace(gi, metric_ddbar_tensor(grid, sigma, dbar_sigma))
    t_a = 0.5 * _trace_product(gi, k_sigma)
    t_b1 = t_c = t_d = 0.0
    if n >= 3:
        raised_sigma = gi @ sigma
        t_c = _trace_product(raised_sigma, gi @ _ddbar_dual(gi, g, k_g))
        r_dbar = _raised_dbar(gi, dbar_g)
        r_dsigma = _raised_d(gi, metric_d_tensor(grid, sigma, dbar_sigma))
        t_b1 = -_alternating("...abA,...BcC->...", r_dsigma, r_dbar)
    if n >= 4:
        r_d = _raised_d(gi, metric_d_tensor(grid, g, dbar_g))
        t_d = _alternating("...aA,...BbC,...cdD->...", raised_sigma, r_dbar, r_d)
    return t_a, t_b1, t_c, t_d


def ddbar_scalar(grid, omega, sigma, dbar_g=None, ddbar_g=None):
    """[i ddbar(sigma ^ omega^{n-2})] / (omega^n / n!) as a real scalar field.

    sigma is any real (1,1)-form field. With sigma = omega this is the
    Gauduchon defect scalar of omega^{n-1}; with the sigma-representation of a
    dual (1,1)-form it evaluates ddbar of any (n-1,n-1)-form.
    """
    if dbar_g is None:
        dbar_g = metric_dbar_tensor(grid, omega)
    if ddbar_g is None:
        ddbar_g = metric_ddbar_tensor(grid, omega, dbar_g)
    gi = ha.inverse(ha.require_positive(omega))
    return _ddbar_scalar(grid, omega, sigma, gi, dbar_g, ddbar_g)


def _ddbar_scalar(grid, g, sigma, gi, dbar_g, ddbar_g, k_g=None):
    """ddbar_scalar from g^{-1} and the derivative tensors (and K of ddbar_g)."""
    n = grid.n
    t_a, t_b1, t_c, t_d = _ddbar_terms(grid, g, sigma, gi, dbar_g, ddbar_g, k_g)
    rho = math.factorial(n - 2) * t_a
    if n >= 3:
        rho = rho + (n - 2) * math.factorial(n - 3) * (2.0 * t_b1.real + t_c)
    if n >= 4:
        rho = rho - (n - 2) * (n - 3) * math.factorial(n - 4) * t_d
    return rho.real


def gauduchon_scalar(grid, omega, dbar_g=None, ddbar_g=None):
    """[i ddbar(omega^{n-1})] / (omega^n / n!); zero iff omega is Gauduchon."""
    return ddbar_scalar(grid, omega, omega, dbar_g=dbar_g, ddbar_g=ddbar_g)


def gauduchon_defect(grid, omega):
    """sup |gauduchon_scalar| of a validated metric: the Gauduchon part of
    :func:`metric_defects` alone."""
    grid.check_field(omega, (grid.n, grid.n))
    return float(np.max(np.abs(gauduchon_scalar(grid, omega))))


def astheno_defect(grid, omega):
    """sup |astheno_dual| of a validated metric (None for n = 2): the
    astheno-Kahler part of :func:`metric_defects` alone."""
    grid.check_field(omega, (grid.n, grid.n))
    ha.require_positive(omega)
    dual = astheno_dual(grid, omega)
    return None if dual is None else float(np.max(np.abs(dual)))


def astheno_dual(grid, omega, dbar_g=None, ddbar_g=None):
    """Hodge dual (1,1)-field of i ddbar(omega^{n-2}); None for n = 2.

    i ddbar(omega^{n-2}) = (n-2) [i ddbar(omega) ^ omega^{n-3}
                                  - (n-3) i dbar(omega) ^ d(omega) ^ omega^{n-4}],
    whose second part is sum_{kjc} B3(d_kbar g_{.j} x e_k, E_cj, d_c g).
    """
    if grid.n == 2:
        return None
    gi = ha.inverse(ha.require_positive(omega))
    if dbar_g is None:
        dbar_g = metric_dbar_tensor(grid, omega)
    if ddbar_g is None:
        ddbar_g = metric_ddbar_tensor(grid, omega, dbar_g)
    return _astheno_dual(grid, omega, gi, dbar_g, _ddbar_trace(gi, ddbar_g))


def _astheno_dual(grid, g, gi, dbar_g, k_g):
    """astheno_dual (n >= 3) from g^{-1}, dbar_g and K of ddbar_g."""
    n = grid.n
    dual = _ddbar_dual(gi, g, k_g)
    if n >= 4:
        r_dbar = _raised_dbar(gi, dbar_g)
        r_d = _raised_d(gi, metric_d_tensor(grid, g, dbar_g))
        # the output slot: B_ij = g_iq S4(.., c) with (g^{-1} c)_{xX} -> delta_xj delta_Xq
        cross = _alternating("...AaB,...bcC,...iD->...id", r_dbar, r_d, g)
        dual = dual - (n - 3) * cross
    return ha.hermitize((n - 2) * dual)


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
    """Defects of ddbar(omega^{n-1}), ddbar(omega^{n-2}), and d(omega)."""
    grid.check_field(omega, (grid.n, grid.n))
    gi = ha.inverse(ha.require_positive(omega))
    dbar_g = metric_dbar_tensor(grid, omega)
    ddbar_g = metric_ddbar_tensor(grid, omega, dbar_g)
    d_g = metric_d_tensor(grid, omega, dbar_g)
    kahler = float(np.max(np.abs(d_g - np.swapaxes(d_g, -3, -2))))
    # g^{-1} and the g-trace K of ddbar_g serve both ddbar defects
    k_g = _ddbar_trace(gi, ddbar_g)
    rho = _ddbar_scalar(grid, omega, omega, gi, dbar_g, ddbar_g, k_g)
    gauduchon = float(np.max(np.abs(rho)))
    astheno = None
    if grid.n >= 3:
        astheno = float(np.max(np.abs(_astheno_dual(grid, omega, gi, dbar_g, k_g))))
    return MetricDefects(gauduchon=gauduchon, astheno=astheno, kahler=kahler)
