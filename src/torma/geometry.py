"""Chern connection, curvature, and closedness defects of Hermitian metric fields.

Index conventions follow T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji} and
R_{l mbar i}^p = -d_mbar Gamma^p_{li} with Gamma^k_{ij} = g^{k qbar} d_i g_{j qbar}.
Array layouts:

    gamma[..., k, i, j]      Gamma^k_{ij}
    torsion[..., k, i, j]    T^k_{ij}
    curvature[..., l, m, i, p]   R_{l mbar i}^p
    dbar_g[..., k, i, j]     d_kbar g_{i jbar}
    ddbar_g[..., l, k, i, j] d_l d_kbar g_{i jbar}

Every ddbar-type defect is reduced to the S/B contraction family of
``hermitian`` by grouping the wedge factors into (1,1)-slots, e.g.

    i ddbar(omega)         = sum_{l,k} E_{lk} ^ (ddbar_g slice)
    i dbar(omega) ^ d(omega) = sum_{k,j,c} A_{kj} ^ E_{cj} ^ (d_c g)

so no exterior coefficients are ever stored (they exist only in the test
oracle).
"""

from __future__ import annotations

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
    return np.stack([gr.d_holo(grid, dbar_g, l) for l in range(grid.n)], axis=-4)


def chern_connection(grid, omega):
    """Connection Gamma^k_{ij}, torsion T^k_{ij}, curvature R_{l mbar i}^p."""
    grid.check_field(omega, (grid.n, grid.n))
    ha.require_positive(omega)
    n = grid.n
    dbar_g = metric_dbar_tensor(grid, omega)
    d_g = metric_d_tensor(grid, omega, dbar_g)
    # g^{k qbar} realizes index raising via the transposed inverse
    ginv_up = np.swapaxes(np.linalg.inv(omega), -1, -2)
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


def _unit(n, r, s):
    u = np.zeros((n, n), dtype=np.complex128)
    u[r, s] = 1.0
    return u


def _ddbar_terms(grid, g, sigma, gi, dbar_g, ddbar_g):
    """The four wedge-scalar blocks of i ddbar(sigma ^ omega^{n-2})."""
    n = grid.n
    dbar_sigma = metric_dbar_tensor(grid, sigma)
    d_sigma = metric_d_tensor(grid, sigma, dbar_sigma)
    ddbar_sigma = metric_ddbar_tensor(grid, sigma, dbar_sigma)
    d_g = metric_d_tensor(grid, g, dbar_g)

    # T_A = sum_{l,k} S2(U_lk, d_l d_kbar sigma)
    t_a = np.zeros(grid.sizes, dtype=np.complex128)
    for l in range(n):
        for k in range(n):
            t_a += ha.s2(g, _unit(n, l, k), ddbar_sigma[..., l, k, :, :], gi)

    # T_B1: i d(sigma) ^ dbar(omega) = - sum_{a,c,k} (e_c x d_c sigma_{a .}) ^ E_ak ^ dbar_g_k
    t_b1 = np.zeros(grid.sizes, dtype=np.complex128)
    if n >= 3:
        for a in range(n):
            for c in range(n):
                row = d_sigma[..., c, a, :]
                slot1 = np.zeros(grid.sizes + (n, n), dtype=np.complex128)
                slot1[..., c, :] = row
                for k in range(n):
                    t_b1 -= ha.s3(g, slot1, _unit(n, a, k), dbar_g[..., k, :, :], gi)

    # T_C = sum_{l,k} S3(sigma, U_lk, ddbar_g slice)
    t_c = np.zeros(grid.sizes, dtype=np.complex128)
    if n >= 3:
        for l in range(n):
            for k in range(n):
                t_c += ha.s3(g, sigma, _unit(n, l, k), ddbar_g[..., l, k, :, :], gi)

    # T_D = sum_{k,j,c} S4(sigma, A_kj, E_cj, d_c g), A_kj = dbar_g[k,:,j] x e_k
    t_d = np.zeros(grid.sizes, dtype=np.complex128)
    if n >= 4:
        for k in range(n):
            for j in range(n):
                col = dbar_g[..., k, :, j]
                slot2 = np.zeros(grid.sizes + (n, n), dtype=np.complex128)
                slot2[..., :, k] = col
                for c in range(n):
                    t_d += ha.s4(g, sigma, slot2, _unit(n, c, j), d_g[..., c, :, :], gi)
    return t_a, t_b1, t_c, t_d


def ddbar_scalar(grid, omega, sigma, dbar_g=None, ddbar_g=None):
    """[i ddbar(sigma ^ omega^{n-2})] / (omega^n / n!) as a real scalar field.

    sigma is any real (1,1)-form field. With sigma = omega this is the
    Gauduchon defect scalar of omega^{n-1}; with the sigma-representation of a
    dual (1,1)-form it evaluates ddbar of any (n-1,n-1)-form.
    """
    n = grid.n
    g = omega
    gi = np.linalg.inv(g)
    if dbar_g is None:
        dbar_g = metric_dbar_tensor(grid, g)
    if ddbar_g is None:
        ddbar_g = metric_ddbar_tensor(grid, g, dbar_g)
    t_a, t_b1, t_c, t_d = _ddbar_terms(grid, g, sigma, gi, dbar_g, ddbar_g)
    rho = math.factorial(n - 2) * t_a
    if n >= 3:
        rho = rho + (n - 2) * math.factorial(n - 3) * (2.0 * t_b1.real + t_c)
    if n >= 4:
        rho = rho - (n - 2) * (n - 3) * math.factorial(n - 4) * t_d
    return rho.real


def gauduchon_scalar(grid, omega, dbar_g=None, ddbar_g=None):
    """[i ddbar(omega^{n-1})] / (omega^n / n!); zero iff omega is Gauduchon."""
    return ddbar_scalar(grid, omega, omega, dbar_g=dbar_g, ddbar_g=ddbar_g)


def astheno_dual(grid, omega, dbar_g=None, ddbar_g=None):
    """Hodge dual (1,1)-field of i ddbar(omega^{n-2}); None for n = 2.

    i ddbar(omega^{n-2}) = (n-2) [i ddbar(omega) ^ omega^{n-3}
                                  - (n-3) i dbar(omega) ^ d(omega) ^ omega^{n-4}].
    """
    n = grid.n
    if n == 2:
        return None
    g = omega
    gi = np.linalg.inv(g)
    if dbar_g is None:
        dbar_g = metric_dbar_tensor(grid, g)
    if ddbar_g is None:
        ddbar_g = metric_ddbar_tensor(grid, g, dbar_g)
    dual = np.zeros(grid.sizes + (n, n), dtype=np.complex128)
    for l in range(n):
        for k in range(n):
            dual += ha.b2(g, _unit(n, l, k), ddbar_g[..., l, k, :, :], gi)
    if n >= 4:
        d_g = metric_d_tensor(grid, g, dbar_g)
        cross = np.zeros_like(dual)
        for k in range(n):
            for j in range(n):
                col = dbar_g[..., k, :, j]
                slot1 = np.zeros(grid.sizes + (n, n), dtype=np.complex128)
                slot1[..., :, k] = col
                for c in range(n):
                    cross += ha.b3(g, slot1, _unit(n, c, j), d_g[..., c, :, :], gi)
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
    ha.require_positive(omega)
    dbar_g = metric_dbar_tensor(grid, omega)
    ddbar_g = metric_ddbar_tensor(grid, omega, dbar_g)
    d_g = metric_d_tensor(grid, omega, dbar_g)
    kahler = float(np.max(np.abs(d_g - np.swapaxes(d_g, -3, -2))))
    gauduchon = float(np.max(np.abs(gauduchon_scalar(grid, omega, dbar_g, ddbar_g))))
    dual = astheno_dual(grid, omega, dbar_g, ddbar_g)
    astheno = None if dual is None else float(np.max(np.abs(dual)))
    return MetricDefects(gauduchon=gauduchon, astheno=astheno, kahler=kahler)
