"""Brute-force exterior algebra over one point of C^n (test oracle only).

A (p,q)-form is stored as a dict mapping (I, J) -> complex coefficient, where
I and J are strictly increasing index tuples and the pair stands for
dz^I ^ dzbar^J. Wedge products track permutation signs explicitly, so this is
an independent check of every closed-form star/trace identity used in
production (which never stores exterior coefficients).

The Hodge star on (n-1,n-1)-forms is extracted from the nondegenerate pairing

    Psi ^ gamma = tr(g^{-1} s g^{-1} c_gamma) dV,   s := star(Psi),

where dV = omega^n / n! is computed by wedging the metric form with itself.
The pairing convention itself is pinned in test_hermitian.py by the defining
identities of the construction: the eigenvalue law of star(omega_u^{n-1}),
star(alpha ^ omega^{n-2}) = (n-2)!((tr alpha) omega - alpha), and the trace
relation Psi ^ omega = tr(star Psi) dV.

The slot-loop references evaluate the torsion contractions of
torma.equations and the ddbar defects of torma.geometry with one S/B call
per slot on the whole ddbar tensor of the metric: the defects through the
wedge expansion of i ddbar(sigma ^ omega^{n-2}) into the blocks T_A, T_B1,
T_C, T_D, an independent route from geometry's minors calculus (S3, S4,
B3, that tensor and the stacked dbar and d tensors live here, since
production no longer builds them); the closed
forms used in production are checked against them, and the
Leibniz-route Gauduchon scalar checks the factorized one of torma.geometry.
``commutation_check`` measures two third-derivative commutation identities
with torma.geometry's Chern connection, curvature and torsion.
The per-axis derivative references at the end compose first derivatives one
real axis at a time (a 1-D FFT or the fd4 np.roll stencil); the fused
spectral operators of torma.grid are checked against them. ``derivatives``
swaps the symbol of that fd4 stencil in for torma.grid's table, so that the
same fused operators run as fourth-order finite differences.
``nm1_root_eigh`` is the (n-1)-th root by an eigendecomposition of every
node, the reference for torma.hermitian's relative-Cholesky root.
``resample_complex`` is the spectral resample on full complex spectra,
the reference for torma.grid's half-spectrum resample.
``volume_weights`` are torma.grid's volume weights of a bare metric array.
``gmres_scipy`` and ``augmented_solve_physical`` are the Newton system's
linear solve as scipy.sparse.linalg.gmres runs it, right-preconditioned, on
physical fields, the reference for torma.solver's own GMRES in resolved
half-spectrum coordinates.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np
import scipy.sparse.linalg as spla

from torma import equations as eq
from torma import geometry as geo
from torma import grid as gr
from torma import hermitian as ha


def _merge_sign(a, b):
    """Sign of sorting the concatenation of two strictly increasing tuples.

    Returns (sign, merged) or (0, None) when indices repeat.
    """
    if set(a) & set(b):
        return 0, None
    merged = a + b
    arr = list(merged)
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(arr)


class Form:
    """Exterior form of pure bidegree (p, q) at a point of C^n."""

    def __init__(self, n, p, q, coeffs=None):
        self.n = n
        self.p = p
        self.q = q
        self.coeffs = dict(coeffs or {})

    def copy(self):
        return Form(self.n, self.p, self.q, self.coeffs)

    def __add__(self, other):
        assert (self.n, self.p, self.q) == (other.n, other.p, other.q)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return Form(self.n, self.p, self.q, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return Form(self.n, self.p, self.q, {k: scalar * v for k, v in self.coeffs.items()})

    __mul__ = __rmul__

    def wedge(self, other):
        assert self.n == other.n
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                si, mi = _merge_sign(i1, i2)
                if si == 0:
                    continue
                sj, mj = _merge_sign(j1, j2)
                if sj == 0:
                    continue
                sign = si * sj * (-1) ** (other.p * self.q)
                key = (mi, mj)
                out[key] = out.get(key, 0.0) + sign * c1 * c2
        return Form(self.n, self.p + other.p, self.q + other.q, out)

    def conj(self):
        sign = (-1) ** (self.p * self.q)
        return Form(
            self.n, self.q, self.p,
            {(j, i): sign * np.conj(c) for (i, j), c in self.coeffs.items()},
        )

    def real_part(self):
        return 0.5 * (self + self.conj())

    def norm(self):
        return max((abs(v) for v in self.coeffs.values()), default=0.0)


def zero_form(n, p, q):
    return Form(n, p, q)


def one_one(m):
    """(1,1)-form i m_{i jbar} dz^i ^ dzbar^j from its coefficient matrix."""
    n = m.shape[0]
    coeffs = {}
    for i in range(n):
        for j in range(n):
            if m[i, j] != 0:
                coeffs[((i,), (j,))] = 1j * m[i, j]
    return Form(n, 1, 1, coeffs)


def one_zero(v):
    """(1,0)-form v_i dz^i."""
    n = v.shape[0]
    return Form(n, 1, 0, {((i,), ()): v[i] for i in range(n) if v[i] != 0})


def zero_one(v):
    """(0,1)-form v_j dzbar^j."""
    n = v.shape[0]
    return Form(n, 0, 1, {((), (j,)): v[j] for j in range(n) if v[j] != 0})


def wedge_power(f, k):
    out = f
    for _ in range(k - 1):
        out = out.wedge(f)
    return out


def volume_form(g):
    """dV = omega^n / n! for the metric form of g."""
    n = g.shape[0]
    return (1.0 / math.factorial(n)) * wedge_power(one_one(g), n)


def top_ratio(f, g):
    """Coefficient of a top (n,n)-form relative to dV = omega^n/n!."""
    n = g.shape[0]
    full = tuple(range(n))
    dv = volume_form(g).coeffs.get((full, full), 0.0)
    val = f.coeffs.get((full, full), 0.0)
    return val / dv


def star_nm1(g, psi):
    """Hodge dual of an (n-1,n-1)-form as a (1,1) coefficient matrix.

    Uses the pairing psi ^ gamma = tr(g^{-1} s g^{-1} c) dV, solved in closed
    form: with P[a,b] := (psi ^ i dz^a dzbar^b)/dV one has s = g P^T g.
    """
    n = g.shape[0]
    pairing = np.zeros((n, n), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n), dtype=np.complex128)
            unit[a, b] = 1.0
            pairing[a, b] = top_ratio(psi.wedge(one_one(unit)), g)
    return g @ pairing.T @ g


def dbar_metric(dbar_g):
    """dbar(omega) from the derivative tensor Dbar[k, i, j] = d_kbar g_{i jbar}.

    Built canonically: dbar prepends dzbar^k to i g_{i jbar} dz^i ^ dzbar^j
    with coefficient d_kbar g_{i jbar}; all reordering signs come from the
    wedge engine.
    """
    n = dbar_g.shape[-1]
    out = zero_form(n, 1, 2)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                c = dbar_g[k, i, j]
                if c == 0:
                    continue
                base = Form(n, 1, 1, {((i,), (j,)): 1j})
                out = out + c * Form(n, 0, 1, {((), (k,)): 1.0}).wedge(base)
    return out


def d_metric(dbar_g):
    """d(omega) = conj(dbar omega) for a Hermitian metric."""
    return dbar_metric(dbar_g).conj()


def ddbar_one_one(hess_sigma):
    """ddbar of a (1,1)-form from hess_sigma[l, k, i, j] = d_l d_kbar sigma_{i jbar}.

    Canonical construction: prepend dzbar^k, then dz^l, to the (1,1) basis
    form; the engine's merge signs do the rest.
    """
    n = hess_sigma.shape[-1]
    out = zero_form(n, 2, 2)
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    c = hess_sigma[l, k, i, j]
                    if c == 0:
                        continue
                    base = Form(n, 1, 1, {((i,), (j,)): 1j})
                    term = Form(n, 1, 0, {((l,), ()): 1.0}).wedge(
                        Form(n, 0, 1, {((), (k,)): 1.0}).wedge(base)
                    )
                    out = out + c * term
    return out


def d_one_one(d_sigma):
    """d of a (1,1)-form from d_sigma[c, a, b] = d_c sigma_{a bbar}."""
    n = d_sigma.shape[-1]
    out = zero_form(n, 2, 1)
    for c in range(n):
        for a in range(n):
            for b in range(n):
                v = d_sigma[c, a, b]
                if v == 0:
                    continue
                base = Form(n, 1, 1, {((a,), (b,)): 1j})
                out = out + v * Form(n, 1, 0, {((c,), ()): 1.0}).wedge(base)
    return out


# ---------------------------------------------------------------------------
# slot-loop references for the torsion contractions


def _slot(du, k):
    """The (1,1) coefficient field du x e_k^T: column k holds du."""
    n = du.shape[-1]
    slot = np.zeros(du.shape + (n,), dtype=np.complex128)
    slot[..., :, k] = du
    return slot


def e_raw_slots(g, du, dbar_omega, ginv):
    """M(du) = sum_k B2(du x e_k^T, d_kbar g), one B2 per slot."""
    m = np.zeros_like(g, dtype=np.complex128)
    for k in range(g.shape[-1]):
        m += ha.b2(g, _slot(du, k), dbar_omega[..., k, :, :], ginv)
    return m


def cross_slots(g, du, dbar_omega, ginv):
    """sum_k S2(du x e_k^T, d_kbar g), one S2 per slot."""
    return sum(
        ha.s2(g, _slot(du, k), dbar_omega[..., k, :, :], ginv) for k in range(g.shape[-1])
    )


# ---------------------------------------------------------------------------
# S/B contractions that production no longer calls: the slot-loop references
# below and the contraction-family tests use them


def _trace(x):
    return np.einsum("...ii->...", x)


def _raise_all(gi, mats):
    return [gi @ np.asarray(m, dtype=np.complex128) for m in mats]


def s3(g, a, b, c, gi=None):
    """Polarized 6 e_3 of the relative eigenvalues."""
    gi = np.linalg.inv(g) if gi is None else gi
    ra, rb, rc = _raise_all(gi, (a, b, c))
    ta, tb, tc = _trace(ra), _trace(rb), _trace(rc)
    rab, rac, rbc = ra @ rb, ra @ rc, rb @ rc
    return (
        ta * tb * tc
        - ta * _trace(rbc)
        - tb * _trace(rac)
        - tc * _trace(rab)
        + _trace(rab @ rc)
        + _trace(rac @ rb)
    )


def s4(g, a, b, c, d, gi=None):
    """Polarized 24 e_4 (cycle-partition expansion)."""
    gi = np.linalg.inv(g) if gi is None else gi
    ra, rb, rc, rd = _raise_all(gi, (a, b, c, d))
    ta, tb, tc, td = _trace(ra), _trace(rb), _trace(rc), _trace(rd)
    rab, rac, rad = ra @ rb, ra @ rc, ra @ rd
    rbc, rbd, rcd = rb @ rc, rb @ rd, rc @ rd
    tab, tac, tad = _trace(rab), _trace(rac), _trace(rad)
    tbc, tbd, tcd = _trace(rbc), _trace(rbd), _trace(rcd)
    return (
        ta * tb * tc * td
        - (tab * tc * td + tac * tb * td + tad * tb * tc
           + tbc * ta * td + tbd * ta * tc + tcd * ta * tb)
        + (tab * tcd + tac * tbd + tad * tbc)
        + ta * (_trace(rbc @ rd) + _trace(rbd @ rc))
        + tb * (_trace(rac @ rd) + _trace(rad @ rc))
        + tc * (_trace(rab @ rd) + _trace(rad @ rb))
        + td * (_trace(rab @ rc) + _trace(rac @ rb))
        - (_trace(rab @ rcd) + _trace(rab @ rd @ rc) + _trace(rac @ rbd)
           + _trace(rac @ rd @ rb) + _trace(rad @ rbc) + _trace(rad @ rc @ rb))
    )


def b3(g, a, b, c, gi=None):
    """star(a ^ b ^ c ^ omega^{n-4}/(n-4)!), n >= 4."""
    gi = np.linalg.inv(g) if gi is None else gi
    ra, rb, rc = _raise_all(gi, (a, b, c))
    ta, tb, tc = _trace(ra), _trace(rb), _trace(rc)
    rab, rac, rbc = ra @ rb, ra @ rc, rb @ rc
    s2ab = ta * tb - _trace(rab)
    s2ac = ta * tc - _trace(rac)
    s2bc = tb * tc - _trace(rbc)
    s3abc = (
        ta * tb * tc - ta * _trace(rbc) - tb * _trace(rac) - tc * _trace(rab)
        + _trace(rab @ rc) + _trace(rac @ rb)
    )
    chains = rab @ rc + rac @ rb + rb @ rac + rbc @ ra + rc @ rab + rc @ rb @ ra
    return (
        s3abc[..., None, None] * g
        - s2ab[..., None, None] * c
        - s2bc[..., None, None] * a
        - s2ac[..., None, None] * b
        + ta[..., None, None] * (g @ (rbc + rc @ rb))
        + tb[..., None, None] * (g @ (rac + rc @ ra))
        + tc[..., None, None] * (g @ (rab + rb @ ra))
        - g @ chains
    )


def inverse_star_sigma(g, s, gi=None):
    """sigma with star(s) = sigma ^ omega^{n-2}/(n-2)!: sigma = tr_g(s)/(n-1) g - s.

    Lets any (n-1,n-1)-form given by its dual s be rewritten in the
    sigma-wedge-omega^{n-2} shape used by the ddbar scalar machinery.
    """
    n = g.shape[-1]
    gi = np.linalg.inv(g) if gi is None else gi
    return (_trace(gi @ s) / (n - 1))[..., None, None] * g - s


# ---------------------------------------------------------------------------
# slot-loop references for the ddbar defects of torma.geometry, by the wedge
# blocks T_A..T_D: one S/B call per unit or rank-one slot


def metric_dbar_tensor(grid, g):
    """dbar_g[..., k, i, j] = d_kbar g_{i jbar}, one d_antiholo per k: the
    reference for geometry.MetricFields.dbar_field, and the dbar of any
    Hermitian field (no positivity needed)."""
    return np.stack([gr.d_antiholo(grid, g, k) for k in range(grid.n)], axis=-3)


def metric_d_tensor(grid, g, dbar_g=None):
    """d_g[..., c, a, b] = d_c g_{a bbar} = conj(d_cbar g_{b abar})."""
    if dbar_g is None:
        dbar_g = metric_dbar_tensor(grid, g)
    return np.conj(np.swapaxes(dbar_g, -1, -2))


def metric_ddbar_tensor(grid, g, dbar_g=None):
    """ddbar_g[..., l, k, i, j] = d_l d_kbar g_{i jbar}: the whole n^4 tensor,
    one d_holo of dbar_g per l."""
    if dbar_g is None:
        dbar_g = metric_dbar_tensor(grid, g)
    out = np.empty(dbar_g.shape[:-3] + (grid.n,) + dbar_g.shape[-3:], dtype=np.complex128)
    for l in range(grid.n):
        out[..., l, :, :, :] = gr.d_holo(grid, dbar_g, l)
    return out


def _unit(n, r, s):
    u = np.zeros((n, n), dtype=np.complex128)
    u[r, s] = 1.0
    return u


def ddbar_terms_slots(grid, g, sigma, gi, dbar_g, ddbar_g):
    """The blocks T_A, T_B1, T_C, T_D of i ddbar(sigma ^ omega^{n-2})."""
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
                    t_b1 -= s3(g, slot1, _unit(n, a, k), dbar_g[..., k, :, :], gi)

    # T_C = sum_{l,k} S3(sigma, U_lk, ddbar_g slice)
    t_c = np.zeros(grid.sizes, dtype=np.complex128)
    if n >= 3:
        for l in range(n):
            for k in range(n):
                t_c += s3(g, sigma, _unit(n, l, k), ddbar_g[..., l, k, :, :], gi)

    # T_D = sum_{k,j,c} S4(sigma, A_kj, E_cj, d_c g), A_kj = dbar_g[k,:,j] x e_k
    t_d = np.zeros(grid.sizes, dtype=np.complex128)
    if n >= 4:
        for k in range(n):
            for j in range(n):
                col = dbar_g[..., k, :, j]
                slot2 = np.zeros(grid.sizes + (n, n), dtype=np.complex128)
                slot2[..., :, k] = col
                for c in range(n):
                    t_d += s4(g, sigma, slot2, _unit(n, c, j), d_g[..., c, :, :], gi)
    return t_a, t_b1, t_c, t_d


def ddbar_scalar_slots(grid, omega, sigma):
    """[i ddbar(sigma ^ omega^{n-2})] / dV from the slot-loop blocks."""
    n = grid.n
    gi = np.linalg.inv(omega)
    dbar_g = metric_dbar_tensor(grid, omega)
    ddbar_g = metric_ddbar_tensor(grid, omega, dbar_g)
    t_a, t_b1, t_c, t_d = ddbar_terms_slots(grid, omega, sigma, gi, dbar_g, ddbar_g)
    rho = math.factorial(n - 2) * t_a
    if n >= 3:
        rho = rho + (n - 2) * math.factorial(n - 3) * (2.0 * t_b1.real + t_c)
    if n >= 4:
        rho = rho - (n - 2) * (n - 3) * math.factorial(n - 4) * t_d
    return rho.real


def astheno_dual_slots(grid, omega):
    """Star dual of i ddbar(omega^{n-2}), one B2/B3 call per slot; n >= 3."""
    n = grid.n
    g = omega
    gi = np.linalg.inv(g)
    dbar_g = metric_dbar_tensor(grid, g)
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
                    cross += b3(g, slot1, _unit(n, c, j), d_g[..., c, :, :], gi)
        dual = dual - (n - 3) * cross
    return ha.hermitize((n - 2) * dual)


# ---------------------------------------------------------------------------
# Leibniz-route reference for the Gauduchon scalar


def gauduchon_scalar_direct(grid, omega):
    """Independent Leibniz route (n-1)[i ddbar(omega) - (n-2) i dbar(omega)^d(omega)] ^ ...

    Cross-check for :func:`torma.geometry.gauduchon_scalar`; expands
    omega^{n-1} directly instead of through the sigma ^ omega^{n-2}
    factorization.
    """
    n = grid.n
    g = omega
    gi = np.linalg.inv(g)
    dbar_g = metric_dbar_tensor(grid, g)
    d_g = metric_d_tensor(grid, g, dbar_g)
    ddbar_g = metric_ddbar_tensor(grid, g, dbar_g)
    s2_sum = np.zeros(grid.sizes, dtype=np.complex128)
    for l in range(n):
        for k in range(n):
            s2_sum += ha.s2(g, _unit(n, l, k), ddbar_g[..., l, k, :, :], gi)
    rho = math.factorial(n - 2) * s2_sum
    if n >= 3:
        s3_sum = np.zeros(grid.sizes, dtype=np.complex128)
        for k in range(n):
            for j in range(n):
                col = dbar_g[..., k, :, j]
                slot1 = np.zeros(grid.sizes + (n, n), dtype=np.complex128)
                slot1[..., :, k] = col
                for c in range(n):
                    s3_sum += s3(g, slot1, _unit(n, c, j), d_g[..., c, :, :], gi)
        rho = rho - (n - 2) * math.factorial(n - 3) * s3_sum
    return ((n - 1) * rho).real


# ---------------------------------------------------------------------------
# third-derivative commutation identities of the Chern connection


def commutation_check(grid, omega, u):
    """Discrepancy of the first two third-derivative commutation identities.

    (1) u_{i jbar l} = u_{i l jbar} - u_p R_{l jbar i}^p
    (2) u_{p jbar mbar} = u_{p mbar jbar} - conj(T^q_{mj}) u_{p qbar}

    built from covariant derivatives of the Chern connection.
    """
    n = grid.n
    conn = geo.chern_connection(grid, omega)
    du = gr.holo_gradient(grid, u)           # u_i
    hess = gr.hessian_complex(grid, u)       # u_{i jbar}
    # u_{i l} = d_l d_i u - Gamma^p_{li} u_p
    ddu = np.stack([gr.d_holo(grid, du, l) for l in range(n)], axis=-2)
    u_il = np.swapaxes(ddu, -1, -2) - np.einsum("...pli,...p->...il", conn.gamma, du)

    # u_{i jbar l} = d_l u_{i jbar} - Gamma^p_{li} u_{p jbar}
    d_hess = np.stack([gr.d_holo(grid, hess, l) for l in range(n)], axis=-3)
    u_ijl = np.einsum("...lij->...ijl", d_hess) - np.einsum(
        "...pli,...pj->...ijl", conn.gamma, hess
    )
    # u_{i l jbar} = d_jbar u_{i l}
    u_ilj = np.stack([gr.d_antiholo(grid, u_il, j) for j in range(n)], axis=-1)
    curv_term = np.einsum("...p,...ljip->...ijl", du, conn.curvature)
    first = u_ijl - (np.einsum("...ilj->...ijl", u_ilj) - curv_term)

    # u_{p jbar mbar} = d_mbar u_{p jbar} - conj(Gamma^q_{mj}) u_{p qbar}
    dbar_hess = np.stack([gr.d_antiholo(grid, hess, m) for m in range(n)], axis=-3)
    u_pjm = np.einsum("...mpj->...pjm", dbar_hess) - np.einsum(
        "...qmj,...pq->...pjm", np.conj(conn.gamma), hess
    )
    # u_{p mbar jbar} is the same tensor with the antiholomorphic slots swapped
    u_pmj = np.swapaxes(u_pjm, -1, -2)
    torsion_term = np.einsum("...qmj,...pq->...pjm", np.conj(conn.torsion), hess)
    second = u_pjm - (u_pmj - torsion_term)
    return {
        "first_identity_sup": float(np.max(np.abs(first))),
        "second_identity_sup": float(np.max(np.abs(second))),
    }


# ---------------------------------------------------------------------------
# per-axis derivative references for the fused spectral operators of
# torma.grid: one 1-D transform (or np.roll stencil) per real axis, composed
# one derivative at a time


class Fd4Table(gr.SpectralTable):
    """torma.grid's multiplier table with the symbol of the fourth-order
    central difference (the stencil of ``deriv_real_axis``):
    s(k) = (8 sin(2 pi k h) - sin(4 pi k h)) / (6h), h = 1/size, zero at Nyquist."""

    @staticmethod
    def axis_symbol(size):
        k = np.fft.fftfreq(size, d=1.0 / size)
        h = 1.0 / size
        kh = 2.0 * np.pi * k * h
        s = (8.0 * np.sin(kh) - np.sin(2.0 * kh)) / (6.0 * h)
        s[size // 2] = 0.0
        return s


_fd4_table = functools.lru_cache(maxsize=16)(Fd4Table)


@contextlib.contextmanager
def derivatives(method):
    """Run torma's derivative operators under the named table: "spectral"
    (torma.grid's own) or "fd4" (Fd4Table); the grid's table is restored on
    exit."""
    original = gr.spectral_table
    gr.spectral_table = {"spectral": original, "fd4": _fd4_table}[method]
    try:
        yield
    finally:
        gr.spectral_table = original


def deriv_real(grid, f, axis):
    """d/dx along one real axis through the fused first-derivative helper."""
    return gr._first_order(grid, f, [[(axis, 1.0)]])[0]


def deriv_real_axis(grid, f, axis, method="spectral"):
    """d/dx along one real axis: spectral multiplier or the fd4 np.roll stencil."""
    size = grid.sizes[axis]
    f = np.asarray(f, dtype=np.complex128)
    if size == 1:
        return np.zeros_like(f)
    if method == "fd4":
        h = 1.0 / size
        return (
            8.0 * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
            - (np.roll(f, -2, axis) - np.roll(f, 2, axis))
        ) / (12.0 * h)
    k = np.fft.fftfreq(size, d=1.0 / size)
    k[size // 2] = 0.0
    shape = [1] * f.ndim
    shape[axis] = size
    mult = (2j * np.pi * k).reshape(shape)
    return np.fft.ifft(np.fft.fft(f, axis=axis) * mult, axis=axis)


def d_holo_axes(grid, f, i, method="spectral"):
    return 0.5 * (deriv_real_axis(grid, f, 2 * i, method)
                  - 1j * deriv_real_axis(grid, f, 2 * i + 1, method))


def d_antiholo_axes(grid, f, i, method="spectral"):
    return 0.5 * (deriv_real_axis(grid, f, 2 * i, method)
                  + 1j * deriv_real_axis(grid, f, 2 * i + 1, method))


def hessian_composed(grid, u, method="spectral"):
    """u_{i jbar} = d_antiholo(d_holo(u, i), j), entry by entry."""
    n = grid.n
    hess = np.zeros(grid.sizes + (n, n), dtype=np.complex128)
    for i in range(n):
        du = d_holo_axes(grid, u, i, method)
        for j in range(n):
            hess[..., i, j] = d_antiholo_axes(grid, du, j, method)
    return hess


def drop_nyquist_full(grid, f):
    """Nyquist projection on the full complex spectrum."""
    fh = np.fft.fftn(np.asarray(f, dtype=np.complex128), axes=grid.active_axes)
    for axis in grid.active_axes:
        sl = [slice(None)] * fh.ndim
        sl[axis] = grid.sizes[axis] // 2
        fh[tuple(sl)] = 0.0
    return np.fft.ifftn(fh, axes=grid.active_axes)


def resample_complex(grid, f, out_grid):
    """grid.resample on the full complex spectrum: along each active axis the
    wavenumbers -m/2 <= k < m/2 (m the smaller size) keep their place, the
    rest is dropped or zero. The result is complex; grid.resample gives its
    real part and grid.resample_hermitian its Hermitian part."""
    axes = grid.active_axes
    fh = np.fft.fftn(np.asarray(f, dtype=np.complex128), axes=axes)
    src, dst = [], []
    for s_in, s_out in zip(grid.sizes, out_grid.sizes):
        m = min(s_in, s_out)
        k = np.arange(-(m // 2), m // 2) if m > 1 else np.zeros(1, dtype=int)
        src.append(k % s_in)
        dst.append(k % s_out)
    out = np.zeros(out_grid.sizes + np.shape(f)[len(grid.sizes):], dtype=np.complex128)
    out[np.ix_(*dst)] = fh[np.ix_(*src)]
    return np.fft.ifftn(out, axes=axes) * (out_grid.num_nodes / grid.num_nodes)


# ---------------------------------------------------------------------------
# einsum and hermitize forms of the evaluation and the linearization: the
# references for torma.equations' entrywise kernels, on (*nodes, matrix axes)
# fields


def torsion_coefficient_einsum(dbar_omega, ginv):
    """c_p = sum_k [(g^{-1})_{kp} tr R_k - (R_k g^{-1})_{kp}], R_k = g^{-1} d_kbar g."""
    t = np.einsum("...ji,...kij->...k", ginv, dbar_omega)
    return (np.einsum("...kp,...k->...p", ginv, t)
            - np.einsum("...ki,...kij,...jp->...p", ginv, dbar_omega, ginv))


def torsion_operator_einsum(g, dbar_omega, ginv):
    """M[..., p, :, :] = M(e_p) by the closed form of docs/conventions.md:

        M_p = c_p g + sum_k [ -(g^{-1})_{kp} D_k + e_p (R_k)_{k,:}
                              - t_k E_pk + (D_k g^{-1})_{:,p} e_k^T ].
    """
    diag = np.arange(g.shape[-1])
    m = np.einsum("...p,...ij->...pij", torsion_coefficient_einsum(dbar_omega, ginv), g)
    m -= np.einsum("...kp,...kij->...pij", ginv, dbar_omega)
    m += np.einsum("...kij,...jp->...pik", dbar_omega, ginv)
    # sum_k [e_p (R_k)_{k,:} - t_k E_pk] only touches row p of M_p
    rows = np.einsum("...ki,...kij->...j", ginv, dbar_omega)
    traces = np.einsum("...ji,...kij->...k", ginv, dbar_omega)
    m[..., diag, diag, :] += (rows - traces)[..., None, :]
    return m


def spec_torsion_operator_einsum(spec):
    return torsion_operator_einsum(spec.omega, spec.metric.dbar_field, spec.metric.gi)


def e_term_einsum(spec, u):
    """(Z, H) = (hermitize(sum_p du_p M_p)/(n-1), tr(g^{-1} Z)) for any variant."""
    du = gr.holo_gradient(spec.grid, u)
    z = ha.hermitize(np.einsum("...p,...pij->...ij", du, spec_torsion_operator_einsum(spec)))
    z /= spec.n - 1
    return z, np.einsum("...ij,...ji->...", spec.metric.gi, z).real


def tilde_metric_einsum(spec, u):
    """gt = hermitize(omega_h + ((lap u) omega - Hess u)/(n-1) [+ Z])."""
    hess = gr.hessian_complex(spec.grid, u)
    lap = np.einsum("...ij,...ji->...", spec.metric.gi, hess)
    gt = (lap[..., None, None] * spec.omega - hess) / (spec.n - 1) + spec.omega_h
    if spec.variant is eq.Variant.PHI:
        gt += e_term_einsum(spec, u)[0]
    return ha.hermitize(gt)


def second_order_coeff_einsum(spec, gt_inv):
    """C = (tr(gt^{-1} g) g^{-1} - gt^{-1})/(n-1)."""
    tr = np.einsum("...ij,...ji->...", gt_inv, spec.omega)
    return (tr[..., None, None] * spec.metric.gi - gt_inv) / (spec.n - 1)


def first_order_coeff_einsum(spec, gt_inv):
    """a_p = tr(gt^{-1} M_p)/(n-1); None for PSI."""
    if spec.variant is not eq.Variant.PHI:
        return None
    return (np.einsum("...ij,...pji->...p", gt_inv, spec_torsion_operator_einsum(spec))
            / (spec.n - 1))


def linearization_coefficients(lin):
    """Linearization's second-order coefficients C and first-order a_p (None
    for PSI), rebuilt from lin.gt."""
    gt_inv = ha.inverse(ha.cholesky(lin.gt))
    return (second_order_coeff_einsum(lin.spec, gt_inv),
            first_order_coeff_einsum(lin.spec, gt_inv))


def apply_composed(lin, v, method="spectral"):
    """Linearization.apply as the contraction of the composed Hessian."""
    coeff, first_order = linearization_coefficients(lin)
    out = np.einsum("...ij,...ji->...", coeff, hessian_composed(lin.spec.grid, v, method))
    if first_order is not None:
        for p in range(lin.spec.n):
            out = out + first_order[..., p] * d_holo_axes(lin.spec.grid, v, p, method)
    return out.real


def apply_transpose_pairs(lin, f, weights, method="spectral"):
    """Linearization.apply_transpose as the per-pair loop of derivatives."""
    grid = lin.spec.grid
    n = grid.n
    coeff, first_order = linearization_coefficients(lin)
    t = weights * f
    out = np.zeros(grid.sizes, dtype=np.complex128)
    for p in range(n):
        for q in range(n):
            out += d_antiholo_axes(
                grid, d_holo_axes(grid, coeff[..., q, p] * t, p, method), q, method
            )
    if first_order is not None:
        fo = np.zeros(grid.sizes, dtype=np.complex128)
        for p in range(n):
            fo += d_holo_axes(grid, first_order[..., p] * t, p, method)
        out -= fo.real
    return out.real / weights


def min_eigenvalue_full(a):
    """Smallest eigenvalue over all nodes by eigvalsh of every node."""
    return float(np.min(np.linalg.eigvalsh(a)))


def nm1_root_eigh(omega_ref, s):
    """hermitian.nm1_root by the relative eigendecomposition of every node:
    with s = U diag(s_i) U^* in an omega_ref-orthonormal frame,
    det(lambda) = (prod s_i)^{1/(n-1)} and lambda_i = det(lambda)/s_i."""
    n = s.shape[-1]
    chol = ha.require_positive(omega_ref, "reference metric")
    chol_inv = ha.as_field(ha._triangular_inverse(chol))
    vals, vecs = np.linalg.eigh(chol_inv @ s @ np.conj(np.swapaxes(chol_inv, -1, -2)))
    det_lam = np.prod(vals, axis=-1) ** (1.0 / (n - 1))
    lam = det_lam[..., None] / vals
    k = (vecs * lam[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    return ha.hermitize(chol @ k @ np.conj(np.swapaxes(chol, -1, -2)))


def volume_weights(grid, g):
    """grid.log_det_weights of a positive metric field g, factored here: the
    bare-array volume weights the tests integrate against."""
    return gr.log_det_weights(grid, ha.log_det(ha.require_positive(g)))


def gmres_scipy(matvec, psolve, b, rtol, atol, restart, cycles):
    """scipy.sparse.linalg.gmres right-preconditioned by psolve, as
    torma.solver._gmres runs it: GMRES with no M on y -> matvec(psolve(y)),
    restart Krylov vectors per cycle, at most cycles cycles, and x =
    psolve(y). Returns (x, info, residual estimates)."""
    size = b.size
    estimates = []
    y, info = spla.gmres(
        spla.LinearOperator((size, size), matvec=lambda y: matvec(psolve(y)),
                            dtype=np.float64), b,
        rtol=rtol, atol=atol, restart=restart, maxiter=cycles,
        callback=estimates.append, callback_type="pr_norm",
    )
    return psolve(y), info, estimates


def augmented_solve_physical(op, rhs, precond, cfg, rtol, restart, cycles):
    """[L(v) - beta = rhs ; mean(v) = 0] on packed physical vectors (v, beta):
    the Nyquist projection grid.drop_nyquist around every apply of the
    SecondOrderOperator op and on rhs, SpectralPreconditioner.solve_augmented
    as the right preconditioner, scipy's GMRES (gmres_scipy). Returns
    (v - mean(v), beta, info, iterations)."""
    grid = op.grid
    size = grid.num_nodes

    def matvec(x):
        v = x[:size].reshape(grid.sizes)
        out = gr.drop_nyquist(grid, op.apply_spectrum(gr.rfftn(grid, v))) - x[size]
        return np.concatenate([out.ravel(), [np.mean(v)]])

    def psolve(x):
        v, beta = precond.solve_augmented(x[:size].reshape(grid.sizes), mean_target=x[size])
        return np.concatenate([v.ravel(), [beta]])

    b = np.concatenate([gr.drop_nyquist(grid, rhs).ravel(), [0.0]])
    x, info, estimates = gmres_scipy(matvec, psolve, b, rtol, 1e-3 * cfg.newton_tol,
                                     restart, cycles)
    v = x[:size].reshape(grid.sizes)
    return v - np.mean(v), float(x[size]), info, len(estimates)
