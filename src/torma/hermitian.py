"""Pointwise Hermitian multilinear algebra for (1,1)- and (n-1,n-1)-forms.

All functions act on stacked arrays: a Hermitian field is an ndarray of shape
(..., n, n) whose leading axes range over grid nodes. A real (1,1)-form
i a_{i jbar} dz^i dzbar^j is represented by its Hermitian coefficient matrix a;
an (n-1,n-1)-form is represented exclusively by its Hodge dual (1,1)-form with
respect to a reference metric g (full exterior coefficients exist only in the
test oracle).

Index conventions: tr_g(a) = tr(g^{-1} a) realizes g^{i jbar} a_{i jbar};
raising with g^{-1} realizes the metric contractions throughout.

Key closed forms (dual pairing tr(g^{-1} s g^{-1} c) against test (1,1)-forms):

    star(a ^ omega^{n-2} / (n-2)!)        = tr_g(a) g - a                    (B1)
    star(a ^ b ^ omega^{n-3} / (n-3)!)    = B2(a, b)
    [a1 ^ .. ^ ak ^ omega^{n-k} / ((n-k)! dV)] = Sk(a1, .., ak)

where Sk is the full polarization of k! e_k(g^{-1}a) (elementary symmetric
functions of the relative eigenvalues) and B_k pairs to S_{k+1}. S2 and B2
are the slot forms that the closed-form torsion operator of ``equations`` is
checked against; the higher orders that ddbar defects need are contracted in
closed form by ``geometry``, and their slot forms live in the test oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


# ---------------------------------------------------------------------------
# basic checks


def hermitize(a):
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def min_eigenvalue(a):
    """Smallest eigenvalue over all nodes of a Hermitian field.

    Equal to np.min(np.linalg.eigvalsh(a)), which it computes on fewer nodes:
    every node's minimum lies between its Gershgorin bound
    min_i (d_i - sum_{j != i} |a_ij|) and its smallest diagonal entry, so a
    node whose bound exceeds the field's smallest diagonal entry dmin (plus a
    slack far above eigvalsh's roundoff) cannot hold the minimum. Like
    eigvalsh, the screen reads the real diagonal and the lower triangle only.
    Non-finite nodes are always kept.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    diag = np.arange(n)
    rows, cols = np.tril_indices(n, -1)
    # (n, nodes) layout: reductions over the n rows run along whole arrays
    d = np.ascontiguousarray(flat[:, diag, diag].real.T)
    touches = (diag[:, None] == rows) | (diag[:, None] == cols)
    with np.errstate(invalid="ignore"):  # inf * 0 at non-finite nodes
        radius = touches.astype(np.float64) @ np.abs(flat[:, rows, cols]).T
        bound = np.min(d - radius, axis=0)
        # a bound on each node's spectral radius, finite iff the entries read are
        node_scale = np.max(np.abs(d) + radius, axis=0)
    finite = np.isfinite(node_scale)
    keep = ~finite
    if finite.any():
        slack = 1e-10 * float(np.max(node_scale[finite]))
        keep |= bound <= float(np.min(d[:, finite])) + slack
    return float(np.min(np.linalg.eigvalsh(flat[keep])))


def cholesky(a):
    """Lower Cholesky factors L (a = L L^*) of every node of a Hermitian
    field, or None when some node is not positive definite or not finite.

    This is the positivity test; like eigvalsh it reads the lower triangle.
    LAPACK's factorization lets NaN through, so the factor's diagonal is
    checked as well: a non-finite entry of the lower triangle reaches it.
    """
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(np.diagonal(factor, axis1=-2, axis2=-1))):
        return None
    return factor


def log_det(factor):
    """log det a = 2 sum_i log Re L_ii from the Cholesky factor a = L L^*."""
    return 2.0 * np.sum(np.log(np.diagonal(factor, axis1=-2, axis2=-1).real), axis=-1)


def positive_log_det(a):
    """log det of every node from its Cholesky factor, or None when some node
    is not positive definite: the positivity test and log det in one."""
    factor = cholesky(a)
    return None if factor is None else log_det(factor)


def require_positive(a, what="metric"):
    """Raise ValidationError unless every node of a is positive definite;
    returns the Cholesky factor. The eigenvalue margin only words the error."""
    factor = cholesky(a)
    if factor is None:
        if not np.all(np.isfinite(a)):
            raise ValidationError(f"{what} has non-finite values")
        lam = min_eigenvalue(a)
        raise ValidationError(f"{what} is not positive definite (min eigenvalue {lam:.3e})")
    return factor


def require_same_dim(*fields):
    dims = {f.shape[-1] for f in fields}
    if len(dims) != 1:
        raise ValidationError(f"dimension mismatch between matrix fields: {sorted(dims)}")


# ---------------------------------------------------------------------------
# trace contractions


def _trace(x):
    return np.einsum("...ii->...", x)


def _raise_all(gi, mats):
    """g^{-1} m for each argument; all chain traces reduce to matmul chains."""
    return [gi @ np.asarray(m, dtype=np.complex128) for m in mats]


def s2(g, a, b, gi=None):
    """Polarized 2 e_2: S2(a,a) = (tr_g a)^2 - tr((g^{-1}a)^2)."""
    gi = np.linalg.inv(g) if gi is None else gi
    ra, rb = _raise_all(gi, (a, b))
    return _trace(ra) * _trace(rb) - _trace(ra @ rb)


# ---------------------------------------------------------------------------
# Hodge duals of wedge products


def b1(g, a, gi=None):
    """star(a ^ omega^{n-2}/(n-2)!) = (tr_g a) g - a."""
    gi = np.linalg.inv(g) if gi is None else gi
    return _trace(gi @ a)[..., None, None] * g - a


def b2(g, a, b, gi=None):
    """star(a ^ b ^ omega^{n-3}/(n-3)!), n >= 3."""
    gi = np.linalg.inv(g) if gi is None else gi
    ra, rb = _raise_all(gi, (a, b))
    ta, tb = _trace(ra), _trace(rb)
    s2ab = ta * tb - _trace(ra @ rb)
    return (
        s2ab[..., None, None] * g
        - ta[..., None, None] * b
        - tb[..., None, None] * a
        + g @ (ra @ rb + rb @ ra)
    )


# ---------------------------------------------------------------------------
# the metric-level bijection omega <-> omega^{n-1}


def star_power(omega_ref, omega):
    """(1/(n-1)!) star(omega^{n-1}) as a Hermitian field; the adjugate relative
    to omega_ref: det(a)/det(g) * g a^{-1} g.

    With omega_ref = I and omega = diag(lambda), the result is
    diag(prod_{j != i} lambda_j).
    """
    require_same_dim(omega_ref, omega)
    log_det_ref = log_det(require_positive(omega_ref, "reference metric"))
    ratio = np.exp(log_det(require_positive(omega, "metric")) - log_det_ref)
    return ratio[..., None, None] * (omega_ref @ np.linalg.solve(omega, omega_ref))


def nm1_root(omega_ref, s):
    """Unique positive omega_u with (1/(n-1)!) star(omega_u^{n-1}) = s.

    Via the relative eigendecomposition: with s = U diag(s_i) U* in an
    omega_ref-orthonormal frame, det(lambda) = (prod s_i)^{1/(n-1)} and
    lambda_i = det(lambda)/s_i.
    """
    require_same_dim(omega_ref, s)
    chol = require_positive(omega_ref, "reference metric")
    require_positive(s, "(n-1,n-1) form dual")
    n = s.shape[-1]
    chol_inv = np.linalg.inv(chol)
    s_flat = chol_inv @ s @ np.conj(np.swapaxes(chol_inv, -1, -2))
    vals, vecs = np.linalg.eigh(s_flat)
    det_lam = np.prod(vals, axis=-1) ** (1.0 / (n - 1))
    lam = det_lam[..., None] / vals
    k = (vecs * lam[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    return hermitize(chol @ k @ np.conj(np.swapaxes(chol, -1, -2)))


def star_wedge(omega, alpha):
    """(1/(n-2)!) star(alpha ^ omega^{n-2}) = (tr_omega alpha) omega - alpha.

    alpha is any real (1,1)-form (not necessarily positive); needs n >= 3
    for the wedge to be literal, although the right-hand side is the n = 2
    Hodge star as well.
    """
    require_same_dim(omega, alpha)
    if omega.shape[-1] < 3:
        raise ValidationError("star_wedge needs n >= 3 (omega^{n-2} with n-2 >= 1)")
    require_positive(omega, "metric")
    return b1(omega, alpha)


def relative_eigenvalues(g, a):
    """Eigenvalues of a relative to g (ascending), shape (..., n)."""
    chol_inv = np.linalg.inv(np.linalg.cholesky(g))
    return np.linalg.eigvalsh(chol_inv @ a @ np.conj(np.swapaxes(chol_inv, -1, -2)))
