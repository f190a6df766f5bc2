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
    """(a + a^*)/2 at every node, as one new C-ordered array."""
    out = np.conj(np.swapaxes(a, -1, -2), order="C", dtype=np.result_type(a, 0.5))
    out += a
    out *= 0.5
    return out


# ---------------------------------------------------------------------------
# the factor kernel: one Cholesky factorization per field, entry by entry
#
# Each kernel loops in Python over the n x n matrix entries only; every entry
# is one vectorized operation over all nodes. Results live in one (n, n,
# *nodes) buffer, so each entry is a contiguous node field, and are handed out
# as (*nodes, n, n) views of it (as_field).


# eigvalsh's sample in min_eigenvalue: the nodes with the smallest diagonal.
# On the solver's and manufacture's fields the screen's time is flat within
# timing noise from 2 to 32 candidates (docs/conventions.md, "Pointwise kernels").
_CANDIDATES = 8


def as_field(x, axes=2):
    """The (*nodes, matrix axes) view of an entrywise (matrix axes, *nodes)
    array."""
    return np.moveaxis(x, range(axes), range(-axes, 0))


def entrywise(x, axes=2):
    """The entrywise (matrix axes, *nodes) view of a (*nodes, matrix axes)
    field; for a field view of an entrywise buffer, that buffer."""
    return np.moveaxis(x, range(-axes, 0), range(axes))


def _abs2(x):
    return x.real * x.real + x.imag * x.imag


def _factor(a, shift=0.0):
    """Lower Cholesky factor L of a - shift I at every node, and the nodes
    whose pivots are all positive and finite (those that factor).

    Reads the real diagonal and the strict lower triangle of a only, as
    eigvalsh and LAPACK do; shift is a scalar or a per-node field. A NaN or
    infinite entry of the lower triangle reaches a later pivot, so a node
    holding one never factors.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    buf = np.zeros((n, n) + a.shape[:-2], dtype=np.result_type(a.dtype, np.float64))
    ok = np.ones(a.shape[:-2], dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(n):
            pivot = a[..., j, j].real - shift
            for k in range(j):
                pivot = pivot - _abs2(buf[j, k, ...])
            ok &= (pivot > 0.0) & (pivot < np.inf)
            buf[j, j, ...] = np.sqrt(pivot)
            scale = 1.0 / buf[j, j, ...].real
            row = [np.conj(buf[j, k, ...]) for k in range(j)]
            for i in range(j + 1, n):
                entry = buf[i, j, ...]
                entry[...] = a[..., i, j]
                for k in range(j):
                    entry -= buf[i, k, ...] * row[k]
                entry *= scale
    return as_field(buf), ok


def cholesky(a):
    """Lower Cholesky factors L (a = L L^*) of every node of a Hermitian
    field, or None when some node is not positive definite or not finite.

    This is the positivity test; like eigvalsh it reads the real diagonal
    and the lower triangle. The factor is a view of one entrywise buffer.
    """
    factor, ok = _factor(a)
    return factor if np.all(ok) else None


def log_det(factor):
    """log det a = 2 sum_i log Re L_ii from the Cholesky factor a = L L^*."""
    n = factor.shape[-1]
    out = np.log(factor[..., 0, 0].real)
    for j in range(1, n):
        out = out + np.log(factor[..., j, j].real)
    return 2.0 * out


def _triangular_inverse(factor):
    """The entrywise (n, n, *nodes) buffer of L^{-1} for a lower Cholesky
    factor L: lower triangular, zero above the diagonal."""
    n = factor.shape[-1]
    buf = np.zeros((n, n) + factor.shape[:-2], dtype=factor.dtype)
    for j in range(n):
        buf[j, j, ...] = 1.0 / factor[..., j, j].real
    for j in range(n):
        for i in range(j + 1, n):
            entry = buf[i, j, ...]
            np.multiply(factor[..., i, j], buf[j, j, ...].real, out=entry)
            for k in range(j + 1, i):
                entry += factor[..., i, k] * buf[k, j, ...]
            entry *= -buf[i, i, ...].real
    return buf


def _congruence(m, a):
    """The entrywise (n, n, *nodes) buffer of m a m^* for an entrywise lower
    triangular m and a Hermitian field a, lower triangle only (from_lower
    completes it). Reads a's real diagonal and strict lower triangle, as the
    factor does; since m is lower triangular, entry (i, j <= i) needs only
    the lower triangle of m a."""
    n = m.shape[0]
    nodes = np.broadcast_shapes(m.shape[2:], a.shape[:-2])
    dtype = np.result_type(m.dtype, a.dtype)

    def a_entry(q, p):
        if q > p:
            return a[..., q, p]
        return a[..., q, q].real if q == p else np.conj(a[..., p, q])

    ma = np.zeros((n, n) + nodes, dtype=dtype)
    out = np.zeros_like(ma)
    for i in range(n):
        for p in range(i + 1):
            entry = ma[i, p, ...]
            for q in range(i + 1):
                entry += m[i, q, ...] * a_entry(q, p)
        for j in range(i + 1):
            entry = out[i, j, ...]
            for p in range(j + 1):
                entry += ma[i, p, ...] * np.conj(m[j, p, ...])
    return out


def _relative(factor, a):
    """C^{-1} a C^{-*} for the Cholesky factor C of a reference metric: the
    Hermitian field a in a reference-orthonormal frame."""
    return from_lower(_congruence(_triangular_inverse(factor), a))


def from_lower(buf):
    """The (*nodes, n, n) Hermitian field of an entrywise (n, n, *nodes)
    buffer, completed in place from its lower triangle: the upper triangle
    becomes the conjugate of the lower and the diagonal's imaginary part
    zero, so the field is Hermitian bit for bit."""
    n = buf.shape[0]
    for i in range(n):
        if np.iscomplexobj(buf):  # a real buffer has no imaginary part to clear
            buf[i, i, ...].imag = 0.0
        for j in range(i + 1, n):
            np.conj(buf[j, i, ...], out=buf[i, j, ...])
    return as_field(buf)


def trace_product(a, b):
    """tr(a b) = sum_ij a_ij b_ji of entrywise Hermitian a and b, a real
    field from their lower triangles."""
    n = a.shape[0]
    out = a[0, 0].real * b[0, 0].real
    for i in range(1, n):
        out = out + a[i, i].real * b[i, i].real
        for j in range(i):
            out = out + 2.0 * (a[i, j].real * b[i, j].real + a[i, j].imag * b[i, j].imag)
    return out


def inverse(factor):
    """a^{-1} = L^{-*} L^{-1} from the Cholesky factor a = L L^*, Hermitian
    at every node."""
    m = _triangular_inverse(factor)
    n = m.shape[0]
    # m^* m in place, row by row: entry (i, j <= i) reads only m_ij, m_ii and
    # the rows below i, so each row's diagonal is written last
    for i in range(n):
        for j in range(i):
            acc = m[i, i, ...].real * m[i, j, ...]
            for k in range(i + 1, n):
                acc += np.conj(m[k, i, ...]) * m[k, j, ...]
            m[i, j, ...] = acc
        acc = m[i, i, ...].real ** 2
        for k in range(i + 1, n):
            acc += _abs2(m[k, i, ...])
        m[i, i, ...] = acc
    return from_lower(m)


def min_eigenvalue(a):
    """Smallest eigenvalue over all nodes of a Hermitian field.

    Equal to np.min(np.linalg.eigvalsh(a)), which it computes on few nodes:
    eigvalsh of the nodes with the smallest diagonal entries gives a
    candidate lam; a node where a - (lam + delta) I has a Cholesky factor
    cannot hold a smaller eigenvalue, so eigvalsh runs only on the nodes that
    do not factor. delta = 64 n^2 eps (scale + |lam|), scale = n max |a_ij|
    per node, covers the factorization's backward error and eigvalsh's
    roundoff (docs/conventions.md, "Pointwise kernels"). Like eigvalsh, the
    screen reads the real diagonal and the lower triangle only, each entry
    as a node field of a (no copy of a non-contiguous a); a non-finite node
    never factors.
    """
    a = np.asarray(a)
    if a.ndim == 2:
        a = a[None]
    n = a.shape[-1]
    # n max |entry read| bounds each node's spectral radius
    scale = np.abs(a[..., 0, 0].real)
    smallest = a[..., 0, 0].real
    for i in range(1, n):
        scale = np.maximum(scale, np.abs(a[..., i, i].real))
        smallest = np.minimum(smallest, a[..., i, i].real)
        for j in range(i):
            scale = np.maximum(scale, np.abs(a[..., i, j]))
    scale *= n
    smallest = smallest.ravel()
    nodes = smallest.size
    few = min(nodes, _CANDIDATES)
    candidates = np.argpartition(smallest, few - 1)[:few] if few < nodes else np.arange(nodes)
    candidates = np.unravel_index(candidates, a.shape[:-2])
    lam = np.linalg.eigvalsh(a[candidates])
    lam_min = np.min(lam)
    with np.errstate(invalid="ignore", over="ignore"):
        delta = 64.0 * n * n * np.finfo(np.float64).eps * (scale + abs(lam_min))
        _, ok = _factor(a, lam_min + delta)
    ok[candidates] = True
    rest = np.linalg.eigvalsh(a[~ok])
    return float(np.min(np.concatenate([lam.ravel(), rest.ravel()])))


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


def star_power(omega_ref, omega, ref_log_det=None):
    """(1/(n-1)!) star(omega^{n-1}) as a Hermitian field; the adjugate relative
    to omega_ref: det(a)/det(g) * g a^{-1} g.

    With omega_ref = I and omega = diag(lambda), the result is
    diag(prod_{j != i} lambda_j). ref_log_det, when given, is log det omega_ref.
    """
    require_same_dim(omega_ref, omega)
    if ref_log_det is None:
        ref_log_det = log_det(require_positive(omega_ref, "reference metric"))
    return star_power_factored(omega_ref, require_positive(omega, "metric"), ref_log_det)


def star_power_factored(omega_ref, factor, ref_log_det):
    """:func:`star_power` from the Cholesky factor a = L L^* of omega."""
    ratio = np.exp(log_det(factor) - ref_log_det)
    # g a^{-1} g = w^* w with L w = g (forward substitution), a = L L^*
    n = factor.shape[-1]
    nodes = np.broadcast_shapes(factor.shape[:-2], np.shape(omega_ref)[:-2])
    w = np.empty((n, n) + nodes, dtype=np.result_type(factor.dtype, omega_ref.dtype))
    for k in range(n):
        for j in range(n):
            entry = w[k, j, ...]
            entry[...] = omega_ref[..., k, j]
            for l in range(k):
                entry -= factor[..., k, l] * w[l, j, ...]
            entry /= factor[..., k, k].real
    del factor  # freed before the product is allocated, unless the caller holds it
    out = np.zeros_like(w)
    for k in range(n):
        for i in range(n):
            out[i, i, ...] += _abs2(w[k, i, ...])
            for j in range(i):
                out[i, j, ...] += np.conj(w[k, i, ...]) * w[k, j, ...]
    out *= ratio
    return from_lower(out)


def nm1_root(omega_ref, s):
    """Unique positive omega_u with (1/(n-1)!) star(omega_u^{n-1}) = s.

    In the frame of the Cholesky factor C of omega_ref (omega_ref = C C^*),
    lambda = C^{-1} omega_u C^{-*} solves det(lambda) lambda^{-1} = S for
    S = C^{-1} s C^{-*}, so lambda = det(S)^{1/(n-1)} S^{-1}: its inverse and
    log det come from S's one Cholesky factor, which also validates s (S is
    positive exactly when s is; the error's eigenvalue is relative to
    omega_ref). omega_u = C lambda C^*, lower triangle first.
    """
    require_same_dim(omega_ref, s)
    chol = require_positive(omega_ref, "reference metric")
    n = s.shape[-1]
    factor = require_positive(_relative(chol, s), "(n-1,n-1) form dual")
    lam = entrywise(inverse(factor))
    lam *= np.exp(log_det(factor) / (n - 1))
    return from_lower(_congruence(entrywise(chol), as_field(lam)))


def star_wedge(omega, alpha):
    """(1/(n-2)!) star(alpha ^ omega^{n-2}) = (tr_omega alpha) omega - alpha.

    alpha is any real (1,1)-form (not necessarily positive); needs n >= 3
    for the wedge to be literal, although the right-hand side is the n = 2
    Hodge star as well.
    """
    require_same_dim(omega, alpha)
    if omega.shape[-1] < 3:
        raise ValidationError("star_wedge needs n >= 3 (omega^{n-2} with n-2 >= 1)")
    return b1(omega, alpha, inverse(require_positive(omega, "metric")))


def relative_eigenvalues(g, a):
    """Eigenvalues of a relative to g (ascending), shape (..., n); raises
    ValidationError unless g is positive definite."""
    return np.linalg.eigvalsh(_relative(require_positive(g, "metric"), a))
