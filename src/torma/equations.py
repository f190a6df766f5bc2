"""Assembly of the two Monge-Ampere operators, their residuals and linearizations.

Variant PSI solves, in Hodge-dual (metric) form,

    gt = h + ((lap u) g - i ddbar u) / (n-1),     det gt = e^{t F + b} det(ref),

the dual of det(omega_0^{n-1} + i ddbar u ^ omega^{n-2}) = e^{F+b} det(omega^{n-1}).
Variant PHI adds the first-order torsion tensor Z = star E with
E = Re(i du ^ dbar(omega^{n-2})) / (n-1)!, the dual form of the
torsion-augmented (n-1,n-1) operator. Z is linear in du,
Z = Re(sum_p du_p M_p)/(n-1), and M depends on omega only, so each spec
builds it once (ProblemSpec.torsion_operator). ref is det(omega) or
det(omega_h) according to rhs_volume; omega^n is the default, the omega_h^n
family is selectable per run.

The unknown pair is (u, b): u is kept mean-zero during iteration and b is an
explicit scalar; u only enters through derivatives so shifting u is a gauge
move that leaves b untouched.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import geometry as geo
from . import grid as gr
from . import hermitian as ha
from .errors import PositivityError, ValidationError


class Variant(Enum):
    PSI = "psi"
    PHI = "phi"


class RhsVolume(Enum):
    OMEGA_N = "omega_n"
    OMEGA_H_N = "omega_h_n"


@dataclass
class ProblemSpec:
    """Equation data: variant, reference metrics, datum F, volume convention."""

    grid: gr.TorusGrid
    variant: Variant
    omega0: np.ndarray
    omega: np.ndarray
    F: np.ndarray
    rhs_volume: RhsVolume = RhsVolume.OMEGA_N

    def __post_init__(self):
        self.metric0, self.metric  # made now: their factors validate omega_0 and omega
        self._check_datum()

    def _check_datum(self):
        self.grid.check_field(self.F, ())
        if not np.all(np.isfinite(self.F)):
            raise ValidationError("datum F has non-finite values")
        if self.variant is Variant.PHI and self.n < 3:
            raise ValidationError("the PHI variant needs n >= 3")
        if gr.sup_norm(np.imag(self.F)) > 1e-10:
            raise ValidationError("datum F must be real")
        self.F = np.ascontiguousarray(self.F.real)

    @property
    def n(self):
        return self.grid.n

    def with_datum(self, variant, F):
        """The same metrics with another variant and datum F, and omega^n as
        the volume reference: no metric is factored again, since the new spec
        shares this one's MetricFields and omega_h, built here first."""
        self.omega_h  # built first, so that the new spec shares it
        spec = copy.copy(self)
        spec.variant, spec.F, spec.rhs_volume = variant, F, RhsVolume.OMEGA_N
        spec.__dict__.pop("log_det_ref", None)
        spec._check_datum()
        return spec

    def resampled(self, grid):
        """The same problem on another grid: omega_0, omega and F spectrally
        resampled (truncated to coarsen, zero-padded to refine) on half
        spectra, the metrics Hermitian and F real. Raises ValidationError
        when a resampled metric is not positive."""
        return ProblemSpec(
            grid=grid,
            variant=self.variant,
            omega0=gr.resample_hermitian(self.grid, self.omega0, grid),
            omega=gr.resample_hermitian(self.grid, self.omega, grid),
            F=gr.resample(self.grid, self.F, grid),
            rhs_volume=self.rhs_volume,
        )

    @functools.cached_property
    def metric0(self):
        """omega_0's MetricFields, made with the spec; omega_h, the last use
        of its factor, drops it, and a later read makes it again."""
        return geo.MetricFields(self.grid, self.omega0, "omega_0")

    @functools.cached_property
    def metric(self):
        """omega's MetricFields, made with the spec; omega_h releases its
        factor (MetricFields.release)."""
        return geo.MetricFields(self.grid, self.omega, "omega")

    def release(self):
        """Drop both MetricFields, factors included, for a spec that waits
        unsolved: its first evaluation factors the metrics again."""
        for name in ("metric0", "metric"):
            self.__dict__.pop(name, None)

    @functools.cached_property
    def omega_h(self):
        """omega_h = (1/(n-1)!) star(omega_0^{n-1}), a positive Hermitian field,
        from the validation factors, which it releases: a solved spec holds none."""
        omega_h = ha.star_power_factored(self.omega, self.metric0.factor, self.metric.log_det)
        del self.metric0
        self.metric.release()
        return omega_h

    @functools.cached_property
    def torsion_operator(self):
        """M[..., p, i, j] = M(e_p)_{ij} of the torsion term, built on first
        use: the field view of the entrywise buffer M[p, i, j, *nodes] of
        :func:`torsion_operator_entries`.

        Only the PHI assembly and beta_closedness_scalar ask for it, so a PSI
        solve never holds this grid.sizes + (n, n, n) array.
        """
        m = torsion_operator_entries(ha.entrywise(self.omega), self.metric.dbar,
                                     self.metric.gi_entries)
        return ha.as_field(m, 3)

    @functools.cached_property
    def log_det_ref(self):
        """log det of the volume reference: omega, or omega_h for OMEGA_H_N."""
        if self.rhs_volume is RhsVolume.OMEGA_H_N:
            return geo.MetricFields(self.grid, self.omega_h, "volume reference metric").log_det
        return self.metric.log_det


@dataclass
class SolveState:
    """Current potential u (mean-zero), volume constant b, continuity parameter t."""

    u: np.ndarray
    b: float
    t: float = 1.0

    def normalized_sup(self):
        """Copy of u shifted to the reporting normalization sup u = 0."""
        return self.u - np.max(self.u.real)


def _torsion_parts(dbar, gi):
    """(c, d) for D_k = d_kbar g, R_k = g^{-1} D_k and t_k = tr R_k, from the
    entrywise dbar[k, i, j] and g^{-1}: c[p] = sum_k [(g^{-1})_{kp} t_k -
    (R_k g^{-1})_{kp}] and d[j] = sum_k (R_k)_{kj} - t_j, each of shape
    (n, *nodes), node field by node field."""
    n = gi.shape[0]
    t, rows = [], []
    for k in range(n):
        t.append(sum(gi[j, i] * dbar[k, i, j] for i in range(n) for j in range(n)))
        rows.append([sum(gi[k, i] * dbar[k, i, j] for i in range(n)) for j in range(n)])
    c = np.stack([sum(gi[k, p] * t[k] - sum(rows[k][j] * gi[j, p] for j in range(n))
                      for k in range(n)) for p in range(n)])
    d = np.stack([sum(rows[k][j] for k in range(n)) - t[j] for j in range(n)])
    return c, d


def torsion_coefficient(dbar, gi):
    """c[p] with sum_k S2(du x e_k^T, d_kbar g) = du . c, entrywise: dbar is
    dbar[k, i, j] = d_kbar g_{i jbar} and gi = g^{-1} (matrix axes first),
    the result has shape (n, *nodes).

    Closed form with R_k = g^{-1} d_kbar g:
    c_p = sum_k [(g^{-1})_{kp} tr R_k - (R_k g^{-1})_{kp}].
    """
    return _torsion_parts(dbar, gi)[0]


def torsion_operator_entries(g, dbar, gi):
    """M[p, i, j, *nodes] = M(e_p)_{ij} with M(du) = sum_k B2(du x e_k^T, d_kbar g).

    M is the complex-linear part of the E dual, Z = Re(sum_p du_p M_p)/(n-1).
    g, dbar[k, i, j] = d_kbar g_{i jbar} and gi = g^{-1} are entrywise
    (matrix axes first; g may be a strided view). With D_k = d_kbar g,
    R_k = g^{-1} D_k, t_k = tr R_k and c_p from torsion_coefficient
    (docs/conventions.md, "The two operators"):

        (M_p)_ij = c_p g_ij + sum_k (g^{-1})_{kp} [(D_j)_ik - (D_k)_ij]
                   + delta_ip sum_k [(R_k)_{kj} - t_j],

    written into one buffer, the sum over k entry by entry: every other
    allocation is a node field (at 16^3 one fits in cache, where a matrix
    slab does not, and slab temporaries raised the benchmark's peak memory).
    """
    n = gi.shape[0]
    c, d = _torsion_parts(dbar, gi)
    out = np.empty((n, n, n) + gi.shape[2:], dtype=np.complex128)
    for p in range(n):
        np.multiply(c[p], g, out=out[p])
        out[p, p] += d
    del c, d
    for k in range(n):
        for i in range(n):
            for j in range(n):
                diff = dbar[j, i, k] - dbar[k, i, j]
                for p in range(n):
                    out[p, i, j, ...] += gi[k, p] * diff
    return out


def _add_torsion(buf, m, du):
    """buf[i, j] += Z_ij on the lower triangle i >= j of the entrywise buf,
    Z = Re(sum_p du_p M_p)/(n-1) (the Hermitian part of the sum) from the
    entrywise M[p, i, j] and du[p]."""
    n = buf.shape[0]
    for i in range(n):
        for j in range(i + 1):
            w = du[0] * m[0, i, j]
            for p in range(1, n):
                w += du[p] * m[p, i, j]
            if i == j:
                buf[i, i, ...] += w.real / (n - 1)
                continue
            w_t = du[0] * m[0, j, i]
            for p in range(1, n):
                w_t += du[p] * m[p, j, i]
            w += np.conj(w_t)
            w *= 0.5 / (n - 1)
            buf[i, j, ...] += w


def _torsion_term(m, gi, du):
    """(Z, H) from the entrywise torsion operator M, g^{-1} and du[p]: Z as
    a Hermitian (..., n, n) field and H = tr(g^{-1} Z)."""
    z = np.zeros(m.shape[1:], dtype=np.complex128)
    _add_torsion(z, m, du)
    z = ha.from_lower(z)
    return z, ha.trace_product(gi, ha.entrywise(z))


def e_term_from_parts(g, du, dbar_omega, ginv):
    """Torsion tensor Z = star E and its trace H from pointwise ingredients.

    du is the holomorphic gradient field (..., n), dbar_omega d_kbar g_{i jbar}
    (..., k, i, j) and ginv = g^{-1}. Decomposing i du ^ dbar(omega) into
    (1,1)-slot wedges gives star E = Re( sum_k B2(du x e_k, d_kbar g) ) / (n-1).
    """
    gi = ha.entrywise(ginv)
    m = torsion_operator_entries(ha.entrywise(g), ha.entrywise(dbar_omega, 3), gi)
    return _torsion_term(m, gi, ha.entrywise(du, 1))


def e_term(spec, u):
    """(Z, H) for the PHI variant; linear in du, zero for constant omega."""
    if spec.variant is not Variant.PHI:
        raise ValidationError("e_term is defined for the PHI variant only")
    du = gr.holo_gradient(spec.grid, u)
    return _torsion_term(ha.entrywise(spec.torsion_operator, 3), spec.metric.gi_entries,
                         ha.entrywise(du, 1))


def tilde_metric(spec, u):
    """gt = omega_h + ((lap u) omega - i ddbar u)/(n-1) (+ Z for PHI).

    Built entry by entry on the lower triangle of one entrywise buffer and
    completed Hermitian from it (ha.from_lower), so gt == conj(gt^T) bit for
    bit; returned as its (*nodes, n, n) view. lap u is the real field
    tr(omega^{-1} Hess u); a complex u enters through its real part. Not
    guaranteed positive; callers query positivity themselves.
    """
    n = spec.n
    u = np.real(u)
    # a first use builds omega_h here, before the field-sized temporaries below
    omega_h = ha.entrywise(spec.omega_h)
    omega = ha.entrywise(spec.omega)
    parts = gr.hessian_parts(spec.grid, u)
    lap = gr.hessian_trace(spec.metric.gi_entries, parts)
    # the lower entry (j, i) of the Hessian is re - i im of the pair (i, j)
    hess = {(j, i): (re, im) for i, j, re, im in parts}
    del parts
    buf = np.empty((n, n) + spec.grid.sizes, dtype=np.complex128)
    for i in range(n):
        for j in range(i + 1):
            entry = buf[i, j, ...]
            np.multiply(lap, omega[i, j], out=entry)
            if (i, j) in hess:
                re, im = hess[i, j]
                np.subtract(entry.real, re, out=entry.real)
                if im is not None:
                    np.add(entry.imag, im, out=entry.imag)
            entry /= n - 1
            entry += omega_h[i, j]
    del hess, lap
    if spec.variant is Variant.PHI:
        du = gr.holo_gradient(spec.grid, u)
        _add_torsion(buf, ha.entrywise(spec.torsion_operator, 3), ha.entrywise(du, 1))
    return ha.from_lower(buf)


def positivity_margin(gt):
    """Smallest eigenvalue of gt over all nodes (exact, see ha.min_eigenvalue).

    Positivity itself is decided by the Cholesky factor (ha.cholesky); this
    margin is computed only where it is reported or explains a failure.
    """
    return ha.min_eigenvalue(gt)


def violating_nodes(gt):
    lam = np.linalg.eigvalsh(gt)
    return np.argwhere(lam[..., 0] <= 0.0)


def ma_residual(spec, state, gt=None, log_det=None):
    """Log-form residual r = log det gt - log det(ref) - t F - b.

    log det gt comes from gt's Cholesky factor (ha.positive_log_det).
    log_det, when given, is that field and gt is not needed; otherwise gt
    (default: the state's tilde metric) is factored here and PositivityError
    is raised when it is not positive definite.
    """
    if log_det is None:
        if gt is None:
            gt = tilde_metric(spec, state.u)
        log_det = ha.positive_log_det(gt)
        if log_det is None:
            bad = violating_nodes(gt)
            raise PositivityError(
                f"tilde metric not positive (min eigenvalue {positivity_margin(gt):.3e} "
                f"at {len(bad)} nodes)",
                bad_nodes=bad,
            )
    return log_det - spec.log_det_ref - state.t * spec.F - state.b


def _second_order_terms(spec, gti):
    """SecondOrderOperator's second-order terms and coeff_mean, the node mean
    of C = (tr(gt^{-1} g) g^{-1} - gt^{-1})/(n-1), from the entrywise
    gt^{-1}: A_ii = Re C_ii, A_ij = 2 Re C_ij and B_ij = 2 Im C_ij for i < j
    (C is Hermitian)."""
    n = spec.n
    gi = spec.metric.gi_entries
    tab = gr.spectral_table(spec.grid)
    live = set(tab.pairs())
    tr = ha.trace_product(gti, ha.entrywise(spec.omega))
    mean = np.empty((n, n), dtype=np.complex128)
    second = []  # in the order of tab.pairs()
    for i in range(n):
        for j in range(i, n):
            if i == j:
                c = tr * gi[i, i].real
                c -= gti[i, i].real
            else:
                c = tr * gi[i, j]
                c -= gti[i, j]
            c /= n - 1
            mean[i, j] = np.mean(c)
            mean[j, i] = np.conj(mean[i, j])
            if (i, j) not in live:
                continue
            if i == j:
                second.append((i, i, c, None))
            else:
                second.append((i, j, 2.0 * c.real,
                               2.0 * c.imag if tab.im[i][j] is not None else None))
    return second, mean


def _first_order_terms(spec, gti):
    """SecondOrderOperator's first-order terms (p, Re a_p/2, Im a_p/2) of
    a_p = tr(gt^{-1} M_p)/(n-1), so tr(gt^{-1} Z(v)) = Re sum_p a_p d_p v,
    from the entrywise gt^{-1}; none for PSI."""
    if spec.variant is not Variant.PHI:
        return []
    n = spec.n
    m = ha.entrywise(spec.torsion_operator, 3)
    tab = gr.spectral_table(spec.grid)
    terms = []
    for p in tab.live:
        a = sum(gti[i, j] * m[p, j, i] for i in range(n) for j in range(n))
        a *= 0.5 / (n - 1)
        terms.append((p, np.ascontiguousarray(a.real),
                      np.ascontiguousarray(a.imag) if p in tab.y_live else None))
    return terms


class Linearization:
    """Derivative of u -> log det gt(u) at a state, with its discrete transpose.

    apply(v)    = Theta^{i jbar} v_{i jbar} + gt^{i jbar} Z(v)_{i jbar}
                = tr(gt^{-1} dgt(v)),     dgt(v) = ((lap v) g - Hess v)/(n-1) + Z(v)
    the PSI variant drops the Z part. The transpose is taken against the real
    weighted pairing <a, b>_w = sum a b w; spectral derivative matrices are
    exactly antisymmetric, so adjointness holds to roundoff.

    gt^{-1} comes from gt's Cholesky factor: factor, when given, is that
    factor (the caller has already tested positivity); otherwise gt is
    factored here and PositivityError raised when it is not positive
    definite. The operator holds only real coefficient fields and coeff_mean,
    the node mean of the second-order coefficients C (the preconditioner's
    constant-coefficient model).
    """

    def __init__(self, spec, state, gt=None, factor=None):
        self.spec = spec
        self.state = state
        self.gt = tilde_metric(spec, state.u) if gt is None else gt
        if factor is None:
            factor = ha.cholesky(self.gt)
            if factor is None:  # the eigenvalue margin only explains the failure
                raise PositivityError(
                    f"tilde metric not positive (min eig {positivity_margin(self.gt):.3e})"
                )
        gti = ha.entrywise(ha.inverse(factor))
        second, self.coeff_mean = _second_order_terms(spec, gti)
        self.operator = gr.SecondOrderOperator(spec.grid, second, _first_order_terms(spec, gti))

    def apply(self, v):
        """L v for a real field v; a complex v must be real to 1e-10, as F."""
        if np.iscomplexobj(v):
            if gr.sup_norm(v.imag) > 1e-10:
                raise ValidationError("linearization argument v must be real")
            v = v.real
        return self.operator.apply_spectrum(gr.rfftn(self.spec.grid, v))

    def apply_transpose(self, f, weights):
        """L^T f under <a,b>_w; f and the result are real fields (no solver
        caller; perfbench/spans.py traces it)."""
        return self.operator.transpose(weights * f) / weights


def eta_tensor(spec, state):
    """eta both ways: from u (with the PHI Z-correction) and from gt.

    eta = u_{i jbar} + (tr_g h) g - (n-1) h  [+ H g - (n-1) Z for PHI]
        = (tr_g gt) g - (n-1) gt.

    Returns (eta_from_u, eta_from_gt, max pointwise mismatch).
    """
    n = spec.n
    g = spec.omega
    h = spec.omega_h
    hess = gr.hessian_complex(spec.grid, state.u)
    tr_gh = np.einsum("...ij,...ji->...", spec.metric.gi, h)
    eta_u = hess + tr_gh[..., None, None] * g - (n - 1) * h
    if spec.variant is Variant.PHI:
        z, h_tr = e_term(spec, state.u)
        eta_u = eta_u + h_tr[..., None, None] * g - (n - 1) * z
    gt = tilde_metric(spec, state.u)
    tr_ggt = np.einsum("...ij,...ji->...", spec.metric.gi, gt)
    eta_gt = tr_ggt[..., None, None] * g - (n - 1) * gt
    eta_u = ha.hermitize(eta_u)
    eta_gt = ha.hermitize(eta_gt)
    mismatch = float(np.max(np.abs(eta_u - eta_gt)))
    return eta_u, eta_gt, mismatch


# ---------------------------------------------------------------------------
# field identities (trace / reconstruction), used by tests and diagnostics


def trace_identity_residual(spec, u):
    """sup | tr_w(gt) - tr_w(h) - lap u - [H] |."""
    gt = tilde_metric(spec, u)
    lap = gr.laplacian(spec.grid, spec.metric.gi, u)
    lhs = np.einsum("...ij,...ji->...", spec.metric.gi, gt - spec.omega_h) - lap
    if spec.variant is Variant.PHI:
        _, h_tr = e_term(spec, u)
        lhs = lhs - h_tr
    return gr.sup_norm(lhs)


def reconstruction_identity_residual(spec, u):
    """sup-norm defect of the ddbar(u) reconstruction from (h, gt, omega).

    i ddbar u = (n-1) h + (tr_w gt - tr_w h - [H]) omega - (n-1) gt + [(n-1) Z]
    """
    n = spec.n
    gt = tilde_metric(spec, u)
    hess = gr.hessian_complex(spec.grid, u)
    tr_diff = np.einsum("...ij,...ji->...", spec.metric.gi, gt - spec.omega_h)
    rhs = (n - 1) * spec.omega_h + tr_diff[..., None, None] * spec.omega - (n - 1) * gt
    if spec.variant is Variant.PHI:
        z, h_tr = e_term(spec, u)
        rhs = rhs - h_tr[..., None, None] * spec.omega + (n - 1) * z
    return gr.sup_norm(hess - rhs)


def beta_closedness_scalar(spec, u):
    """ddbar defect of beta_u = i ddbar u ^ omega^{n-2} + Re(i du ^ dbar omega^{n-2}).

    beta_u = sigma ^ omega^{n-2} with sigma = Hess u + H omega - (n-1) Z, so the
    generic ddbar top-form scalar applies; the exact answer is zero, and the
    returned field measures the discrete defect of the whole assembly chain.
    """
    if spec.n < 3:
        raise ValidationError("beta_u needs n >= 3")
    hess = gr.hessian_complex(spec.grid, u)
    du = gr.holo_gradient(spec.grid, u)
    z, h_tr = _torsion_term(ha.entrywise(spec.torsion_operator, 3), spec.metric.gi_entries,
                            ha.entrywise(du, 1))
    sigma = hess + h_tr[..., None, None] * spec.omega - (spec.n - 1) * z
    return spec.metric.ddbar_scalar(ha.hermitize(sigma))
