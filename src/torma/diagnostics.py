"""Monitors for the a priori-estimate quantities and identity checks.

These are regression tripwires, not proofs of universal bounds: the bounding
constants are measured from the data (C_meas below), never asserted a priori. All monitors are read-only on the solve state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import equations as eq
from . import geometry as geo
from . import grid as gr
from . import hermitian as ha

# dealiased_residual refines every grid axis by this factor
DEALIAS_FACTOR = 2


def b_bound_check(spec, state):
    """|b| <= sup|F| + C_meas, with C_meas from the max/min-principle argument.

    At an extremum of u the comparison det gt vs det h gives
    |b| <= sup|tF| + sup|log det(h) - log det(ref)|.
    """
    log_ratio = geo.MetricFields(spec.grid, spec.omega_h, "omega_h").log_det - spec.log_det_ref
    c_meas = gr.sup_norm(log_ratio)
    sup_f = gr.sup_norm(state.t * spec.F)
    return {
        "abs_b": abs(state.b),
        "sup_F": sup_f,
        "C_meas": c_meas,
        "bound": sup_f + c_meas,
        "slack": sup_f + c_meas - abs(state.b),
        "satisfied": bool(abs(state.b) <= sup_f + c_meas + 1e-12),
    }


def c2_monitor(spec, state):
    """sup tr_g(gt) against K = sup|grad u|^2 + 1 (no universal C asserted)."""
    gt = eq.tilde_metric(spec, state.u)
    trace = np.einsum("...ij,...ji->...", spec.metric.gi, gt).real
    k_const = gr.sup_norm(gr.grad_norm_sq(spec.grid, spec.metric.gi, state.u)) + 1.0
    lam = ha.relative_eigenvalues(spec.omega, gt)
    eta_max = lam.sum(axis=-1) - (spec.n - 1) * lam[..., 0]
    lam_max = lam[..., -1]
    tol = 1e-11
    band_ok = bool(
        np.all(lam.sum(axis=-1) / spec.n <= lam_max + tol)
        and np.all(lam_max <= eta_max + tol)
        and np.all(eta_max <= (spec.n - 1) * lam_max + tol)
    )
    return {
        "sup_trace": float(trace.max()),
        "K": k_const,
        "ratio": float(trace.max() / k_const),
        "eta_band_ok": band_ok,
    }


def cherrier_table(spec, state, p_list=(4, 8, 16, 32)):
    """Rows (p, lhs, rhs, ratio) of int |d e^{-pu/2}|^2 w^n <= C p int e^{-pu} w^n.

    Uses the reporting normalization sup u = 0 so the exponentials stay
    bounded by 1 at the top; overflow is reported per-p as saturated.
    """
    u = state.normalized_sup().real
    if np.max(np.asarray(p_list)) > 64:
        raise ValueError("p values above 64 risk overflow; shrink the list")
    weights = gr.log_det_weights(spec.grid, spec.metric.log_det)
    rows = []
    for p in p_list:
        with np.errstate(over="raise"):
            try:
                half = np.exp(-0.5 * p * u)
                grad = gr.grad_norm_sq(spec.grid, spec.metric.gi, half.astype(complex))
                lhs = float(np.sum(grad * weights))
                rhs = float(np.sum(np.exp(-p * u) * weights))
            except FloatingPointError:
                rows.append({"p": int(p), "saturated": True})
                continue
        rows.append({
            "p": int(p),
            "lhs": lhs,
            "rhs": rhs,
            "ratio_over_p": lhs / (p * rhs),
            "saturated": False,
        })
    return rows


def dealiased_residual(spec, state):
    """Residual of the same state evaluated on a spectrally refined grid.

    Cross-check for aliasing in the nonlinear assembly (the padded-grid analog
    of the 3/2 rule, rounded up to the next power of two): all fields are
    zero-pad resampled, so a genuinely converged smooth solve shows a residual
    at the truncation level of the data.
    """
    fine = spec.grid.refined(DEALIAS_FACTOR)
    spec_fine = spec.resampled(fine)
    state_fine = eq.SolveState(
        u=gr.resample(spec.grid, state.u, fine), b=state.b, t=state.t
    )
    log_det = ha.positive_log_det(eq.tilde_metric(spec_fine, state_fine.u))
    if log_det is None:  # not admissible on the fine grid: no residual, sup inf
        return np.inf
    return gr.sup_norm(eq.ma_residual(spec_fine, state_fine, log_det=log_det))


@dataclass
class EstimateReport:
    """All monitored quantities for one solve, JSON-serializable."""

    b_bound: dict
    c2: dict
    cherrier: list
    eta_mismatch: float
    phi_closedness: float | None
    trace_identity: float
    reconstruction_identity: float
    extras: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "b_bound": self.b_bound,
            "c2_ratio": self.c2,
            "cherrier": self.cherrier,
            "eta_dual_mismatch": self.eta_mismatch,
            "phi_closedness": self.phi_closedness,
            "trace_identity_residual": self.trace_identity,
            "reconstruction_identity_residual": self.reconstruction_identity,
            **self.extras,
        }


def estimate_report(spec, state):
    """Full diagnostics bundle on a (solved or in-progress) state."""
    _, _, eta_mismatch = eq.eta_tensor(spec, state)
    phi_defect = None
    if spec.variant is eq.Variant.PHI:
        phi_defect = gr.sup_norm(eq.beta_closedness_scalar(spec, state.u))
    return EstimateReport(
        b_bound=b_bound_check(spec, state),
        c2=c2_monitor(spec, state),
        cherrier=cherrier_table(spec, state),
        eta_mismatch=eta_mismatch,
        phi_closedness=phi_defect,
        trace_identity=eq.trace_identity_residual(spec, state.u),
        reconstruction_identity=eq.reconstruction_identity_residual(spec, state.u),
    )
