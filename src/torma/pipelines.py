"""End-to-end pipelines: Calabi-Yau volume prescription for Gauduchon metrics,
prescribed Chern-Ricci curvature, and the torsion-augmented (PHI) route.

Exponent bookkeeping: solving the (n-1,n-1)-level equation with datum F
and extracting the (n-1)-th root gives the metric-level equation
omega_u^n = e^{F/(n-1) + b'} omega^n with b' = b/(n-1), in both routes:
the Calabi-Yau route solves with F = (n-1) F', so omega_u^n =
e^{F' + b'} omega^n, and the PHI route with the datum F itself.

On the torus, Bott-Chern classes reduce to the zero Fourier mode: a real
(1,1)-form is ddbar-exact iff its mode-0 matrix vanishes and the complex
Hessian pattern matches mode by mode, which is exactly what the potential
solve below checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import equations as eq
from . import geometry as geo
from . import grid as gr
from . import hermitian as ha
from . import solver as sv
from .errors import CohomologyError, ValidationError

# sup of the closedness defects the pipelines require of their input metrics
PRECONDITION_TOL = 1e-8
# sup of the Bott-Chern obstruction and of the ddbar fit residual accepted
# by potential_from_form
POTENTIAL_TOL = 1e-8


def potential_from_form(grid, beta):
    """Real F with i ddbar F = beta for a Hermitian (1,1)-field beta.

    Least-squares per Fourier mode against the Hessian symbol; raises
    CohomologyError when the zero mode (the Bott-Chern obstruction) or the
    mode-wise fit's residual (beta not exact) exceeds POTENTIAL_TOL, and
    ValidationError for a non-finite beta, which no tolerance check would see.
    """
    n = grid.n
    grid.check_field(beta, (n, n))
    if not np.all(np.isfinite(beta)):
        raise ValidationError("prescribed form has non-finite values")
    # symbol of d_i d_jbar in the full spectrum: hol_i antih_j
    hol, antih = gr.wirtinger_symbols(grid), gr.wirtinger_symbols(grid, anti=True)
    pattern = np.zeros(grid.sizes + (n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            pattern[..., i, j] = hol[i] * antih[j]
    beta_hat = gr.fftn(grid, beta)
    zero = tuple(0 for _ in grid.sizes)
    obstruction = float(np.max(np.abs(beta_hat[zero]))) / grid.num_nodes
    if obstruction > POTENTIAL_TOL:
        raise CohomologyError(
            f"zero Fourier mode of the prescribed form is {obstruction:.3e}; "
            "the class does not match the reference (Bott-Chern obstruction)"
        )
    norm_sq = np.sum(np.abs(pattern) ** 2, axis=(-2, -1))
    # modes with vanishing Hessian symbol (k = 0, Nyquist) carry no potential;
    # any beta content there shows up in the final exactness residual
    degenerate = norm_sq < 1e-12
    norm_sq[degenerate] = 1.0
    f_hat = np.einsum("...ij,...ij->...", np.conj(pattern), beta_hat) / norm_sq
    f_hat[degenerate] = 0.0
    potential = gr.ifftn(grid, f_hat)
    if gr.sup_norm(np.imag(potential)) > 1e-9:
        raise CohomologyError("recovered potential is not real; form is not Hermitian")
    potential = potential.real
    residual = gr.sup_norm(gr.hessian_complex(grid, potential) - beta)
    if residual > POTENTIAL_TOL:
        raise CohomologyError(
            f"prescribed form is not ddbar-exact (fit residual {residual:.3e})"
        )
    return potential


@dataclass
class PipelineResult:
    """Root metric with its constant and the post-hoc validation numbers."""

    metric: np.ndarray
    b_prime: float
    report: sv.SolveReport
    volume_identity_sup: float
    gauduchon_defect: float
    diagnostics: dict


def _require_closed(defect, what):
    """Raise ValidationError unless a closedness defect is within PRECONDITION_TOL."""
    if not defect <= PRECONDITION_TOL:
        raise ValidationError(f"{what} within {PRECONDITION_TOL:.1e} (defect {defect})")


def _root(spec, variant, F, cfg, diagnostics):
    """Solve `variant` with datum F on spec's metrics and take the (n-1)-th root.

    The root omega_u satisfies omega_u^n = e^{F/(n-1) + b'} omega^n with
    b' = b/(n-1); the result carries the sup of that identity's residual,
    the root's Gauduchon defect and `diagnostics` with b added; returned with
    the root's MetricFields, the one factorization of omega_u.
    """
    n = spec.n
    problem = spec.with_datum(variant, F)
    report = sv.continuity_solve(problem, cfg)
    b_prime = report.state.b / (n - 1)
    omega_u = ha.nm1_root(spec.omega, eq.tilde_metric(problem, report.state.u))
    root = geo.MetricFields(spec.grid, omega_u)
    # problem's volume reference is omega
    volume_residual = root.log_det - problem.log_det_ref - problem.F / (n - 1) - b_prime
    result = PipelineResult(
        metric=omega_u,
        b_prime=b_prime,
        report=report,
        volume_identity_sup=gr.sup_norm(volume_residual),
        gauduchon_defect=root.gauduchon_defect(),
        diagnostics={"b": report.state.b, **diagnostics},
    )
    return result, root


def _calabi_yau(spec, f_prime, cfg):
    """calabi_yau_gauduchon's result and the root's MetricFields."""
    if spec.n >= 3:  # at n = 2, i ddbar(omega^0) = 0 for every metric
        _require_closed(spec.metric.astheno_defect(), "omega is not astheno-Kahler")
    # one evaluation serves the precondition and the diagnostics
    omega0_defect = spec.metric0.gauduchon_defect()
    _require_closed(omega0_defect, "omega_0 is not Gauduchon")
    F = (spec.n - 1) * np.asarray(f_prime).real
    return _root(spec, eq.Variant.PSI, F, cfg, {"omega0_gauduchon_defect": omega0_defect})


def calabi_yau_gauduchon(spec, f_prime, cfg=None):
    """Solve omega_u^n = e^{F' + b'} omega^n with omega_u^{n-1} in the
    omega_0^{n-1} + ddbar-wedge family.

    Requires omega astheno-Kahler (every metric is at n = 2) and omega_0
    Gauduchon (within PRECONDITION_TOL), so the root metric stays
    Gauduchon. spec supplies the metrics; its F is ignored in favor of
    (n-1) f_prime.
    """
    return _calabi_yau(spec, f_prime, cfg)[0]


def prescribed_ricci(spec, psi, cfg=None):
    """Gauduchon metric omega_u with Ric(omega_u) = psi.

    psi must represent the class of Ric(omega): the difference is resolved to a
    potential F' (or a CohomologyError), then the Calabi-Yau pipeline runs with
    that F'.
    """
    f_prime = potential_from_form(spec.grid, ha.hermitize(spec.metric.ricci() - psi))
    result, root = _calabi_yau(spec, f_prime, cfg)
    result.diagnostics["ricci_defect"] = gr.sup_norm(root.ricci() - psi)
    result.diagnostics["potential_sup"] = gr.sup_norm(f_prime)
    return result


def phi_pipeline(spec, f_datum, cfg=None):
    """Solve the torsion-augmented equation and return the Gauduchon root.

    omega must be Gauduchon (within PRECONDITION_TOL; the root inherits its
    ddbar-closedness from omega_0 since beta_u is ddbar-closed); n >= 3.
    """
    if spec.n < 3:
        raise ValidationError("the PHI pipeline needs n >= 3")
    _require_closed(spec.metric.gauduchon_defect(), "omega is not Gauduchon")
    omega0_defect = spec.metric0.gauduchon_defect()
    F = np.asarray(f_datum).real
    return _root(spec, eq.Variant.PHI, F, cfg, {"omega0_gauduchon_defect": omega0_defect})[0]
