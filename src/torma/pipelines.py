"""End-to-end pipelines: Calabi-Yau volume prescription for Gauduchon metrics,
prescribed Chern-Ricci curvature, and the torsion-augmented (PHI) route.

Exponent bookkeeping: solving the (n-1,n-1)-level equation with datum
F = (n-1) F' and extracting the (n-1)-th root gives the metric-level
Calabi-Yau equation omega_u^n = e^{F' + b'} omega^n with b' = b/(n-1).

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


def potential_from_form(grid, beta, tol=1e-8):
    """Real F with i ddbar F = beta for a Hermitian (1,1)-field beta.

    Least-squares per Fourier mode against the Hessian symbol; raises
    CohomologyError when the zero mode (the Bott-Chern obstruction) is nonzero
    or the mode-wise fit leaves a residual above tol (beta not exact).
    """
    n = grid.n
    grid.check_field(beta, (n, n))
    # symbol of d_i d_jbar in the full spectrum: hol_i antih_j
    hol, antih = gr.wirtinger_symbols(grid), gr.wirtinger_symbols(grid, anti=True)
    pattern = np.zeros(grid.sizes + (n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            pattern[..., i, j] = hol[i] * antih[j]
    beta_hat = gr.fftn(grid, beta)
    zero = tuple(0 for _ in grid.sizes)
    obstruction = float(np.max(np.abs(beta_hat[zero]))) / grid.num_nodes
    if obstruction > tol:
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
    if residual > tol:
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


def calabi_yau_gauduchon(spec, f_prime, cfg=None, precondition_tol=1e-8,
                         check_preconditions=True):
    """Solve omega_u^n = e^{F' + b'} omega^n with omega_u^{n-1} in the
    omega_0^{n-1} + ddbar-wedge family.

    Requires omega astheno-Kahler and omega_0 Gauduchon (within tolerance), so
    the root metric stays Gauduchon. spec supplies the metrics; its F is
    ignored in favor of (n-1) f_prime.
    """
    grid = spec.grid
    n = spec.n
    if check_preconditions:
        astheno = geo.astheno_defect(grid, spec.omega)
        if astheno is None or astheno > precondition_tol:
            raise ValidationError(
                f"omega is not astheno-Kahler within {precondition_tol:.1e} "
                f"(defect {astheno})"
            )
    # one evaluation serves the precondition and the diagnostics
    omega0_defect = geo.gauduchon_defect(grid, spec.omega0)
    if check_preconditions and omega0_defect > precondition_tol:
        raise ValidationError(
            f"omega_0 is not Gauduchon within {precondition_tol:.1e} "
            f"(defect {omega0_defect:.3e})"
        )
    f_prime = np.asarray(f_prime)
    psi_spec = eq.ProblemSpec(
        grid=grid, variant=eq.Variant.PSI, omega0=spec.omega0, omega=spec.omega,
        F=(n - 1) * f_prime.real, rhs_volume=eq.RhsVolume.OMEGA_N,
    )
    report = sv.continuity_solve(psi_spec, cfg)
    b_prime = report.state.b / (n - 1)
    dual = eq.tilde_metric(psi_spec, report.state.u)
    omega_u = ha.nm1_root(spec.omega, dual)
    # psi_spec's volume reference is omega
    volume_residual = (
        ha.log_det(ha.require_positive(omega_u)) - psi_spec.log_det_ref
        - f_prime.real - b_prime
    )
    return PipelineResult(
        metric=omega_u,
        b_prime=b_prime,
        report=report,
        volume_identity_sup=gr.sup_norm(volume_residual),
        gauduchon_defect=geo.gauduchon_defect(grid, omega_u),
        diagnostics={"b": report.state.b, "omega0_gauduchon_defect": omega0_defect},
    )


def prescribed_ricci(spec, psi, cfg=None, tol=1e-8, precondition_tol=1e-8,
                     check_preconditions=True):
    """Gauduchon metric omega_u with Ric(omega_u) = psi.

    psi must represent the class of Ric(omega): the difference is resolved to a
    potential F' (or a CohomologyError), then the Calabi-Yau pipeline runs with
    that F'.
    """
    grid = spec.grid
    ric = geo.chern_ricci(grid, spec.omega)
    f_prime = potential_from_form(grid, ha.hermitize(ric - psi), tol=tol)
    result = calabi_yau_gauduchon(
        spec, f_prime, cfg, precondition_tol=precondition_tol,
        check_preconditions=check_preconditions,
    )
    ric_defect = gr.sup_norm(geo.chern_ricci(grid, result.metric) - psi)
    result.diagnostics["ricci_defect"] = ric_defect
    result.diagnostics["potential_sup"] = gr.sup_norm(f_prime)
    return result


def phi_pipeline(spec, f_datum, cfg=None, precondition_tol=1e-8,
                 check_preconditions=True):
    """Solve the torsion-augmented equation and return the Gauduchon root.

    omega must be Gauduchon (the root inherits its ddbar-closedness from
    omega_0 since beta_u is ddbar-closed); n >= 3.
    """
    grid = spec.grid
    n = spec.n
    if n < 3:
        raise ValidationError("the PHI pipeline needs n >= 3")
    if check_preconditions:
        omega_defect = geo.gauduchon_defect(grid, spec.omega)
        if omega_defect > precondition_tol:
            raise ValidationError(
                f"omega is not Gauduchon within {precondition_tol:.1e} "
                f"(defect {omega_defect:.3e})"
            )
    f_datum = np.asarray(f_datum)
    phi_spec = eq.ProblemSpec(
        grid=grid, variant=eq.Variant.PHI, omega0=spec.omega0, omega=spec.omega,
        F=f_datum.real, rhs_volume=eq.RhsVolume.OMEGA_N,
    )
    report = sv.continuity_solve(phi_spec, cfg)
    dual = eq.tilde_metric(phi_spec, report.state.u)
    omega_tilde = ha.nm1_root(spec.omega, dual)
    # (n-1)-th root of det Phi_u = e^{F+b} det(omega^{n-1})
    volume_residual = (
        ha.log_det(ha.require_positive(omega_tilde)) - phi_spec.log_det_ref
        - (f_datum.real + report.state.b) / (n - 1)
    )
    return PipelineResult(
        metric=omega_tilde,
        b_prime=report.state.b,
        report=report,
        volume_identity_sup=gr.sup_norm(volume_residual),
        gauduchon_defect=geo.gauduchon_defect(grid, omega_tilde),
        diagnostics={"omega0_gauduchon_defect": geo.gauduchon_defect(grid, spec.omega0)},
    )
