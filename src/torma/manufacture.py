"""Manufactured problems: choose (u*, b*) and generate the matching datum F*.

The ingredients (metrics, u*) come from analytic families and all derivative
data used to assemble F* is evaluated in closed form, never through the grid
transforms. The solver then differentiates the *sampled* metric spectrally, so
the recovered discrete solution differs from u* by genuine spectral truncation
error; doubling the grid must shrink the recovery error by orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import equations as eq
from . import hermitian as ha
from . import testfields as tf
from .errors import ValidationError


@dataclass
class ManufacturedProblem:
    """Sampled problem plus the analytic recipe it came from."""

    spec: eq.ProblemSpec
    u_star: np.ndarray
    b_star: float
    omega_analytic: tf.AnalyticMetric
    omega0_analytic: tf.AnalyticMetric
    u_analytic: tf.TrigScalar

    def state(self):
        return eq.SolveState(u=self.u_star.copy(), b=self.b_star, t=1.0)


def _assemble(grid, variant, omega_a, omega0_a, u_poly, b_star, rhs_volume,
              shrink_guard=True):
    n = grid.n
    g = omega_a.sample(grid)
    g0 = omega0_a.sample(grid)

    # analytic assembly of gt(u*): no grid transforms anywhere
    hess = u_poly.hessian(grid)
    factor = ha.require_positive(g)
    log_det_g = ha.log_det(factor)
    ginv = ha.inverse(factor)
    del factor
    lap = np.einsum("...ij,...ji->...", ginv, hess)
    h = ha.star_power(g, g0, ref_log_det=log_det_g)
    correction = (lap[..., None, None] * g - hess) / (n - 1)
    if variant is eq.Variant.PHI:
        du = u_poly.gradient(grid)
        dbar_g = omega_a.dbar_tensor(grid)
        z, _ = eq.e_term_from_parts(g, du, dbar_g, ginv)
        correction = correction + z
    correction = ha.hermitize(correction)
    del hess, ginv, lap  # not held through the positivity screens below

    # gt is affine in u: shrink u deterministically until gt keeps a healthy
    # positivity margin (random draws can otherwise leave the cone)
    if shrink_guard:
        floor = 0.4 * ha.min_eigenvalue(h)
        scale = 1.0
        while scale > 1.0 / 64.0 and ha.min_eigenvalue(h + scale * correction) <= floor:
            scale *= 0.5
        if scale != 1.0:
            u_poly = u_poly.scaled(scale)
            correction = scale * correction

    gt = h + correction
    margin = ha.min_eigenvalue(gt)
    if margin <= 0.0:
        raise ValidationError(
            f"manufactured tilde metric lost positivity (min eig {margin:.3e}); "
            "reduce the amplitudes"
        )
    u_star = u_poly.sample(grid).real.copy()
    u_star -= np.mean(u_star)

    ref = log_det_g if rhs_volume is eq.RhsVolume.OMEGA_N else ha.log_det(ha.require_positive(h))
    f_star = ha.log_det(ha.require_positive(gt)) - ref - b_star
    spec = eq.ProblemSpec(
        grid=grid, variant=variant, omega0=g0, omega=g, F=f_star, rhs_volume=rhs_volume
    )
    spec.release()  # callers often only read its arrays into a spec of their own
    return ManufacturedProblem(
        spec=spec, u_star=u_star, b_star=b_star,
        omega_analytic=omega_a, omega0_analytic=omega0_a, u_analytic=u_poly,
    )


def manufacture_problem(
    grid,
    variant,
    rng,
    amplitude=0.05,
    metric_amplitude=0.15,
    conformal_amplitude=0.4,
    max_mode=2,
    u_max_mode=1,
    u_family="trig",
    warp_amplitude=0.8,
    b_star=None,
    rhs_volume=eq.RhsVolume.OMEGA_N,
):
    """Random manufactured problem on the given grid.

    amplitude is the sup-norm of u*; the metric mixes a trig matrix
    perturbation with a conformal exp factor (analytic, not band-limited).
    u_family "trig" keeps u* band-limited (the PSI assembly is then exactly
    collocated and recovery reaches machine precision at any resolution);
    "warped" uses A exp(B) so the recovery error carries spectral truncation
    and convergence studies are meaningful for both variants. b_star defaults
    to a small random constant so the b-recovery path is exercised.
    """
    n = grid.n
    active = grid.active_axes
    omega_a = tf.random_analytic_metric(
        n, rng, amplitude=metric_amplitude, max_mode=max_mode,
        conformal_amplitude=conformal_amplitude, active_coords=active,
    )
    omega0_a = tf.random_analytic_metric(
        n, rng, amplitude=metric_amplitude, max_mode=max_mode,
        conformal_amplitude=0.5 * conformal_amplitude, active_coords=active,
    )
    if u_family == "warped":
        u_poly = tf.random_warped_scalar(
            n, rng, amplitude=amplitude, max_mode=u_max_mode,
            warp_amplitude=warp_amplitude, active_coords=active,
        )
    elif u_family == "trig":
        u_poly = tf.random_trig_scalar(
            n, rng, amplitude=amplitude, max_mode=u_max_mode, active_coords=active
        )
    else:
        raise ValidationError(f"unknown u_family {u_family!r}")
    sup = float(np.max(np.abs(u_poly.sample(grid).real)))
    if sup > 0:
        u_poly = u_poly.scaled(amplitude / sup)
    if b_star is None:
        b_star = float(rng.uniform(-0.2, 0.2))
    return _assemble(grid, variant, omega_a, omega0_a, u_poly, b_star, rhs_volume)
