"""Newton-continuity solver, adjoint kernel, and Gauduchon conformal factor.

The continuity family raises t from 0 to 1 in

    det gt(u_t) = e^{t F + b_t} det(ref),

warm-starting damped Newton at each step. continuity_solve runs that march
on the coarsest of the grids _levels lists, each with every active axis
halved, and then, in one loop, one Newton solve at t = 1 on each finer grid
from the prolonged answer (nested iteration, the outer loop of full
multigrid; Brandt 1977). When a level fails, the grid asked for marches
instead. The continuity solve and Gauduchon's conformal factor share one
driver: _newton (tolerance, stagnation and budget tests) and _line_search
(the largest damping 2^-k >= MIN_DAMPING whose trial is admissible and
lowers the resolved residual sup). Each equation supplies an evaluation,
carried forward from the accepted trial, and a Newton direction solving the
augmented linear system

    [ L(du) - db = -r ;  mean(du) = 0 ]

by restarted GMRES (_gmres, in numpy), right-preconditioned with the exact
inverse of the constant-coefficient (node-averaged) second-order part,
which is diagonal in Fourier space, so that its residual estimate is the
true residual the stopping test reads. The Krylov vectors
are Parseval-scaled resolved half spectra (_bordered_solve), in which the
Nyquist projection and the preconditioner cost no transform; adjoint_kernel
solves the transposed system there, L^T for L and (0, 1) as the right-hand
side, with the same preconditioner and border. Newton is
inexact: each GMRES solve aims only at the forcing term
_forcing_term(cfg, r) relative to the step's resolved residual sup r, and
the Newton tolerance test, not the linear tolerance, decides accuracy. Only
a member at t = 1 is solved to newton_tol: one before t = 1 only carries
the path and stops at MEMBER_TOL (_member). Positivity of gt is maintained
by step damping only; the equation is never modified.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import equations as eq
from . import geometry as geo
from . import grid as gr
from . import hermitian as ha
from .errors import PositivityError, SolverError, ValidationError

# a continuity step whose first Newton step has to be damped below this is
# too long and is halved (down to SolverConfig.min_t_step)
MIN_FIRST_DAMPING = 0.25
# nested iteration halves every active axis while the coarse grid keeps at
# least this many nodes (coarse grids of 64 nodes cost more than they saved;
# 256, 512 and 4096 paid)
MIN_COARSE_NODES = 256
# inexact Newton: a step from resolved residual sup r solves its linear system
# to the relative tolerance min(FORCING_CAP, max(cfg.linear_tol, FORCING_RATIO r))
FORCING_CAP = 0.01
FORCING_RATIO = 0.1
# a continuity member before t = 1 only carries the path: Newton stops it at
# max(newton_tol, MEMBER_TOL), since the next member starts far above that anyway
MEMBER_TOL = 1e-2
# smallest damping: 17 trials 1, 1/2, ..., 2^-16 bound what a failing line search costs
MIN_DAMPING = 2.0 ** -16
# stagnation: 5 steps that do not halve the residual sup; converging Newton cuts far more
STAGNATION_WINDOW = 5
STAGNATION_FACTOR = 0.5
# GMRES: 60 Krylov vectors per restart bound its memory; after 20 restarts it has failed
LINEAR_RESTART = 60
LINEAR_MAXITER = 1200
# the linear-solve fields of an iterate no Newton step was taken from
NO_LINEAR_SOLVE = {"linear_iterations": 0, "linear_rtol": None, "linear_residual": None}


@dataclass
class SolverConfig:
    """Newton/continuity tuning knobs; linear_tol is the floor of the
    inexact-Newton forcing term and must lie in (0, FORCING_CAP]."""

    newton_tol: float = 1e-11
    max_newton: int = 40
    continuity_steps: tuple = (0.0, 0.5, 1.0)
    min_t_step: float = 1.0 / 256.0
    linear_tol: float = 1e-10

    def __post_init__(self):
        for name in ("newton_tol", "min_t_step"):
            _check_positive(name, getattr(self, name))
        _check_count("max_newton", self.max_newton, 1)
        if not 0.0 < self.linear_tol <= FORCING_CAP:
            raise ValidationError(f"linear_tol must lie in (0, {FORCING_CAP:g}]")
        steps = tuple(float(t) for t in self.continuity_steps)
        # written so that a NaN fails every comparison
        if not (steps and steps[0] == 0.0 and steps[-1] == 1.0
                and all(b > a for a, b in zip(steps, steps[1:]))):
            raise ValidationError("continuity schedule must increase strictly from 0 to 1")
        self.continuity_steps = steps


def _check_positive(name, value):
    """ValidationError unless value is positive and finite."""
    if not 0.0 < value < np.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")


def _check_count(name, value, least):
    """ValidationError unless value is an integer of at least least."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ValidationError(f"{name} must be an integer of at least {least}, got {value!r}")


@dataclass
class SolveReport:
    """Outcome of a continuity solve; records hold one dict per Newton iterate,
    with its member's stopping tolerance "tol" (newton_tol at t = 1,
    max(newton_tol, MEMBER_TOL) before) and the linear solve of the step
    taken from it (NO_LINEAR_SOLVE if none). t_history and b_history hold
    the accepted members; after a failure the report's state, the last good
    one, can be a member before t = 1 accepted at MEMBER_TOL."""

    state: eq.SolveState = None
    converged: bool = False
    residual_sup: float = np.inf
    positivity_margin: float = 0.0
    residual_sup_full: float = np.inf
    t_history: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    b_history: list = field(default_factory=list)
    records: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    message: str = ""

    def u_sup_normalized(self):
        return self.state.normalized_sup()

    def linear_iterations(self):
        """GMRES iterations over all recorded Newton steps."""
        return sum(rec["linear_iterations"] for rec in self.records)

    def write_records(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# spectral constant-coefficient preconditioner


class SpectralPreconditioner:
    """Exact inverse of v -> sum C[i,j] d_j d_ibar v - beta for constant C.

    Solves [Lbar(v) - beta = rho ; mean(v) = s] one Fourier mode at a time;
    solve_spectrum, in _bordered_solve's coordinates, preconditions the
    Newton system and the adjoint-kernel system alike: the symbol is real
    and even, so Lbar is its own transpose, and real fields are solved on
    half spectra.
    """

    def __init__(self, grid, coeff_mean):
        self.grid = grid
        self.symbol = gr.SecondOrderOperator.from_coefficients(grid, coeff_mean).symbol()
        self.zero = tuple(0 for _ in grid.sizes)
        # modes annihilated by the derivative multipliers (k = 0, Nyquist) pass
        # through the preconditioner unchanged
        scale = max(np.max(np.abs(self.symbol)), 1.0)
        self.safe_symbol = np.where(
            np.abs(self.symbol) < 1e-13 * scale, 1.0, self.symbol
        )

    def solve_field(self, rho):
        """Lbar^{-1} rho (no solver caller; perfbench/spans.py traces it)."""
        rho_hat = gr.rfftn(self.grid, rho)
        rho_hat /= self.safe_symbol
        return gr.irfftn(self.grid, rho_hat)

    def solve_spectrum(self, rho_hat, mean_target, scale):
        """(v_hat, beta) solving Lbar(v) - beta = rho, mean(v) = mean_target on
        half spectra in which the constant field 1 has the k = 0 entry scale
        (rfftn: the node count N; _bordered_solve's coordinates: sqrt N)."""
        beta = -(rho_hat[self.zero].real / scale)
        v_hat = rho_hat / self.safe_symbol
        v_hat[self.zero] = mean_target * scale
        return v_hat, beta

    def solve_augmented(self, rho, mean_target=0.0):
        """Solve Lbar(v) - beta = rho (real) with mean(v) = mean_target (no
        solver caller; perfbench/spans.py traces it)."""
        v_hat, beta = self.solve_spectrum(gr.rfftn(self.grid, rho), mean_target,
                                          self.grid.num_nodes)
        return gr.irfftn(self.grid, v_hat), beta


def _forcing_term(cfg, r):
    """GMRES relative tolerance of a Newton step from resolved residual sup r:
    0.1 r, kept between cfg.linear_tol and 0.01 (the forcing term of
    inexact Newton, Dembo, Eisenstat and Steihaug 1982)."""
    return min(FORCING_CAP, max(cfg.linear_tol, FORCING_RATIO * r))


def _givens(f, g):
    """(c, s, r) with [c s; -s c] [f; g] = [r; 0], r carrying the sign of f
    (LAPACK's lartg)."""
    if g == 0.0:
        return 1.0, 0.0, f
    r = math.copysign(math.hypot(f, g), f)
    return abs(f) / abs(r), g / r, r


def _gmres(matvec, psolve, b, rtol, atol):
    """Restarted GMRES on matvec(x) = b from zero, right-preconditioned by
    psolve: at most LINEAR_MAXITER // LINEAR_RESTART cycles of
    LINEAR_RESTART iterations.

    Arnoldi with modified Gram-Schmidt on matvec(psolve(.)) and Givens
    rotations of the Hessenberg matrix, as in scipy.sparse.linalg.gmres
    (Saad and Schultz 1986) but preconditioned on the right (Saad 1993): the
    Krylov space holds y with x = psolve(y), so the least-squares residual
    the rotations carry is the true residual |b - A x|. A cycle ends when
    that estimate reaches max(atol, rtol |b|), or on breakdown; x then gains
    psolve(V y), and the next cycle restarts from the true residual. Returns
    (x, info, linear); info is 0 once the true residual reaches the target
    and the cycle budget otherwise; linear holds the iterations, rtol and
    the last estimate relative to |b|.
    """
    bnrm2 = np.linalg.norm(b)
    atol = max(float(atol), rtol * float(bnrm2))
    estimates = []
    eps = np.finfo(np.float64).eps
    restart = min(LINEAR_RESTART, b.size)
    cycles = max(1, LINEAR_MAXITER // LINEAR_RESTART)
    v = np.empty((restart + 1, b.size))
    h = np.zeros((restart, restart + 1))
    givens = np.zeros((restart, 2))
    x = np.zeros(b.size)
    v[0] = b  # the residual of x = 0
    rnorm = bnrm2
    for _ in range(cycles):
        if rnorm <= atol:
            break
        v[0] *= 1.0 / rnorm
        s = np.zeros(restart + 1)
        s[0] = rnorm
        breakdown = False
        for col in range(restart):
            # psolve's vector waits in the slot Arnoldi fills next, so no
            # Krylov-sized temporary is alive while matvec runs
            v[col + 1] = psolve(v[col])
            w = matvec(v[col + 1])
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                h[col, k] = tmp = np.dot(v[k], w)
                w -= tmp * v[k]
            h1 = np.linalg.norm(w)
            h[col, col + 1] = h1
            v[col + 1] = w
            if h1 <= eps * h0:  # the Krylov space holds the exact solution
                h[col, col + 1] = 0.0
                breakdown = True
            else:
                v[col + 1] *= 1.0 / h1
            for k in range(col):
                c, sn = givens[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + sn * n1, -sn * n0 + c * n1
            c, sn, h[col, col] = _givens(h[col, col], h[col, col + 1])
            givens[col] = c, sn
            h[col, col + 1] = 0.0
            s[col], s[col + 1] = c * s[col], -sn * s[col]
            resid = abs(s[col + 1])
            estimates.append(float(resid / bnrm2))
            if resid <= atol or breakdown:
                break
        # back substitution on the triangular h, a zero pivot dropping its term
        if h[col, col] == 0:
            s[col] = 0.0
        y = s[:col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += psolve(y @ v[:col + 1])
        v[0] = b - matvec(x)
        rnorm = np.linalg.norm(v[0])
        if breakdown:
            break
    return x, 0 if rnorm <= atol else cycles, {
        "linear_iterations": len(estimates), "linear_rtol": rtol,
        "linear_residual": estimates[-1] if estimates else None}


def _bordered_solve(image, rhs_hat, mean, precond, rtol, atol):
    """GMRES on [A(v) - beta = rhs ; mean(v) = mean], image(vh) the half
    spectrum (gr.rfftn) of A v for v of half spectrum vh, rhs_hat that of rhs.

    Solved in the resolved (Nyquist-free) subspace, where the spectral
    Jacobian is not singular. A Krylov vector is the real view of y = w vh
    followed by beta, w the grid's Parseval weights (gr.resolved_weights):
    an isometric copy of (Nyquist-free v, beta), so GMRES takes the iterates
    of the physical formulation, while the projection and the preconditioner
    are diagonal and a matvec costs image's transforms alone
    (docs/conventions.md, "Krylov solve"). Returns (v, beta, info, linear),
    info and linear as in _gmres, v of mean exactly mean.
    """
    grid = precond.grid
    w, w_inv = gr.resolved_weights(grid)
    zero = (0,) * len(grid.sizes)
    # the constant field 1 has y_0 = root, and mean(v) = Re y_0 / root
    root = math.sqrt(grid.num_nodes)

    def spectrum(x):
        return x[:-1].view(np.complex128).reshape(w.shape)

    def pack(yh, beta):
        return np.append(yh.reshape(-1).view(np.float64), beta)

    def matvec(x):
        yh = spectrum(x)
        out = image(yh * w_inv)
        out *= w
        out[zero] -= x[-1] * root
        return pack(out, yh[zero].real / root)

    def psolve(x):
        return pack(*precond.solve_spectrum(spectrum(x), x[-1], root))

    x, info, linear = _gmres(matvec, psolve, pack(rhs_hat * w, mean), rtol, atol)
    vh = spectrum(x) * w_inv
    vh[zero] = mean * grid.num_nodes
    return gr.irfftn(grid, vh), float(x[-1]), info, linear


def _augmented_solve(op, rhs, precond, cfg, rtol):
    """Newton's (v, beta, linear): _bordered_solve of [L(v) - beta = rhs ;
    mean(v) = 0], L the SecondOrderOperator op; SolverError if GMRES misses rtol."""
    grid = op.grid
    # absolute floor: once the linear residual is far below the Newton
    # tolerance, further digits cannot matter
    v, beta, info, linear = _bordered_solve(
        lambda vh: gr.rfftn(grid, op.apply_spectrum(vh)), gr.rfftn(grid, rhs), 0.0,
        precond, rtol, 1e-3 * cfg.newton_tol)
    if info != 0:
        raise SolverError(
            f"inner GMRES did not reach rtol {rtol:.3e} in {linear['linear_iterations']} "
            f"iterations (last residual estimate {linear['linear_residual']:.3e}, "
            f"info={info})"
        )
    return v, beta, linear


# ---------------------------------------------------------------------------
# damped Newton: the shared driver, the Monge-Ampere step, continuity


def _line_search(trial_at, evaluate, sup, what):
    """Largest damping in {1, 1/2, 1/4, ...} >= MIN_DAMPING whose trial
    lowers the resolved residual sup (an inadmissible trial, gt not positive,
    evaluates to the sup inf); returns (damping, trial, evaluation)."""
    damping, admissible = 1.0, False
    while damping >= MIN_DAMPING:
        trial = trial_at(damping)
        ev = evaluate(trial)
        if ev["residual_sup"] < sup:
            return damping, trial, ev
        admissible = admissible or ev["residual_sup"] < np.inf
        damping *= 0.5
    if not admissible:
        raise PositivityError(f"{what}: no damping keeps the metric positive")
    raise SolverError(f"{what}: no damping lowers the residual")


def _newton(x, ev, step, tol, max_iter, what, observe=None):
    """Damped Newton from x, evaluated as ev, until its resolved sup is below tol.

    step(it, x, ev) -> (x, ev) is one update, the equation's Newton direction
    and _line_search; at most max_iter are taken. observe(it, x, ev) sees
    every iterate before its test. Returns (x, ev, history of sups); raises
    SolverError on stagnation and when the budget is spent.
    """
    history = []
    window = STAGNATION_WINDOW
    for it in range(max_iter + 1):
        history.append(ev["residual_sup"])
        if observe is not None:
            observe(it, x, ev)
        if history[-1] < tol:
            return x, ev, history
        if it == max_iter:
            raise SolverError(f"{what}: budget of {max_iter} steps exhausted "
                              f"(residual {history[-1]:.3e})")
        if len(history) > window and history[-1] > STAGNATION_FACTOR * history[-1 - window]:
            raise SolverError(
                f"{what}: stagnation, residual {history[-1 - window]:.3e} -> "
                f"{history[-1]:.3e} over {window} steps"
            )
        x, ev = step(it, x, ev)


def _factored(spec, u):
    """gt(u), its Cholesky factor and log det gt; factor and log det are None
    where gt is not positive."""
    gt = eq.tilde_metric(spec, u)
    factor = ha.cholesky(gt)
    return {"gt": gt, "factor": factor,
            "log_det": None if factor is None else ha.log_det(factor)}


def _ma_evaluation(spec, state, carry=None):
    """The state's gt, log det gt, residual and resolved residual sup.

    Newton convergence and step acceptance are measured on the resolved
    (Nyquist-free) part of the residual: the collocation system is solvable
    only there, the complement being pure aliasing of the nonlinearity. The
    full-field residual is reported separately in SolveReport. One Cholesky
    factorization of gt (ha.cholesky) is both the positivity test and log
    det, and is kept as "factor" for the linearization; a state whose gt has
    no factor has factor, log det and residual None and the sup inf. The
    positivity margin is left to _margin, for the iterates that are reported.

    carry, an evaluation of the same u at another t or b, hands over its gt,
    factor and log det (they are removed from it, so carry pins no array
    while Newton runs) and its margin; only the residual is recomputed.
    """
    carry = {} if carry is None else carry
    if "gt" in carry:
        ev = {k: carry.pop(k) for k in ("gt", "factor", "log_det")}
    else:
        ev = _factored(spec, state.u)
    if "margin" in carry:
        ev["margin"] = carry["margin"]
    if ev["log_det"] is None:
        return {**ev, "residual": None, "residual_sup": np.inf}
    r = eq.ma_residual(spec, state, log_det=ev["log_det"])
    return {**ev, "residual": r,
            "residual_sup": gr.sup_norm(gr.drop_nyquist(spec.grid, r))}


def _margin(ev):
    """The evaluated state's positivity margin, computed on first request."""
    if "margin" not in ev:
        ev["margin"] = eq.positivity_margin(ev["gt"])
    return ev["margin"]


def newton_step(spec, state, cfg=None, evaluation=None):
    """One damped Newton update of (u, b); returns the new state and step info.

    The largest damping factor in {1, 1/2, 1/4, ...} that keeps gt positive and
    reduces the resolved residual sup is applied; no eigenvalue clipping ever.
    info["damping"] is the factor taken (0.0 when the state has already
    converged); "linear_iterations", "linear_rtol" and "linear_residual"
    describe the step's GMRES solve (NO_LINEAR_SOLVE when none was needed);
    info also holds the new state's evaluation: "gt", "factor",
    "log_det", "residual" and "residual_sup" (the positivity margin is
    computed only by whoever reports the state). evaluation, when given, is
    the state's own (the info of the step that made it) and nothing is
    recomputed; its factor is released once the linearization is built.
    """
    cfg = cfg or SolverConfig()
    ev = _ma_evaluation(spec, state) if evaluation is None else evaluation
    if ev["residual"] is None:
        raise PositivityError(f"tilde metric not positive (min eig {_margin(ev):.3e})")
    if ev["residual_sup"] < cfg.newton_tol:
        return state, {**ev, "damping": 0.0, **NO_LINEAR_SOLVE}
    lin = eq.Linearization(spec, state, gt=ev["gt"], factor=ev["factor"])
    ev["factor"] = None  # served; not held through GMRES and the line search
    precond = SpectralPreconditioner(spec.grid, lin.coeff_mean)
    du, db, linear = _augmented_solve(lin.operator, -ev["residual"], precond, cfg,
                                      _forcing_term(cfg, ev["residual_sup"]))

    def trial_at(damping):
        u = state.u + damping * du
        return eq.SolveState(u=u - np.mean(u), b=state.b + damping * db, t=state.t)

    damping, trial, ev = _line_search(
        trial_at, lambda s: _ma_evaluation(spec, s), ev["residual_sup"],
        f"Newton at t={state.t:.4f}",
    )
    return trial, {**ev, "damping": damping, **linear}


def _start(spec, u0=None, t=0.0):
    """initial_state and the start's evaluation: gt, its factor and log det gt."""
    if u0 is None:
        u0 = np.zeros(spec.grid.sizes)
    u0 = np.asarray(u0)
    spec.grid.check_field(u0)
    if not np.all(np.isfinite(u0)):
        raise ValidationError("initial potential u0 has non-finite values")
    if gr.sup_norm(np.imag(u0)) > 1e-10:
        raise ValidationError("initial potential u0 must be real")
    u0 = np.real(u0).astype(np.float64)
    u0 -= np.mean(u0)
    state = eq.SolveState(u=u0, b=0.0, t=t)
    ev = _factored(spec, u0)
    if ev["factor"] is None:
        raise ValidationError("initial potential is not admissible "
                              f"(min eig {eq.positivity_margin(ev['gt']):.3e})")
    state.b = float(np.mean(eq.ma_residual(spec, state, log_det=ev["log_det"]).real))
    return state, ev


def initial_state(spec, u0=None, t=0.0):
    """Admissible start: mean-zero real u0 (default 0) and the mean-matching b.

    u0 must have the grid's shape, be finite and be real (imaginary part at
    most 1e-10, the rule for F); the state holds its real part. Admissible
    means that gt(u0) has a Cholesky factor at every node.
    """
    return _start(spec, u0, t)[0]


def _accept(report, state, ev, history):
    """Make state, evaluated as ev with Newton history history, the report's;
    returns it with its carry. Numbers only: the report pins none of the
    evaluation's arrays."""
    report.state = state
    report.positivity_margin = _margin(ev)
    report.residual_sup = ev["residual_sup"]
    report.residual_sup_full = gr.sup_norm(ev["residual"])
    report.residual_history = history
    report.diagnostics["residual_gap"] = report.residual_sup_full - report.residual_sup
    return state, {k: ev[k] for k in ("gt", "factor", "log_det", "margin")}


def _member(spec, cfg, report, start, carry, min_first_damping):
    """Damped Newton at start.t from start, every iterate recorded in report.

    A member at t = 1 stops below cfg.newton_tol; one before t = 1 only
    carries the path and stops below max(cfg.newton_tol, MEMBER_TOL). Each
    record holds that stopping tolerance as "tol". carry, the evaluation of
    the same u (or None), hands over its arrays as in _ma_evaluation. A first
    step damped below min_first_damping raises SolverError, as do _newton's
    and newton_step's failures. The accepted state becomes the report's and
    joins t_history and b_history; returns it with its carry.
    """
    tol = cfg.newton_tol if start.t >= 1.0 else max(cfg.newton_tol, MEMBER_TOL)

    def record(it, s, e):
        report.records.append({
            "t": s.t, "iter": it, "sizes": list(spec.grid.sizes), "tol": tol,
            "residual_sup": e["residual_sup"], "b": float(s.b),
            "positivity_margin": _margin(e), "damping": None, **NO_LINEAR_SOLVE,
        })

    def step(it, s, e):
        new_state, info = newton_step(spec, s, cfg, evaluation=e)
        report.records[-1].update(
            {k: info[k] for k in ("damping", *NO_LINEAR_SOLVE)})
        if it == 0 and info["damping"] < min_first_damping:
            raise SolverError(f"continuity step to t={s.t:.4f} too long: first "
                              f"Newton step damped to {info['damping']:g}")
        return new_state, info

    state, carry = _accept(report, *_newton(
        start, _ma_evaluation(spec, start, carry), step, tol, cfg.max_newton,
        f"Newton at t={start.t:.4f}", record,
    ))
    report.t_history.append(state.t)
    report.b_history.append(state.b)
    return state, carry


def _march(spec, cfg, u0=None, report=None):
    """March t through the schedule on spec's grid with warm starts and
    adaptive halving; appends to report when given (all of
    continuity_solve's levels share one) and returns it.

    A continuity step is halved when its Newton iteration fails or when its
    first Newton step has to be damped below MIN_FIRST_DAMPING; positivity
    is then kept by shorter steps rather than by near-zero damping. On
    unrecoverable failure raises SolverError with the report attached as
    exc.report, its state the last good one (accepted at the last t reached,
    at MEMBER_TOL when that t is below 1, or this march's start).
    """
    # carry: the evaluation of the last accepted state, handed to the next
    # attempt's start (same u, so only the residual is recomputed)
    state, carry = _start(spec, u0)
    report = SolveReport(state=state) if report is None else report
    members = len(report.t_history)

    # the t = 0 member first (trivial when the residual at u0 is constant)
    for t_target in cfg.continuity_steps:
        t_try = t_target
        while True:
            # a step that cannot be halved further is not judged by its
            # first damping
            can_halve = t_try - state.t > cfg.min_t_step + 1e-14
            start = eq.SolveState(u=state.u, b=state.b, t=t_try)
            try:
                state, carry = _member(spec, cfg, report, start, carry,
                                       MIN_FIRST_DAMPING if can_halve else 0.0)
            except SolverError as exc:
                if can_halve:
                    t_try = state.t + 0.5 * (t_try - state.t)
                    continue
                if len(report.t_history) == members:  # the t = 0 member failed
                    _accept(report, state, _ma_evaluation(spec, state, carry), [])
                report.converged = False
                report.message = f"stopped at t={state.t:.4f}: {exc}"
                err = SolverError(report.message)
                err.report = report
                raise err from exc
            if state.t >= t_target - 1e-14:
                break
            t_try = t_target

    report.converged = True
    report.message = ""
    return report


def _coarse_grid(grid):
    """grid with every active axis halved; None when that grid would hold
    fewer than MIN_COARSE_NODES nodes or an active axis below 4."""
    active = [grid.sizes[a] for a in grid.active_axes]
    if not active or min(active) < 8:
        return None
    if math.prod(active) // 2 ** len(active) < MIN_COARSE_NODES:
        return None
    return grid.coarsened(2)


def _levels(spec):
    """[spec, coarse spec, ...], finest first: each level is the one before it
    resampled to _coarse_grid, down to a grid that coarsens no further or
    whose coarse spec is not admissible (ValidationError)."""
    levels = [spec]
    while (coarse_grid := _coarse_grid(levels[-1].grid)) is not None:
        try:
            levels.append(levels[-1].resampled(coarse_grid))
        except ValidationError:
            break
    return levels


def continuity_solve(spec, cfg=None, u0=None):
    """Solve at t = 1 by nested iteration, or by one march from a given u0.

    Without u0 the problem is solved on the coarser grids of _levels first,
    the continuity march on the coarsest, then one Newton solve at t = 1 on
    each finer grid from the prolonged answer (u resampled up, its real part
    with the mean removed, b kept). When any of these raises SolverError
    (PositivityError), the grid asked for marches instead; no level between
    marches. The report's records hold every level's iterates, coarsest
    first, each with its grid's "sizes" and its member's "tol"; t_history and
    b_history one entry per accepted member per level; the residual numbers
    are the finest level's. diagnostics["coarse_gap"] is sup|u - P u_coarse|
    of the finest level's t = 1 solve, P the prolongation; a solve that
    marched on the grid asked for has none. With u0 the caller has chosen the start: one march.

    Returns a SolveReport at t = 1; on unrecoverable failure raises SolverError
    with the report of the last good state attached as exc.report.
    """
    cfg = cfg or SolverConfig()
    levels = [spec] if u0 is not None else _levels(spec)
    report = SolveReport()
    if len(levels) > 1:
        try:
            level = levels.pop()
            _march(level, cfg, report=report)
            while levels:
                # rebinding level frees the coarse spec before the fine solve
                coarse_grid, level = level.grid, levels.pop()
                u = gr.resample(coarse_grid, report.state.u, level.grid)
                u = u - np.mean(u)
                start = eq.SolveState(u=u, b=report.state.b, t=1.0)
                _member(level, cfg, report, start, None, MIN_FIRST_DAMPING)
            report.diagnostics["coarse_gap"] = gr.sup_norm(report.state.u - start.u)
            return report
        except SolverError:  # and PositivityError
            levels = level = None  # frees the coarse specs
    # march outside the handler, which pins the failed solve's arrays
    return _march(spec, cfg, u0, report)


# ---------------------------------------------------------------------------
# adjoint kernel


@dataclass
class AdjointKernel:
    """Positive kernel function of L^* with sigma = log f; f integrates to 1
    against the tilde-metric volume W. residual_sup is the resolved
    sup|W^{-1} drop_nyquist(L^T(W f))| for f scaled to max 1."""

    f: np.ndarray
    sigma: np.ndarray
    residual_sup: float
    iterations: int


def adjoint_kernel(spec, state, tol=1e-9):
    """Kernel of the adjoint linearization from one bordered GMRES solve.

    L* = W^{-1} L^T W is the adjoint in the L^2 pairing weighted by the
    tilde-metric volume W, so f = g / W for g solving the transposed Newton
    system [L^T(g) - beta = 0 ; mean(g) = 1] (Keller 1977; docs/conventions.md)
    by _bordered_solve to rtol = tol. Resolved, that kernel is one-dimensional,
    so f does not depend on the Krylov start. Raises ValidationError unless
    tol is positive and finite, and SolverError if residual_sup misses tol or
    f changes sign.
    """
    _check_positive("tol", tol)
    ev = _factored(spec, state.u)
    lin = eq.Linearization(spec, state, gt=ev.pop("gt"), factor=ev.pop("factor"))
    grid, op = spec.grid, lin.operator
    weights = gr.log_det_weights(grid, ev["log_det"])
    g, _, info, linear = _bordered_solve(
        lambda gh: op.transpose_spectrum(gr.irfftn(grid, gh)),
        np.zeros(gr.spectral_table(grid).half_shape, dtype=np.complex128), 1.0,
        SpectralPreconditioner(grid, lin.coeff_mean), tol, 0.0)
    f = g / weights
    f /= np.max(np.abs(f))
    residual = gr.sup_norm(gr.drop_nyquist(grid, op.transpose(weights * f)) / weights)
    iterations = linear["linear_iterations"]
    if not residual < tol:
        raise SolverError(
            f"adjoint kernel: |L*f| = {residual:.3e} not below tol {tol:.3e} after "
            f"GMRES to rtol {tol:.3e} in {iterations} iterations (info={info})"
        )
    if f.min() <= 0.0:
        raise SolverError("adjoint kernel changes sign on the grid; refine the discretization")
    f = f / float(np.sum(f * weights))
    return AdjointKernel(f=f, sigma=np.log(f), residual_sup=residual, iterations=iterations)


# ---------------------------------------------------------------------------
# Gauduchon conformal factor


def gauduchon_factor(grid, omega, tol=1e-9, max_newton=30):
    """Mean-zero sigma with e^sigma omega Gauduchon, by Newton on the defect.

    Works on tau = (n-1) sigma: the defect scalar of e^tau omega^{n-1} is

        N(tau)/(n-1)! = lap_g tau + |d tau|^2_g
                        + 2 Re sum_k S2(dtau x e_k, d_kbar g) + rho_0/(n-1)!

    solved by the same damped Newton driver and augmented GMRES machinery as
    the main solver (the scalar unknown absorbs the one-dimensional
    compatibility of the system). Raises ValidationError unless tol is
    positive and finite and max_newton an integer of at least 0.
    """
    _check_positive("tol", tol)
    _check_count("max_newton", max_newton, 0)
    cfg = SolverConfig()
    n = grid.n
    # one factor and one dbar_g serve rho_0 and the cross coefficient
    metric = geo.MetricFields(grid, omega)
    ginv, gi = metric.gi, metric.gi_entries
    rho0 = metric.gauduchon_scalar() / math.factorial(n - 1)
    cross_coeff = eq.torsion_coefficient(metric.dbar, gi)
    del metric
    coeff_mean = np.mean(ginv.reshape(-1, n, n), axis=0)
    precond = SpectralPreconditioner(grid, coeff_mean)
    what = "Gauduchon factor Newton"

    def evaluate(tau):
        """N(tau)/(n-1)!, (g^{-1} dtau)_i, and the sup of the resolved
        mean-free defect."""
        lap = gr.hessian_trace(gi, gr.hessian_parts(grid, tau))
        dtau = np.moveaxis(gr.holo_gradient(grid, tau), -1, 0)
        raised = [sum(gi[i, j] * dtau[j] for j in range(n)) for i in range(n)]
        # |dtau|^2_g = sum_ij conj(dtau_j) g^{ji} dtau_i = Re sum_i conj(dtau_i) raised_i;
        # [i d(tau) ^ dbar(omega^{n-1})]/dV = (n-1)! sum_k S2(dtau x e_k, d_kbar g)
        #                                   = (n-1)! dtau . c
        grad_sq = sum((np.conj(dtau[i]) * raised[i]).real for i in range(n))
        cross = sum(dtau[p] * cross_coeff[p] for p in range(n))
        resid = lap + grad_sq + 2.0 * cross.real + rho0
        resolved = gr.drop_nyquist(grid, resid)
        return {"residual": resid, "raised": raised,
                "residual_sup": gr.sup_norm(resolved - np.mean(resolved))}

    def step(it, tau, ev):
        # N'(tau) v = Re[lap_g v + 2 sum_i (sum_j conj(dtau_j) g^{ji} + c_i) d_i v],
        # sum_j conj(dtau_j) g^{ji} = conj(raised_i)
        first = np.stack([2.0 * (np.conj(r) + c) for r, c in zip(ev["raised"], cross_coeff)],
                         axis=-1)
        jac = gr.SecondOrderOperator.from_coefficients(grid, ginv, first)
        dtau, _, _ = _augmented_solve(jac, -ev["residual"], precond, cfg,
                                      _forcing_term(cfg, ev["residual_sup"]))

        def trial_at(damping):
            trial = tau + damping * dtau
            return trial - np.mean(trial)

        _, tau, ev = _line_search(trial_at, evaluate, ev["residual_sup"], what)
        return tau, ev

    tau = np.zeros(grid.sizes)
    tau, _, _ = _newton(tau, evaluate(tau), step, tol, max_newton, what)
    sigma = (tau / (n - 1)).real
    sigma = sigma - np.mean(sigma)
    conformal = np.exp(sigma)[..., None, None] * omega
    check = geo.MetricFields(grid, conformal).gauduchon_defect()
    if not check < max(10.0 * tol, 1e-7):
        raise SolverError(
            f"post-validation failed: Gauduchon defect {check:.3e} after the "
            "solve converged; the defect evaluation is resolution-limited for "
            "this metric, refine the grid"
        )
    return sigma
