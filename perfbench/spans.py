"""Span tracer for torma, installed from outside the package.

Each traced function is replaced, for the length of a ``with Tracer():``
block, by a wrapper that records a span: its name, its start and end, and
the time its child spans cover. torma's modules call each other through
module attributes (``gr.hessian_complex``, ``ha.b2``, ``spla.gmres``), so
patching those attributes catches calls between modules and inside a module.
The wrappers only call the original and read clocks, so the numerics do not
change; the tests check that traced results are bit-identical.

A layer's self time is its span minus its children. The self times of all
spans plus the root span's own remainder ("untraced remainder") add up to
the traced wall time exactly, by construction.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import scipy.fft
import scipy.sparse.linalg

from torma import equations as eq
from torma import geometry as geo
from torma import grid as gr
from torma import hermitian as ha
from torma import pipelines as pl
from torma import solver as sv
from torma.errors import SolverError

ROOT = "trace.root"
LINE_SEARCH = "solver.line_search"
NEWTON_STEP = "solver.newton_step"

# (owner, attribute, span name); several attributes may share one span name
SPANS = [
    (gr, "hessian_complex", "grid.hessian_complex"),
    (gr, "drop_nyquist", "grid.drop_nyquist"),
    (gr, "holo_gradient", "grid.holo_gradient"),
    (ha, "b2", "hermitian.b2"),
    (ha, "s2", "hermitian.s2"),
    (ha, "min_eigenvalue", "hermitian.min_eigenvalue"),
    (ha, "star_power", "hermitian.star_power"),
    (eq, "tilde_metric", "equations.tilde_metric"),
    (eq, "e_term", "equations.e_term"),
    (eq, "positivity_margin", "equations.positivity_margin"),
    (eq, "ma_residual", "equations.ma_residual"),
    (eq.Linearization, "__init__", "equations.Linearization.build"),
    (eq.Linearization, "apply", "equations.Linearization.apply"),
    (eq.Linearization, "apply_transpose", "equations.Linearization.apply_transpose"),
    (sv.SpectralPreconditioner, "__init__", "solver.precond"),
    (sv.SpectralPreconditioner, "solve_augmented", "solver.precond"),
    (sv.SpectralPreconditioner, "solve_field", "solver.precond"),
    (sv, "gauduchon_factor", "solver.gauduchon_factor"),
    (geo, "metric_defects", "geometry.metric_defects"),
    (geo, "chern_ricci", "geometry.chern_ricci"),
    (geo, "gauduchon_scalar", "geometry.gauduchon_scalar"),
    (pl, "potential_from_form", "pipelines.potential_from_form"),
    (pl, "calabi_yau_gauduchon", "pipelines.calabi_yau_gauduchon"),
    (pl, "prescribed_ricci", "pipelines.prescribed_ricci"),
]
# wrapped with extra bookkeeping below
SPECIAL = ["solver.continuity_solve", NEWTON_STEP, "solver.gmres", "solver.adjoint_kernel"]
FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")
COUNTS = [
    "grid.fft.calls",
    "grid.fft.elems",
    "solver.newton_steps",
    "solver.continuity_halvings",
    "solver.gmres.iters",
    "solver.damping_trials",
    "solver.adjoint_kernel.failed",
]


def span_names():
    """Every span the tracer reports, in report order."""
    names = []
    for _, _, name in SPANS:
        if name not in names:
            names.append(name)
    return names + SPECIAL + [LINE_SEARCH, ROOT]


def metric_names():
    """Names of every per-layer metric, as reported by :meth:`Tracer.metrics`."""
    out = []
    for name in span_names():
        if name != ROOT:
            out += [f"{name}.calls", f"{name}.self_s"]
    return out + COUNTS + [
        "solver.damping_accept_ratio",
        "trace.wall_s",
        "trace.untraced_remainder_s",
    ]


class Tracer:
    """Context manager that patches torma for span timing and counting."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.fft_workers = set()
        self._stack = []
        self._saved = []
        self.wall_s = None

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        if (name == "equations.tilde_metric" and self._stack
                and self._stack[-1][0] == LINE_SEARCH):
            self.counts["solver.damping_trials"] += 1
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        while self._stack[-1] is not frame:
            self._close(self._stack[-1])
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        name = frame[0]
        self.calls[name] += 1
        self.self_s[name] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def _span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return traced

    # -- wrappers with bookkeeping --------------------------------------------

    def _continuity_solve(self, fn):
        def halvings(report):
            # every attempt at a continuity value starts with an iter-0 record;
            # attempts that were not accepted into t_history were halved
            attempts = sum(1 for rec in report.records if rec["iter"] == 0)
            return attempts - len(report.t_history)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open("solver.continuity_solve")
            try:
                report = fn(*args, **kwargs)
            except SolverError as exc:
                if getattr(exc, "report", None) is not None:
                    self.counts["solver.continuity_halvings"] += halvings(exc.report)
                raise
            finally:
                self._close(frame)
            self.counts["solver.continuity_halvings"] += halvings(report)
            return report

        return traced

    def _newton_step(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(NEWTON_STEP)
            try:
                state, info = fn(*args, **kwargs)
            finally:
                self._close(frame)  # also closes the line-search span
            if info["damping"] > 0.0:
                self.counts["solver.newton_steps"] += 1
            return state, info

        return traced

    def _gmres(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iters = 0

            def count(_):
                nonlocal iters
                iters += 1

            if kwargs.get("callback") is None:
                kwargs = dict(kwargs, callback=count, callback_type="pr_norm")
            frame = self._open("solver.gmres")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)
                self.counts["solver.gmres.iters"] += iters
                # the rest of newton_step after its linear solve is the line search
                if self._stack and self._stack[-1][0] == NEWTON_STEP:
                    self._open(LINE_SEARCH)

        return traced

    def _adjoint_kernel(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open("solver.adjoint_kernel")
            try:
                return fn(*args, **kwargs)
            except SolverError:
                self.counts["solver.adjoint_kernel.failed"] += 1
                raise
            finally:
                self._close(frame)

        return traced

    def _fft(self, fn):
        @functools.wraps(fn)
        def counted(x, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == gr.__name__:
                self.counts["grid.fft.calls"] += 1
                self.counts["grid.fft.elems"] += x.size
                self.fft_workers.add(kwargs.get("workers"))
            return fn(x, *args, **kwargs)

        return counted

    # -- install / remove -----------------------------------------------------

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self):
        for owner, attr, name in SPANS:
            self._patch(owner, attr, functools.partial(self._span, name))
        self._patch(sv, "continuity_solve", self._continuity_solve)
        self._patch(sv, "newton_step", self._newton_step)
        self._patch(sv, "adjoint_kernel", self._adjoint_kernel)
        self._patch(scipy.sparse.linalg, "gmres", self._gmres)
        for fname in FFT_NAMES:
            self._patch(scipy.fft, fname, self._fft)
        self._root = self._open(ROOT)
        return self

    def __exit__(self, *exc):
        self.wall_s = self._close(self._root)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- report ---------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the traced block, keyed by metric name."""
        out = {}
        for name in span_names():
            if name != ROOT:
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        trials = self.counts["solver.damping_trials"]
        out["solver.damping_accept_ratio"] = (
            self.counts["solver.newton_steps"] / trials if trials else 1.0
        )
        out["trace.wall_s"] = self.wall_s
        out["trace.untraced_remainder_s"] = self.self_s[ROOT]
        return out

    def self_time_gap(self):
        """|sum of all self times - traced wall|; zero up to float rounding."""
        return abs(sum(self.self_s.values()) - self.wall_s)
