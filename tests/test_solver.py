"""Newton-continuity solver, adjoint kernel, Gauduchon conformal factor."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torma import equations as eq
from torma import geometry as geo
from torma import grid as gr
from torma import hermitian as ha
from torma import pipelines as pl
from torma import solver as sv
from torma import testfields as tf
from torma.errors import PositivityError, SolverError, ValidationError
from torma.manufacture import manufacture_problem

from . import oracle_forms as of


@pytest.fixture
def g3():
    return gr.TorusGrid.reduced(3, 16, active_coords=(0, 2))


@pytest.fixture
def g32():
    # the smallest two-axis grid that nests: 16 x 16 holds MIN_COARSE_NODES
    return gr.TorusGrid.reduced(3, 32, active_coords=(0, 2))


def flat_field(grid):
    return np.broadcast_to(np.eye(grid.n, dtype=complex), grid.sizes + (grid.n, grid.n)).copy()


def flat_spec(grid, F=None, variant=eq.Variant.PSI):
    return eq.ProblemSpec(
        grid=grid, variant=variant, omega0=flat_field(grid), omega=flat_field(grid),
        F=np.zeros(grid.sizes) if F is None else F,
    )


class TestConfig:
    def test_schedule_validation(self):
        with pytest.raises(ValidationError):
            sv.SolverConfig(continuity_steps=(0.0, 0.4, 0.2, 1.0))
        with pytest.raises(ValidationError):
            sv.SolverConfig(continuity_steps=(0.1, 1.0))
        with pytest.raises(ValidationError):
            sv.SolverConfig(newton_tol=0.0)
        # an empty schedule has no first entry; a NaN fails every comparison
        for steps in ((), (0.0, float("nan"), 1.0), (float("nan"), 1.0), (0.0, float("nan"))):
            with pytest.raises(ValidationError, match="continuity schedule"):
                sv.SolverConfig(continuity_steps=steps)

    @pytest.mark.parametrize("field,value", [
        ("max_newton", 0),
        ("max_newton", 2.5),
        ("newton_tol", float("inf")),
        ("min_t_step", 0.0),
        ("min_t_step", float("inf")),
        ("linear_tol", 0.0),
        ("linear_tol", -1e-12),
        ("linear_tol", float("nan")),
        ("linear_tol", float("inf")),
        ("linear_tol", 0.5),
    ])
    def test_rejects_bad_setting(self, field, value):
        with pytest.raises(ValidationError, match=field):
            sv.SolverConfig(**{field: value})


class TestNewton:
    def test_trivial_flat_problem(self, g3):
        report = sv.continuity_solve(flat_spec(g3))
        assert report.converged
        assert abs(report.state.b) < 1e-10
        assert gr.sup_norm(report.state.u) < 1e-10
        assert report.positivity_margin > 0.9

    def test_newton_step_at_exact_solution_is_zero(self, g3, rng):
        prob = manufacture_problem(
            g3, eq.Variant.PSI, rng, conformal_amplitude=0.0, metric_amplitude=0.1
        )
        state = prob.state()
        new_state, info = sv.newton_step(prob.spec, state)
        assert gr.sup_norm(new_state.u - state.u) < 1e-9
        assert abs(new_state.b - state.b) < 1e-10

    def test_newton_step_reuses_passed_evaluation(self, g3, rng, monkeypatch):
        # feeding a step's info back as the next step's evaluation gives the
        # same step as evaluating the state afresh, with one evaluation fewer
        prob = manufacture_problem(g3, eq.Variant.PHI, rng, amplitude=0.02)
        state = sv.initial_state(prob.spec)
        state.t = 1.0
        state, info = sv.newton_step(prob.spec, state)
        calls = []
        tilde_metric = eq.tilde_metric

        def counted(*args):
            calls.append(1)
            return tilde_metric(*args)

        monkeypatch.setattr(eq, "tilde_metric", counted)
        fresh, fresh_info = sv.newton_step(prob.spec, state)
        fresh_calls = len(calls)
        reused, reused_info = sv.newton_step(prob.spec, state, evaluation=info)
        assert len(calls) - fresh_calls == fresh_calls - 1
        np.testing.assert_array_equal(reused.u, fresh.u)
        assert reused.b == fresh.b
        assert reused_info["damping"] == fresh_info["damping"] > 0.0
        assert reused_info["residual_sup"] == fresh_info["residual_sup"]

    def test_report_reuses_last_evaluation(self, g3, rng):
        prob = manufacture_problem(g3, eq.Variant.PHI, rng, conformal_amplitude=0.25)
        report = sv.continuity_solve(prob.spec)
        last = report.records[-1]
        assert report.converged
        assert last["t"] == 1.0 and last["damping"] is None
        assert report.residual_sup == last["residual_sup"]
        assert report.positivity_margin == last["positivity_margin"]

    def test_one_evaluation_per_iterate(self, g3, rng, monkeypatch):
        check_one_evaluation_per_iterate(g3, rng, monkeypatch)

    def test_single_step_contraction_from_zero(self, g3, rng):
        # small-amplitude case: the start sits inside the Newton basin
        prob = manufacture_problem(
            g3, eq.Variant.PSI, rng, amplitude=0.02, conformal_amplitude=0.0,
            metric_amplitude=0.1, b_star=0.0,
        )
        state = sv.initial_state(prob.spec)
        state.t = 1.0
        r0 = gr.sup_norm(eq.ma_residual(prob.spec, state))
        new_state, info = sv.newton_step(prob.spec, state)
        r1 = gr.sup_norm(eq.ma_residual(prob.spec, new_state))
        assert r1 < r0 / 10.0

    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_manufactured_recovery(self, g3, rng, variant):
        prob = manufacture_problem(g3, variant, rng, conformal_amplitude=0.25)
        report = sv.continuity_solve(prob.spec)
        assert report.converged
        err_u = gr.sup_norm(report.state.u - prob.u_star) / gr.sup_norm(prob.u_star)
        assert err_u < 1e-6
        assert abs(report.state.b - prob.b_star) < 1e-8

    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_torsion_operator_built_once_for_phi_only(self, g32, rng, variant, monkeypatch):
        # a PHI spec caches its torsion operator for the whole solve, once per
        # grid level of the nested solve; a PSI solve must never allocate it
        prob = manufacture_problem(g32, variant, rng)
        builds = []
        build = eq.torsion_operator_entries

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(eq, "torsion_operator_entries", counted)
        report = sv.continuity_solve(prob.spec)
        assert report.converged
        levels = {tuple(r["sizes"]) for r in report.records}
        assert levels == {g32.sizes, g32.coarsened(2).sizes}
        assert len(builds) == (len(levels) if variant is eq.Variant.PHI else 0)

    def test_quadratic_convergence_tail(self, g3, rng):
        prob = manufacture_problem(
            g3, eq.Variant.PSI, rng, amplitude=0.05, conformal_amplitude=0.2
        )
        report = sv.continuity_solve(prob.spec)
        tail = [r for r in report.residual_history if r < 1e-2]
        # residual roughly squares once small (generous constant; recorded)
        for a, b in zip(tail, tail[1:]):
            assert b < 50.0 * a * a + 1e-13

    def test_b_invariant_under_potential_shift(self, g3, rng):
        prob = manufacture_problem(
            g3, eq.Variant.PSI, rng, conformal_amplitude=0.0, metric_amplitude=0.1
        )
        state = prob.state()
        r1 = eq.ma_residual(prob.spec, state)
        shifted = eq.SolveState(u=state.u + 0.7, b=state.b, t=state.t)
        r2 = eq.ma_residual(prob.spec, shifted)
        np.testing.assert_allclose(r1, r2, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           shift=st.floats(min_value=-100.0, max_value=100.0),
           variant=st.sampled_from(list(eq.Variant)))
    @settings(max_examples=12, deadline=None)
    def test_b_invariant_under_constant_shift_of_u0(self, seed, shift, variant):
        # u enters only through its derivatives: a constant shift of the start
        # moves the start's b only by the roundoff of adding the constant. The
        # two solves may stop on different iterates, each with residual below
        # newton_tol; the linearization's inverse is at most about 0.1 in sup
        # norm on these near-flat problems (1 on b), so the solved (u, b)
        # agree within 2 newton_tol.
        grid = gr.TorusGrid.reduced(3, 16, active_coords=(0, 2))
        rng = np.random.default_rng(seed)
        prob = manufacture_problem(grid, variant, rng, amplitude=0.04, conformal_amplitude=0.2)
        u0 = tf.random_band_limited_real(grid, rng, amplitude=0.01)
        tol = 1e-14 * (1.0 + abs(shift))
        start = sv.initial_state(prob.spec, u0)
        assert abs(sv.initial_state(prob.spec, u0 + shift).b - start.b) <= tol
        solved_tol = tol + 2.0 * sv.SolverConfig().newton_tol
        base = sv.continuity_solve(prob.spec, u0=u0).state
        moved = sv.continuity_solve(prob.spec, u0=u0 + shift).state
        assert abs(moved.b - base.b) <= solved_tol
        assert gr.sup_norm(moved.u - base.u) <= solved_tol

    def test_adaptive_halving_recovers_stiff_step(self):
        # datum large enough that the direct jump to t = 1 loses positivity;
        # the solver must insert intermediate continuity steps and finish
        grid = gr.TorusGrid.reduced(2, 32)
        F = (4.0 * np.cos(2 * np.pi * grid.coordinate(0)).real)
        spec = eq.ProblemSpec(
            grid=grid, variant=eq.Variant.PSI, omega0=flat_field(grid),
            omega=flat_field(grid), F=F,
        )
        cfg = sv.SolverConfig(continuity_steps=(0.0, 1.0), max_newton=25)
        report = sv.continuity_solve(spec, cfg)
        assert report.converged
        assert len(report.t_history) > 2  # halving actually kicked in
        assert report.t_history[-1] == 1.0
        assert report.positivity_margin > 0

    @pytest.mark.parametrize("min_t_step,halved", [(1.0 / 256.0, True), (1.0, False)])
    def test_first_step_damping_limits_continuity_step(self, min_t_step, halved, monkeypatch):
        # the direct jump's first Newton step is damped to 1/4: below a floor
        # of 1/2, so the step is halved while it still may be; a step of
        # min_t_step goes ahead with damped Newton
        monkeypatch.setattr(sv, "MIN_FIRST_DAMPING", 0.5)
        grid = gr.TorusGrid.reduced(2, 32)
        F = 2.0 * np.cos(2 * np.pi * grid.coordinate(0)).real
        spec = eq.ProblemSpec(
            grid=grid, variant=eq.Variant.PSI, omega0=flat_field(grid),
            omega=flat_field(grid), F=F,
        )
        cfg = sv.SolverConfig(continuity_steps=(0.0, 1.0), min_t_step=min_t_step)
        report = sv.continuity_solve(spec, cfg)
        assert report.converged
        assert report.t_history[-1] == 1.0
        direct = [r for r in report.records if r["t"] == 1.0 and r["iter"] == 0][0]
        assert direct["damping"] == 0.25
        assert any(0.0 < t < 1.0 for t in report.t_history) == halved

    def test_failure_attaches_last_good_report(self, g3, rng):
        # a datum far outside the reachable cone at the coarse budget
        big_f = 80.0 * np.cos(2 * np.pi * g3.coordinate(0)).real
        spec = flat_spec(g3, F=big_f.astype(float))
        cfg = sv.SolverConfig(max_newton=4, min_t_step=1.0 / 8.0,
                              continuity_steps=(0.0, 1.0))
        with pytest.raises(SolverError) as err:
            sv.continuity_solve(spec, cfg)
        assert hasattr(err.value, "report")
        assert err.value.report.t_history[-1] < 1.0

    @pytest.mark.parametrize(
        "n,variant",
        [(2, eq.Variant.PSI), (4, eq.Variant.PSI), (4, eq.Variant.PHI)],
    )
    def test_other_dimensions(self, n, variant):
        rng = np.random.default_rng(3)
        grid = gr.TorusGrid.reduced(n, 8 if n == 4 else 16, active_coords=(0, 2))
        prob = manufacture_problem(
            grid, variant, rng, amplitude=0.03, conformal_amplitude=0.0,
            metric_amplitude=0.1,
        )
        report = sv.continuity_solve(prob.spec)
        err = gr.sup_norm(report.state.u - prob.u_star) / gr.sup_norm(prob.u_star)
        assert report.converged
        assert err < 1e-9

    def test_uniqueness_from_random_starts(self, g3, rng):
        prob = manufacture_problem(
            g3, eq.Variant.PSI, rng, amplitude=0.04, conformal_amplitude=0.2
        )
        results = []
        for seed in (1, 2):
            r = np.random.default_rng(seed)
            u0 = tf.random_band_limited_real(g3, r, amplitude=0.01)
            report = sv.continuity_solve(prob.spec, u0=u0)
            results.append(report.state)
        du = gr.sup_norm(results[0].u - results[1].u)
        db = abs(results[0].b - results[1].b)
        assert du < 1e-8
        assert db < 1e-8


def check_one_evaluation_per_iterate(grid, rng, monkeypatch):
    """Per grid level, one tilde metric and one Cholesky per distinct u: the
    level's start and every damping trial, none at continuity-attempt starts
    (the last accepted evaluation is carried) and none in Linearization (it
    is handed the factor); an eigenvalue margin only per recorded iterate.
    Returns the levels' sizes, coarsest first."""
    prob = manufacture_problem(grid, eq.Variant.PSI, rng, conformal_amplitude=0.25)
    spec = prob.spec
    spec.omega_h, spec.log_det_ref  # cached before counting
    counts = {"tilde_metric": 0, "cholesky": 0}
    metrics, margins = [], []
    tilde_metric, cholesky, min_eigenvalue = eq.tilde_metric, ha.cholesky, ha.min_eigenvalue

    def counted_tilde_metric(*args, **kwargs):
        counts["tilde_metric"] += 1
        metrics.append(tilde_metric(*args, **kwargs))
        return metrics[-1]

    def counted_cholesky(a):
        # a coarse spec's reference metrics are factored too; count gt's
        counts["cholesky"] += any(a is gt for gt in metrics)
        return cholesky(a)

    def margin(gt):
        margins.append((gt, min_eigenvalue(gt)))
        return margins[-1][1]

    monkeypatch.setattr(eq, "tilde_metric", counted_tilde_metric)
    monkeypatch.setattr(ha, "cholesky", counted_cholesky)
    monkeypatch.setattr(ha, "min_eigenvalue", margin)
    report = sv.continuity_solve(spec)
    records = report.records
    assert report.converged
    sizes = [tuple(r["sizes"]) for r in records]
    assert sizes == sorted(sizes, key=math.prod)  # each level's records together
    levels = list(dict.fromkeys(sizes))
    assert levels[-1] == grid.sizes
    schedule = list(sv.SolverConfig().continuity_steps)
    # no halving, one member per finer level
    assert report.t_history == schedule + [1.0] * (len(levels) - 1)
    trials = sum(1 - math.log2(r["damping"]) for r in records if r["damping"])
    assert counts["tilde_metric"] == len(levels) + trials
    assert counts["cholesky"] == counts["tilde_metric"]
    # later attempt starts on a level repeat the previous record's margin
    carried = [i for i, r in enumerate(records)
               if r["iter"] == 0 and i > 0 and records[i - 1]["sizes"] == r["sizes"]]
    assert len(carried) == len(schedule) - 1
    for i in carried:
        assert records[i]["positivity_margin"] == records[i - 1]["positivity_margin"]
    reported = [r["positivity_margin"] for i, r in enumerate(records) if i not in carried]
    assert [m for _, m in margins] == reported
    for gt, m in margins:
        assert m == of.min_eigenvalue_full(gt)
    assert report.positivity_margin == records[-1]["positivity_margin"]
    assert report.positivity_margin == of.min_eigenvalue_full(
        tilde_metric(spec, report.state.u))
    return levels


def halvings(report):
    """perfbench's count: iter-0 records (attempts) not accepted into t_history."""
    return sum(1 for r in report.records if r["iter"] == 0) - len(report.t_history)


def members(report):
    """The report's records split into continuity members, each starting at
    an iter-0 record."""
    out = []
    for rec in report.records:
        if rec["iter"] == 0:
            out.append([])
        out[-1].append(rec)
    return out


def count_marches(monkeypatch):
    """Record the grid sizes of every _march call from now on."""
    marches = []
    march = sv._march

    def counted(spec, *args, **kwargs):
        marches.append(spec.grid.sizes)
        return march(spec, *args, **kwargs)

    monkeypatch.setattr(sv, "_march", counted)
    return marches


def assert_same_report(a, b):
    np.testing.assert_array_equal(a.state.u, b.state.u)
    for name in ("b", "t"):
        assert getattr(a.state, name) == getattr(b.state, name)
    for name in ("converged", "residual_sup", "residual_sup_full", "positivity_margin",
                 "t_history", "b_history", "residual_history", "records", "diagnostics",
                 "message"):
        assert getattr(a, name) == getattr(b, name), name


def flat_failing_spec(grid):
    # a datum far outside the reachable cone at the coarse budget of cfg below
    return flat_spec(grid, F=(80.0 * np.cos(2 * np.pi * grid.coordinate(0))).real)


class TestNestedIteration:
    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    @pytest.mark.parametrize("grid", [gr.TorusGrid.default(3),
                                      gr.TorusGrid.reduced(3, 32, active_coords=(0, 2))],
                             ids=["16cubed", "32sq"])
    def test_nested_matches_march(self, grid, variant):
        prob = manufacture_problem(grid, variant, np.random.default_rng(5),
                                   conformal_amplitude=0.25)
        nested = sv.continuity_solve(prob.spec)
        direct = sv._march(prob.spec, sv.SolverConfig())
        assert nested.converged and direct.converged
        assert [r["sizes"] for r in nested.records][-1] == list(grid.sizes)
        assert {tuple(r["sizes"]) for r in nested.records} == {grid.sizes,
                                                              grid.coarsened(2).sizes}
        assert gr.sup_norm(nested.state.u - direct.state.u) <= 1e-12
        assert abs(nested.state.b - direct.state.b) <= 1e-12
        assert nested.residual_sup < sv.SolverConfig().newton_tol

    def test_one_evaluation_per_iterate_per_level(self, g32, rng, monkeypatch):
        levels = check_one_evaluation_per_iterate(g32, rng, monkeypatch)
        assert levels == [g32.coarsened(2).sizes, g32.sizes]

    def test_coarsening_floor(self):
        # halve while the coarse grid keeps MIN_COARSE_NODES nodes and every
        # active axis stays a valid size (>= 4)
        assert sv.MIN_COARSE_NODES == 256
        cases = {
            (32, 1, 32, 1, 1, 1): (16, 1, 16, 1, 1, 1),
            (16, 1, 16, 1, 1, 1): None,  # 8 x 8 = 64 nodes
            (16, 1, 16, 1, 16, 1): (8, 1, 8, 1, 8, 1),
            (8, 1, 8, 1, 8, 1): None,
            (8, 8, 8, 8, 8, 8): (4, 4, 4, 4, 4, 4),
            (1024, 1, 4, 1, 1, 1): None,  # an axis of 2
        }
        for sizes, coarse in cases.items():
            got = sv._coarse_grid(gr.TorusGrid(3, sizes))
            assert (got and got.sizes) == coarse, sizes

    def test_records_carry_sizes_and_count_no_halving(self):
        # 64 x 64 -> 32 x 32 -> 16 x 16: a march on 16 x 16, then one member per finer grid
        grid = gr.TorusGrid.reduced(2, 64)
        prob = manufacture_problem(grid, eq.Variant.PSI, np.random.default_rng(2),
                                   conformal_amplitude=0.25)
        report = sv.continuity_solve(prob.spec)
        assert report.converged
        sizes = [tuple(r["sizes"]) for r in report.records]
        assert sorted(set(sizes), reverse=True) == [grid.sizes, grid.coarsened(2).sizes,
                                                    grid.coarsened(4).sizes]
        assert sizes[0] == grid.coarsened(4).sizes and sizes[-1] == grid.sizes
        assert report.t_history == list(sv.SolverConfig().continuity_steps) + [1.0, 1.0]
        assert len(report.b_history) == len(report.t_history)
        assert halvings(report) == 0
        fine = [r for r in report.records if tuple(r["sizes"]) == grid.sizes]
        assert report.residual_history == [r["residual_sup"] for r in fine]
        assert report.residual_sup == fine[-1]["residual_sup"]
        assert report.positivity_margin == fine[-1]["positivity_margin"]

    def test_coarsest_grid_marches_once(self, monkeypatch):
        # 16 x 8 coarsens to 8 x 4, below the floor: one march, its report as is
        grid = gr.TorusGrid(3, (16, 1, 8, 1, 1, 1))
        prob = manufacture_problem(grid, eq.Variant.PHI, np.random.default_rng(3))
        cfg = sv.SolverConfig()
        direct = sv._march(prob.spec, cfg)
        marches = count_marches(monkeypatch)
        report = sv.continuity_solve(prob.spec, cfg)
        assert marches == [grid.sizes]
        assert_same_report(report, direct)
        assert "coarse_gap" not in report.diagnostics

    def test_inadmissible_coarse_spec_marches(self, g32, rng, monkeypatch):
        prob = manufacture_problem(g32, eq.Variant.PSI, rng, conformal_amplitude=0.25)
        direct = sv._march(prob.spec, sv.SolverConfig())
        resampled = []

        def inadmissible(spec, grid):
            resampled.append(grid.sizes)
            raise ValidationError("omega is not positive definite")

        monkeypatch.setattr(eq.ProblemSpec, "resampled", inadmissible)
        marches = count_marches(monkeypatch)
        assert_same_report(sv.continuity_solve(prob.spec), direct)
        assert resampled == [g32.coarsened(2).sizes]
        assert marches == [g32.sizes]

    def test_given_start_marches_once(self, g32, rng, monkeypatch):
        prob = manufacture_problem(g32, eq.Variant.PSI, rng, conformal_amplitude=0.25)
        u0 = tf.random_band_limited_real(g32, np.random.default_rng(1), amplitude=0.01)
        direct = sv._march(prob.spec, sv.SolverConfig(), u0)
        marches = count_marches(monkeypatch)
        report = sv.continuity_solve(prob.spec, u0=u0)
        assert marches == [g32.sizes]
        assert all(r["sizes"] == list(g32.sizes) for r in report.records)
        assert_same_report(report, direct)

    def test_failed_fine_newton_falls_back_to_march(self, g32, rng, monkeypatch):
        prob = manufacture_problem(g32, eq.Variant.PSI, rng, conformal_amplitude=0.25)
        cfg = sv.SolverConfig()
        direct = sv._march(prob.spec, cfg)
        newton_step = sv.newton_step
        failed = []

        def failing(spec, state, *args, **kwargs):
            if spec.grid == g32 and not failed:
                failed.append(state.t)
                raise PositivityError("no damping keeps the metric positive")
            return newton_step(spec, state, *args, **kwargs)

        monkeypatch.setattr(sv, "newton_step", failing)
        marches = count_marches(monkeypatch)
        report = sv.continuity_solve(prob.spec, cfg)
        assert failed == [1.0]
        assert marches == [g32.coarsened(2).sizes, g32.sizes]
        assert report.converged
        np.testing.assert_array_equal(report.state.u, direct.state.u)
        assert report.state.b == direct.state.b
        # coarse march, the failed t = 1 attempt on g32, then g32's own march
        fine = [i for i, r in enumerate(report.records) if r["sizes"] == list(g32.sizes)]
        attempt = report.records[fine[0]]
        assert attempt["t"] == 1.0 and attempt["iter"] == 0 and attempt["damping"] is None
        assert report.records[fine[0] + 1:] == direct.records
        assert report.t_history == direct.t_history + direct.t_history
        assert halvings(report) == 1
        assert report.residual_history == direct.residual_history
        assert "coarse_gap" not in report.diagnostics

    def test_failed_coarse_solve_falls_back_to_march(self, g32, monkeypatch):
        # the coarse solve fails: g32 marches on its own grid
        spec = flat_spec(g32, F=(2.0 * np.cos(2 * np.pi * g32.coordinate(0))).real)
        cfg = sv.SolverConfig()
        direct = sv._march(spec, cfg)
        march = sv._march

        def failing_on_coarse(spec, *args, **kwargs):
            if spec.grid != g32:
                raise SolverError("coarse failure")
            return march(spec, *args, **kwargs)

        monkeypatch.setattr(sv, "_march", failing_on_coarse)
        assert_same_report(sv.continuity_solve(spec, cfg), direct)

    def test_failing_intermediate_level_does_not_march(self, monkeypatch):
        # 64 x 64 -> 32 x 32 -> 16 x 16: a failed t = 1 solve on 32 x 32 goes
        # straight to the march on 64 x 64
        grid = gr.TorusGrid.reduced(3, 64, active_coords=(0, 2))
        prob = manufacture_problem(grid, eq.Variant.PSI, np.random.default_rng(4),
                                   conformal_amplitude=0.25)
        middle = grid.coarsened(2)
        newton_step = sv.newton_step

        def failing(spec, state, *args, **kwargs):
            if spec.grid == middle:
                raise PositivityError("no damping keeps the metric positive")
            return newton_step(spec, state, *args, **kwargs)

        monkeypatch.setattr(sv, "newton_step", failing)
        marches = count_marches(monkeypatch)
        report = sv.continuity_solve(prob.spec)
        assert report.converged
        assert marches == [grid.coarsened(4).sizes, grid.sizes]
        assert {tuple(r["sizes"]) for r in report.records} == {
            grid.sizes, middle.sizes, grid.coarsened(4).sizes}

    def test_inadmissible_inner_coarse_spec_marches_there(self, monkeypatch):
        # 64 x 64 -> 32 x 32, whose 16 x 16 spec is not admissible: 32 x 32
        # is the coarsest level and marches, 64 x 64 runs its t = 1 solve
        grid = gr.TorusGrid.reduced(3, 64, active_coords=(0, 2))
        prob = manufacture_problem(grid, eq.Variant.PSI, np.random.default_rng(4),
                                   conformal_amplitude=0.25)
        middle, bottom = grid.coarsened(2), grid.coarsened(4)
        resampled = eq.ProblemSpec.resampled

        def inadmissible_at_bottom(spec, to):
            if to == bottom:
                raise ValidationError("omega is not positive definite")
            return resampled(spec, to)

        monkeypatch.setattr(eq.ProblemSpec, "resampled", inadmissible_at_bottom)
        marches = count_marches(monkeypatch)
        report = sv.continuity_solve(prob.spec)
        assert report.converged
        assert marches == [middle.sizes]
        assert {tuple(r["sizes"]) for r in report.records} == {grid.sizes, middle.sizes}
        assert "coarse_gap" in report.diagnostics

    def test_coarse_specs_freed_before_finest_solve(self, monkeypatch):
        # the peak memory is the finest level's: no coarse spec outlives its
        # level once the grid asked for starts its t = 1 solve
        grid = gr.TorusGrid.reduced(3, 64, active_coords=(0, 2))
        prob = manufacture_problem(grid, eq.Variant.PSI, np.random.default_rng(4),
                                   conformal_amplitude=0.25)
        march, member = sv._march, sv._member
        coarse, alive = [], []

        def watch(spec):
            if spec.grid != grid and not any(ref() is spec for ref in coarse):
                coarse.append(weakref.ref(spec))

        def watched_march(spec, *args, **kwargs):
            watch(spec)
            return march(spec, *args, **kwargs)

        def watched_member(spec, cfg, report, start, *args):
            watch(spec)
            if spec.grid == grid and start.t == 1.0:
                gc.collect()
                alive.append(sum(ref() is not None for ref in coarse))
            return member(spec, cfg, report, start, *args)

        monkeypatch.setattr(sv, "_march", watched_march)
        monkeypatch.setattr(sv, "_member", watched_member)
        assert sv.continuity_solve(prob.spec).converged
        assert len(coarse) == 2
        assert alive == [0]

    def test_unsolvable_problem_marches_once_per_attempted_grid(self, monkeypatch):
        # the coarsest march fails; no level between it and the grid asked
        # for marches, so the solve fails after two marches, not one per level
        grid = gr.TorusGrid.reduced(3, 64, active_coords=(0, 2))
        cfg = sv.SolverConfig(max_newton=4, min_t_step=1.0 / 8.0,
                              continuity_steps=(0.0, 1.0))
        marches = count_marches(monkeypatch)
        with pytest.raises(SolverError) as err:
            sv.continuity_solve(flat_failing_spec(grid), cfg)
        assert marches == [grid.coarsened(4).sizes, grid.sizes]
        report = err.value.report
        assert not report.converged and report.t_history[-1] < 1.0
        assert err.value.args[0] == report.message
        assert {tuple(r["sizes"]) for r in report.records} == {
            grid.coarsened(4).sizes, grid.sizes}
        # the march on the grid asked for fails as the single march does
        with pytest.raises(SolverError) as direct:
            sv._march(flat_failing_spec(grid), cfg)
        assert report.message == direct.value.report.message
        assert report.records[-len(direct.value.report.records):] == direct.value.report.records

    def test_gaps_separate_resolved_from_under_resolved(self, g32):
        # a low-mode trig problem is resolved on 32 x 32; a warped one is not
        low = manufacture_problem(g32, eq.Variant.PSI, np.random.default_rng(1),
                                  conformal_amplitude=0.0, metric_amplitude=0.1, max_mode=1)
        warped = manufacture_problem(g32, eq.Variant.PSI, np.random.default_rng(1),
                                     u_family="warped", u_max_mode=2)
        gaps = []
        for prob in (low, warped):
            report = sv.continuity_solve(prob.spec)
            assert report.converged
            d = report.diagnostics
            assert d["residual_gap"] == report.residual_sup_full - report.residual_sup
            gaps.append((d["coarse_gap"], d["residual_gap"]))
        (coarse_low, resid_low), (coarse_warped, resid_warped) = gaps
        assert coarse_warped > 100.0 * coarse_low
        assert resid_warped > 100.0 * abs(resid_low)


class TestMemberTolerance:
    def test_members_before_t1_stop_at_member_tol(self, monkeypatch):
        # 16^3 PHI nests through 8^3. The coarse march's members before
        # t = 1 only carry the path: solved to newton_tol instead, they reach
        # the same t, take more Newton steps and GMRES iterations, and move
        # the answer only at roundoff (measured 9e-18 in u, 1.4e-17 in b)
        grid = gr.TorusGrid.default(3)
        prob = manufacture_problem(grid, eq.Variant.PHI, np.random.default_rng(3),
                                   u_family="warped")
        newton_tol, member_tol = sv.SolverConfig().newton_tol, sv.MEMBER_TOL
        loose = sv.continuity_solve(prob.spec)
        monkeypatch.setattr(sv, "MEMBER_TOL", newton_tol)
        tight = sv.continuity_solve(prob.spec)
        assert loose.converged and tight.converged
        assert loose.t_history == tight.t_history == [0.0, 0.5, 1.0, 1.0]
        finals = set()
        for member in members(loose):
            t = member[0]["t"]
            tol = newton_tol if t == 1.0 else member_tol
            assert all(r["t"] == t and r["tol"] == tol for r in member)
            assert member[-1]["residual_sup"] < tol
            if t == 1.0:
                finals.add(tuple(member[-1]["sizes"]))
        assert finals == {grid.sizes, grid.coarsened(2).sizes}
        assert all(r["tol"] == newton_tol for r in tight.records)
        assert len(loose.records) < len(tight.records)
        assert loose.linear_iterations() < tight.linear_iterations()
        assert gr.sup_norm(loose.state.u - tight.state.u) <= 2.0 * newton_tol
        assert abs(loose.state.b - tight.state.b) <= 2.0 * newton_tol


class TestDampedNewtonDriver:
    """_newton and _line_search on stub steps and evaluations."""

    def test_stagnation_after_window_without_factor_drop(self):
        # a drop of exactly STAGNATION_FACTOR over the window passes; a flat
        # window after it stagnates
        window = sv.STAGNATION_WINDOW
        sups = [1.0] * window + [sv.STAGNATION_FACTOR] * (window + 1)
        taken = []

        def step(it, x, ev):
            taken.append(it)
            return x + 1, {"residual_sup": sups[x + 1]}

        message = f"stub: stagnation, residual 5.000e-01 -> 5.000e-01 over {window} steps"
        with pytest.raises(SolverError, match=message):
            sv._newton(0, {"residual_sup": sups[0]}, step, 1e-12, 40, "stub")
        assert len(taken) == 2 * window

    @staticmethod
    def line_search(sup_at):
        """_line_search from sup 1 whose trial at damping d evaluates to
        sup_at(d); returns the dampings tried and the result or error."""
        tried = []

        def evaluate(damping):
            tried.append(damping)
            return {"residual_sup": sup_at(damping)}

        try:
            return tried, sv._line_search(lambda d: d, evaluate, 1.0, "stub")
        except SolverError as exc:
            return tried, exc

    def test_all_inadmissible_is_positivity_error(self):
        tried, exc = self.line_search(lambda d: np.inf)
        assert isinstance(exc, PositivityError)
        assert str(exc) == "stub: no damping keeps the metric positive"
        assert tried == [2.0 ** -k for k in range(17)]
        assert len(tried) == math.log2(1.0 / sv.MIN_DAMPING) + 1

    @pytest.mark.parametrize("sup_at", [
        lambda d: 1.0,                            # admissible, never lower
        lambda d: np.inf if d > 1e-3 else 2.0,    # admissible only when small
    ])
    def test_no_lower_residual_is_solver_error(self, sup_at):
        tried, exc = self.line_search(sup_at)
        assert type(exc) is SolverError
        assert str(exc) == "stub: no damping lowers the residual"
        assert tried[-1] == sv.MIN_DAMPING and len(tried) == 17

    @pytest.mark.parametrize("lowers_at", [1.0, 0.25, sv.MIN_DAMPING])
    def test_takes_largest_damping_that_lowers(self, lowers_at):
        tried, (damping, trial, ev) = self.line_search(
            lambda d: 0.5 if d <= lowers_at else 1.0)
        assert damping == trial == lowers_at == tried[-1]
        assert len(tried) == math.log2(1.0 / lowers_at) + 1
        assert ev == {"residual_sup": 0.5}


class TestInexactNewton:
    def test_forcing_term_regimes(self):
        cfg = sv.SolverConfig(linear_tol=1e-10)
        assert sv._forcing_term(cfg, 3.0) == sv.FORCING_CAP == 0.01
        assert sv._forcing_term(cfg, 0.1) == sv.FORCING_CAP
        assert sv._forcing_term(cfg, 0.02) == 0.1 * 0.02
        assert sv._forcing_term(cfg, 1e-6) == 0.1 * 1e-6
        assert sv._forcing_term(cfg, 1e-10) == 1e-10
        assert sv._forcing_term(cfg, 0.0) == 1e-10
        assert sv._forcing_term(sv.SolverConfig(linear_tol=0.01), 1e-9) == 0.01

    def test_newton_step_reports_its_linear_solve(self, g3, rng):
        prob = manufacture_problem(g3, eq.Variant.PSI, rng, conformal_amplitude=0.25)
        state = sv.initial_state(prob.spec)
        state.t = 1.0
        cfg = sv.SolverConfig()
        r0 = sv._ma_evaluation(prob.spec, state)["residual_sup"]
        _, info = sv.newton_step(prob.spec, state, cfg)
        assert info["linear_rtol"] == sv._forcing_term(cfg, r0)
        assert info["linear_iterations"] > 0
        assert 0.0 <= info["linear_residual"] < 1.0
        # a converged state takes no step and solves nothing
        flat = flat_spec(g3)
        _, info = sv.newton_step(flat, sv.initial_state(flat, t=1.0), cfg)
        assert info["damping"] == 0.0
        assert {k: info[k] for k in sv.NO_LINEAR_SOLVE} == sv.NO_LINEAR_SOLVE

    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_forcing_term_saves_linear_work(self, g3, rng, variant, monkeypatch):
        # against exact linear solves (rtol = linear_tol at every step): the
        # same Newton iterates to within one, at least 40% fewer GMRES
        # iterations, and the accuracy of test_manufactured_recovery
        prob = manufacture_problem(g3, variant, rng, conformal_amplitude=0.25)
        inexact = sv.continuity_solve(prob.spec)
        monkeypatch.setattr(sv, "_forcing_term", lambda cfg, r: cfg.linear_tol)
        exact = sv.continuity_solve(prob.spec)
        assert inexact.converged and exact.converged
        assert abs(len(inexact.records) - len(exact.records)) <= 1
        assert inexact.linear_iterations() <= 0.6 * exact.linear_iterations()
        err_u = gr.sup_norm(inexact.state.u - prob.u_star) / gr.sup_norm(prob.u_star)
        assert err_u < 1e-6
        assert abs(inexact.state.b - prob.b_star) < 1e-8
        cfg = sv.SolverConfig()
        stepped = [r for r in inexact.records if r["damping"] is not None]
        assert len(stepped) == len(inexact.records) - len(inexact.t_history)
        for rec in inexact.records:
            if rec["damping"] is None:
                assert {k: rec[k] for k in sv.NO_LINEAR_SOLVE} == sv.NO_LINEAR_SOLVE
            else:
                assert cfg.linear_tol <= rec["linear_rtol"] <= sv.FORCING_CAP
                assert rec["linear_iterations"] > 0
        assert all(r["linear_rtol"] == cfg.linear_tol for r in exact.records
                   if r["damping"] is not None)

    def test_gmres_failure_names_target_and_progress(self, g3, rng, monkeypatch):
        # one Krylov vector per solve cannot reach the first step's rtol
        prob = manufacture_problem(g3, eq.Variant.PSI, rng, conformal_amplitude=0.25)
        state = sv.initial_state(prob.spec)
        state.t = 1.0
        monkeypatch.setattr(sv, "LINEAR_RESTART", 1)
        monkeypatch.setattr(sv, "LINEAR_MAXITER", 1)
        message = (r"inner GMRES did not reach rtol 1\.000e-02 in 1 iterations "
                   r"\(last residual estimate \d\.\d{3}e[-+]\d+, info=1\)")
        with pytest.raises(SolverError, match=message):
            sv.newton_step(prob.spec, state)


def cycles():
    return max(1, sv.LINEAR_MAXITER // sv.LINEAR_RESTART)


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestGmres:
    """solver._gmres against scipy.sparse.linalg.gmres, the algorithm it ports."""

    @pytest.fixture
    def system(self):
        # nonsymmetric, diagonally preconditioned: 43 iterations to rtol 1e-10
        rng = np.random.default_rng(41)
        size = 120
        a = np.diag(rng.uniform(1.0, 10.0, size)) + rng.standard_normal((size, size)) / 4.0
        m = 1.0 / np.diag(a)
        return (lambda x: a @ x), (lambda x: m * x), rng.standard_normal(size)

    def check(self, system, rtol, atol):
        matvec, psolve, b = system
        x, info, linear = sv._gmres(matvec, psolve, b, rtol, atol)
        x_ref, info_ref, estimates = of.gmres_scipy(
            matvec, psolve, b, rtol, atol, sv.LINEAR_RESTART, cycles())
        assert linear["linear_iterations"] == len(estimates) > 0
        assert info == info_ref
        assert rel_diff(x, x_ref) < 1e-12
        # the estimates carry the roundoff of |b|-sized quantities
        assert abs(linear["linear_residual"] - estimates[-1]) < 1e-13
        return info, linear

    def test_converges(self, system):
        info, linear = self.check(system, 1e-10, 0.0)
        assert info == 0 and linear["linear_residual"] < 1e-10

    def test_atol_floor(self, system):
        # the absolute floor, far above rtol |b|, ends the solve
        b = system[2]
        info, linear = self.check(system, 1e-14, 1e-6 * np.linalg.norm(b))
        assert info == 0 and linear["linear_residual"] > 1e-14

    def test_restarted_from_zero(self, system, monkeypatch):
        # 8 vectors per cycle: the solve restarts from the true residual
        monkeypatch.setattr(sv, "LINEAR_RESTART", 8)
        info, linear = self.check(system, 1e-10, 0.0)
        assert info == 0 and linear["linear_iterations"] > 8

    @pytest.mark.parametrize("rtol", [1e-4, 1e-10])
    def test_estimate_is_true_residual(self, system, rtol):
        # right-preconditioned, the last estimate is |b - A x| / |b| (left
        # preconditioning recorded 1.95e-5 against a true 8.2e-5 at rtol 1e-4)
        matvec, psolve, b = system
        x, info, linear = sv._gmres(matvec, psolve, b, rtol, 0.0)
        true = np.linalg.norm(b - matvec(x)) / np.linalg.norm(b)
        assert info == 0 and true <= rtol
        assert abs(linear["linear_residual"] - true) < 1e-14

    def test_budget_exhausted(self, system, monkeypatch):
        monkeypatch.setattr(sv, "LINEAR_RESTART", 4)
        monkeypatch.setattr(sv, "LINEAR_MAXITER", 12)
        info, linear = self.check(system, 1e-12, 0.0)
        assert info == 3 and linear["linear_iterations"] == 12


class TestAugmentedSolveCoordinates:
    """_augmented_solve in resolved half-spectrum coordinates against the
    physical formulation on scipy's GMRES (oracle_forms.augmented_solve_physical):
    the same GMRES iterations and the same (du, db) to 1e-12."""

    def check(self, op, rhs, precond, rtol):
        cfg = sv.SolverConfig()
        du, db, linear = sv._augmented_solve(op, rhs, precond, cfg, rtol)
        du_ref, db_ref, info, iterations = of.augmented_solve_physical(
            op, rhs, precond, cfg, rtol, sv.LINEAR_RESTART, cycles())
        assert info == 0
        assert linear["linear_iterations"] == iterations > 5
        assert rel_diff(du, du_ref) < 1e-12
        assert abs(db - db_ref) < 1e-12 * abs(db_ref)

    @pytest.mark.parametrize("variant,size", [(eq.Variant.PHI, 16), (eq.Variant.PSI, 32)])
    def test_newton_linearization(self, variant, size):
        grid = gr.TorusGrid.reduced(3, size)
        prob = manufacture_problem(grid, variant, np.random.default_rng(9), amplitude=0.05,
                                   conformal_amplitude=0.2)
        state = sv.initial_state(prob.spec, t=1.0)
        lin = eq.Linearization(prob.spec, state)
        rhs = -eq.ma_residual(prob.spec, state)
        self.check(lin.operator, rhs, sv.SpectralPreconditioner(grid, lin.coeff_mean), 1e-8)

    def test_gauduchon_jacobian(self):
        # gauduchon_factor's first Jacobian (tau = 0) at 2 x 64 nodes
        grid = gr.TorusGrid.reduced(3, 64, active_coords=(0, 2))
        omega = tf.random_hermitian_metric(grid, np.random.default_rng(9), amplitude=0.2,
                                           max_mode=1)
        metric = geo.MetricFields(grid, omega)
        ginv = metric.gi
        cross = eq.torsion_coefficient(metric.dbar, metric.gi_entries)
        jac = gr.SecondOrderOperator.from_coefficients(grid, ginv, 2.0 * ha.as_field(cross, 1))
        precond = sv.SpectralPreconditioner(grid, np.mean(ginv.reshape(-1, 3, 3), axis=0))
        self.check(jac, -metric.ddbar_scalar(omega) / 2.0, precond, 1e-8)


class TestAdjointKernel:
    def test_flat_kernel_is_constant(self, g3):
        spec = flat_spec(g3)
        state = eq.SolveState(u=np.zeros(g3.sizes, dtype=complex), b=0.0)
        result = sv.adjoint_kernel(spec, state)
        vol = np.sum(of.volume_weights(g3, flat_field(g3)))
        np.testing.assert_allclose(result.f, 1.0 / vol, atol=1e-9)
        assert result.residual_sup < 1e-9

    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_perturbed_kernel_positive_and_orthogonal(self, g3, rng, variant):
        prob = manufacture_problem(
            g3, variant, rng, amplitude=0.04, conformal_amplitude=0.2
        )
        report = sv.continuity_solve(prob.spec)
        result = sv.adjoint_kernel(prob.spec, report.state)
        assert result.f.min() > 0.0
        assert result.residual_sup < 1e-8
        # orthogonality against L(zeta) for random smooth zeta
        lin = eq.Linearization(prob.spec, report.state)
        w = of.volume_weights(g3, lin.gt)
        for _ in range(10):
            zeta = tf.random_band_limited_real(g3, rng)
            val = abs(np.sum(result.f * lin.apply(zeta) * w))
            assert val < 1e-8
        np.testing.assert_allclose(result.sigma, np.log(result.f), atol=1e-13)

    def test_bordered_solve_at_64sq(self):
        # at 64 nodes per axis a GMRES target of 1e-12 stalls (info=20); the
        # bordered solve's target follows tol
        grid = gr.TorusGrid.reduced(3, 64, active_coords=(0, 2))
        prob = manufacture_problem(grid, eq.Variant.PSI, np.random.default_rng(0),
                                   amplitude=0.04, conformal_amplitude=0.2)
        report = sv.continuity_solve(prob.spec)
        result = sv.adjoint_kernel(prob.spec, report.state)
        assert result.f.min() > 0.0
        assert result.residual_sup < 1e-8
        assert 0 < result.iterations <= sv.LINEAR_RESTART

    def test_missed_residual_names_solve(self, g3, rng, monkeypatch):
        # one Krylov vector cannot resolve the kernel of a perturbed metric
        prob = manufacture_problem(g3, eq.Variant.PSI, rng, amplitude=0.04,
                                   conformal_amplitude=0.2)
        report = sv.continuity_solve(prob.spec)
        monkeypatch.setattr(sv, "LINEAR_RESTART", 1)
        monkeypatch.setattr(sv, "LINEAR_MAXITER", 1)
        message = (r"adjoint kernel: \|L\*f\| = \d\.\d{3}e[-+]\d+ not below tol "
                   r"1\.000e-09 after GMRES to rtol 1\.000e-09 in 1 iterations \(info=1\)")
        calls = self.counted_gmres(monkeypatch)
        with pytest.raises(SolverError, match=message):
            sv.adjoint_kernel(prob.spec, report.state)
        assert len(calls) == 1

    @staticmethod
    def counted_gmres(monkeypatch):
        calls = []
        gmres = sv._gmres

        def wrapped(*args):
            calls.append(args)
            return gmres(*args)

        monkeypatch.setattr(sv, "_gmres", wrapped)
        return calls

    def test_former_retry_input_passes_in_one_solve(self, monkeypatch):
        # an input of the prescribed-Ricci pipeline (64^2, n = 3) whose
        # full-field |L*f| missed tol = 1e-9 after GMRES converged on
        # physical fields, which took a second GMRES solve; resolved, one
        # solve of 10 iterations reaches 4.2e-11
        grid = gr.TorusGrid.reduced(3, 64, active_coords=(0, 2))
        rng = np.random.default_rng([8003, 82])
        gammas = [0.04 * tf.random_band_limited_real(grid, rng, max_mode=1) for _ in range(3)]
        omega = tf.pluriclosed_metric(grid, gammas)
        raw = tf.random_hermitian_metric(grid, rng, amplitude=0.15, max_mode=1)
        phi = 0.2 * tf.random_band_limited_real(grid, rng, max_mode=1)
        phi -= phi.mean()
        psi = ha.hermitize(geo.chern_ricci(grid, omega) - gr.hessian_complex(grid, phi))
        sigma = sv.gauduchon_factor(grid, raw, tol=1e-11)
        spec = eq.ProblemSpec(grid=grid, variant=eq.Variant.PSI,
                              omega0=np.exp(sigma)[..., None, None] * raw, omega=omega,
                              F=np.zeros(grid.sizes))
        state = pl.prescribed_ricci(spec, psi).report.state
        calls = self.counted_gmres(monkeypatch)
        result = sv.adjoint_kernel(spec, state)
        assert len(calls) == 1
        assert result.residual_sup < 1e-9
        assert result.f.min() > 0.0

    @pytest.mark.parametrize("variant", [eq.Variant.PSI, eq.Variant.PHI])
    def test_kernel_independent_of_krylov_start(self, g3, rng, variant, monkeypatch):
        # GMRES from a random vector (Nyquist and anti-Hermitian entries
        # included) gives the zero start's f: resolved, the kernel is
        # one-dimensional (measured 3.2e-15 and 7.8e-15; the same starts moved
        # the physical-field kernel by 8.7e-2 and 7.8e-2)
        prob = manufacture_problem(g3, variant, rng, amplitude=0.04, conformal_amplitude=0.2)
        state = sv.continuity_solve(prob.spec).state
        zero_start = sv.adjoint_kernel(prob.spec, state)
        gmres = sv._gmres

        def random_start(matvec, psolve, b, rtol, atol):
            # x0 + GMRES on the residual of x0, to the zero start's absolute target
            x0 = 1e-2 * rng.standard_normal(b.size)
            dx, info, linear = gmres(matvec, psolve, b - matvec(x0), 0.0,
                                     max(atol, rtol * np.linalg.norm(b)))
            return x0 + dx, info, linear

        monkeypatch.setattr(sv, "_gmres", random_start)
        moved = sv.adjoint_kernel(prob.spec, state)
        assert rel_diff(moved.f, zero_start.f) < 1e-12

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, g3, tol):
        state = eq.SolveState(u=np.zeros(g3.sizes), b=0.0)
        with pytest.raises(ValidationError, match="tol must be positive"):
            sv.adjoint_kernel(flat_spec(g3), state, tol=tol)


class TestGauduchonFactor:
    # the defect machinery differentiates exp-conformal metrics, whose spectral
    # tails need 32 nodes per active axis for ~1e-10 consistency
    @pytest.fixture
    def g3f(self):
        return gr.TorusGrid.reduced(3, 32, active_coords=(0, 2))

    def test_already_gauduchon_gives_zero(self, g3f, rng):
        phi = 0.02 * tf.random_band_limited_real(g3f, rng)
        omega = tf.kahler_perturbation(g3f, phi)
        sigma = sv.gauduchon_factor(g3f, omega)
        assert gr.sup_norm(sigma) < 1e-7

    def test_conformal_recovery(self, g3f, rng):
        # start from a Gauduchon metric, multiply by e^tau: recover sigma = -tau
        phi = 0.02 * tf.random_band_limited_real(g3f, rng)
        base = tf.kahler_perturbation(g3f, phi)
        tau = 0.2 * tf.random_band_limited_real(g3f, rng, max_mode=1).real
        tau -= tau.mean()
        omega = np.exp(tau)[..., None, None] * base
        sigma = sv.gauduchon_factor(g3f, omega, tol=1e-10)
        assert gr.sup_norm(sigma.real + tau) < 1e-8

    def test_zero_budget_raises_solver_error(self, rng):
        grid = gr.TorusGrid.reduced(3, 16, active_coords=(0, 2))
        omega = tf.random_hermitian_metric(grid, rng, amplitude=0.2, max_mode=1)
        with pytest.raises(SolverError, match="Gauduchon"):
            sv.gauduchon_factor(grid, omega, max_newton=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, g3, tol):
        with pytest.raises(ValidationError, match="tol must be positive"):
            sv.gauduchon_factor(g3, flat_field(g3), tol=tol)

    @pytest.mark.parametrize("max_newton", [-1, 2.5])
    def test_rejects_bad_budget(self, g3, max_newton):
        # a negative budget used to run no Newton loop and fail to unpack None
        with pytest.raises(ValidationError, match="max_newton must be an integer"):
            sv.gauduchon_factor(g3, flat_field(g3), max_newton=max_newton)

    def test_small_budget_names_gauduchon_solve(self, rng):
        grid = gr.TorusGrid.reduced(3, 16, active_coords=(0, 2))
        omega = tf.random_hermitian_metric(grid, rng, amplitude=0.2, max_mode=1)
        with pytest.raises(SolverError, match="Gauduchon factor Newton: budget of 1 steps"):
            sv.gauduchon_factor(grid, omega, max_newton=1)

    def test_budget_counts_steps_not_iterates(self, g3f, rng, monkeypatch):
        # the iterate after the last allowed step is still tested, so a
        # budget of exactly the steps needed converges
        omega = tf.random_hermitian_metric(g3f, rng, amplitude=0.2, max_mode=1)
        steps = []
        solve = sv._augmented_solve

        def counted(*args):
            steps.append(1)
            return solve(*args)

        monkeypatch.setattr(sv, "_augmented_solve", counted)
        sigma = sv.gauduchon_factor(g3f, omega, tol=1e-10)
        needed = len(steps)
        assert needed > 1
        again = sv.gauduchon_factor(g3f, omega, tol=1e-10, max_newton=needed)
        np.testing.assert_array_equal(again, sigma)
        with pytest.raises(SolverError, match="budget"):
            sv.gauduchon_factor(g3f, omega, tol=1e-10, max_newton=needed - 1)

    def test_random_metric_defect_reduced(self, g3f, rng):
        omega = tf.random_hermitian_metric(g3f, rng, amplitude=0.2, max_mode=1)
        before = geo.metric_defects(g3f, omega).gauduchon
        sigma = sv.gauduchon_factor(g3f, omega, tol=1e-10)
        conformal = np.exp(sigma.real)[..., None, None] * omega
        after = geo.metric_defects(g3f, conformal).gauduchon
        assert before > 1e-3
        assert after < 1e-8
