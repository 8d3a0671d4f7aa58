from types import SimpleNamespace

import numpy as np
import pytest

from prosrs import engine
from prosrs.benchmarks import NoisyBatchEvaluator, benchmark_objective, make_benchmark
from prosrs.engine import (
    run_prosrs,
    run_random_search,
    serial_evaluator,
    threaded_evaluator,
)
from prosrs.problem import (
    BoxDomain,
    EvaluationError,
    ExploitState,
    Objective,
    default_config,
    stream_seedseq,
)
from prosrs.zoomtree import EVENT_DOE, EVENT_NORMAL, EVENT_RESTART


def sphere_objective(d=2):
    dom = BoxDomain(np.full(d, -1.0), np.full(d, 1.0))
    return Objective(d, dom, lambda x: float(np.sum(np.asarray(x) ** 2)))


def logs_equal(a, b):
    if len(a) != len(b):
        return False
    for la, lb in zip(a, b):
        if la.iteration != lb.iteration or la.event != lb.event:
            return False
        if la.node_id != lb.node_id or la.zoom_level != lb.zoom_level:
            return False
        if la.state_snapshot != lb.state_snapshot:
            return False
        if not np.array_equal(la.proposed_x, lb.proposed_x):
            return False
        if not np.array_equal(la.proposed_y, lb.proposed_y):
            return False
        if la.best_y_so_far != lb.best_y_so_far:
            return False
    return True


class TestRunProsrs:
    def test_zero_iterations_returns_doe_argmin(self):
        obj = sphere_objective()
        cfg = default_config(2, 4, n_iterations=0, seed=1)
        result = run_prosrs(obj, cfg)
        assert result.n_evaluations == cfg.m_doe
        assert all(log.event == EVENT_DOE and log.iteration == 0 for log in result.logs)
        ys = np.concatenate([log.proposed_y for log in result.logs])
        assert result.y_best == ys.min()

    def test_determinism(self):
        obj = sphere_objective()
        cfg = default_config(2, 3, n_iterations=15, seed=7)
        a = run_prosrs(obj, cfg)
        b = run_prosrs(obj, cfg)
        assert logs_equal(a.logs, b.logs)
        assert a.y_best == b.y_best and np.array_equal(a.x_best, b.x_best)

    def test_converges_on_noiseless_sphere(self):
        obj = sphere_objective()
        # Grid-search oracle: the target 0.01 is attainable inside the domain.
        g = np.linspace(-1, 1, 101)
        xx, yy = np.meshgrid(g, g)
        grid_min = (xx**2 + yy**2).min()
        assert grid_min <= 0.01
        cfg = default_config(2, 4, n_iterations=30, seed=0)
        result = run_prosrs(obj, cfg)
        assert result.y_best <= 0.01

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_response_scale_proposes_as_unit_scale(self, scale):
        # The surrogate's ridge penalty and the candidate scores do not depend
        # on the response scale, and nothing on the way overflows (warnings
        # are errors here).
        def scaled(s):
            dom = BoxDomain(np.full(2, -1.0), np.full(2, 1.0))
            return Objective(2, dom, lambda x: s * float(np.sum(np.asarray(x) ** 2)))

        cfg = default_config(2, 4, n_iterations=40, seed=0)
        base = run_prosrs(scaled(1.0), cfg)
        result = run_prosrs(scaled(scale), cfg)
        for a, b in zip(base.logs, result.logs, strict=True):
            np.testing.assert_array_equal(a.proposed_x, b.proposed_x)

    def test_monotone_best(self):
        obj = sphere_objective()
        cfg = default_config(2, 4, n_iterations=20, seed=3)
        result = run_prosrs(obj, cfg)
        bests = [log.best_y_so_far for log in result.logs]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_every_evaluation_logged_once(self):
        obj = sphere_objective()
        cfg = default_config(2, 4, n_iterations=12, seed=5)
        count = {"n": 0}
        inner = serial_evaluator(obj)

        def counting(X):
            count["n"] += len(np.atleast_2d(X))
            return inner(X)

        result = run_prosrs(obj, cfg, counting)
        logged = sum(len(log.proposed_y) for log in result.logs)
        assert count["n"] == logged == result.n_evaluations

    def test_batch_sizes_match_n_par(self):
        obj = sphere_objective()
        cfg = default_config(2, 4, n_iterations=10, seed=2)
        result = run_prosrs(obj, cfg)
        for log in result.logs:
            assert len(log.proposed_y) == cfg.n_par
            assert log.proposed_x.shape == (cfg.n_par, 2)

    def test_evaluation_count_accounting(self):
        # Noisy camel with enough iterations to restart at least once.
        problem = make_benchmark("SixHumpCamel2")
        cfg = default_config(2, 4, n_iterations=80, seed=3)
        result = run_prosrs(
            benchmark_objective(problem, 3),
            cfg,
            NoisyBatchEvaluator(problem, stream_seedseq(3, "noise")),
        )
        restarts = sum(log.event == EVENT_RESTART for log in result.logs)
        doe_in_loop = sum(
            log.event == EVENT_DOE and log.iteration >= 1 for log in result.logs
        )
        assert restarts >= 1
        assert doe_in_loop == restarts * (cfg.m_doe // cfg.n_par)
        expected = cfg.m_doe * (1 + restarts) + cfg.n_par * (cfg.n_iterations - doe_in_loop)
        assert result.n_evaluations == expected

    def test_restart_rebuilds_from_scratch(self):
        # All post-restart proposals before the next restart must come from a
        # tree whose archive contains only post-restart evaluations; the best
        # record still reflects the whole run.
        problem = make_benchmark("SixHumpCamel2")
        cfg = default_config(2, 4, n_iterations=80, seed=3)
        result = run_prosrs(
            benchmark_objective(problem, 3),
            cfg,
            NoisyBatchEvaluator(problem, stream_seedseq(3, "noise")),
        )
        events = [log.event for log in result.logs]
        i_restart = events.index(EVENT_RESTART)
        after = result.logs[i_restart + 1]
        assert after.event == EVENT_DOE and after.iteration == i_restart + 1
        all_y = np.concatenate([log.proposed_y for log in result.logs])
        assert result.y_best == all_y.min()
        bests = [log.best_y_so_far for log in result.logs]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_child_with_one_point_restarts(self):
        # rho = 0.05 in 10-D leaves a zoom-in child holding a single point,
        # which no surrogate can be fitted to: the run restarts instead.
        problem = make_benchmark("Ackley10")
        cfg = default_config(
            10, 2, n_iterations=20, seed=0, rho=0.05, c_fail=1,
            s_init=ExploitState(0.0, 0.05, 0.1), sigma_crit=0.06, n_candidates_per_dim=50,
        )
        result = run_prosrs(
            benchmark_objective(problem, 0),
            cfg,
            NoisyBatchEvaluator(problem, stream_seedseq(0, "noise")),
        )
        assert any(log.event == EVENT_RESTART for log in result.logs)
        assert sum(log.iteration >= 1 for log in result.logs) == cfg.n_iterations

    @pytest.mark.parametrize("n_par", [1, 2, 4])
    def test_box_a_few_ulps_wide_restarts(self, n_par):
        # Sides of 9.5e-7 at 1e9 are 8 ulps: a zoom-in child's clipped bounds
        # round to equal values on some axis, so the child cannot be a box
        # and the run restarts instead.
        lo = np.full(2, 1e9)
        dom = BoxDomain(lo, lo + 1e-6)
        obj = Objective(2, dom, lambda x: float(np.sum((np.asarray(x) - lo) ** 2)))
        result = run_prosrs(obj, default_config(2, n_par, n_iterations=40, seed=0))
        assert any(log.event == EVENT_RESTART for log in result.logs)
        assert sum(log.iteration >= 1 for log in result.logs) == 40
        for log in result.logs:
            assert np.all(dom.contains(log.proposed_x))

    def test_box_just_inside_the_squared_distance_limit_runs(self):
        # Sides of 4.7e153: four times the squared diagonal is just below the
        # largest double, so no distance computation of the run overflows
        # (warnings are errors).
        side = 0.999 * np.sqrt(np.finfo(float).max / (4.0 * 2))
        dom = BoxDomain(np.full(2, -side / 2), np.full(2, side / 2))
        obj = Objective(2, dom, lambda x: float(np.sum(np.asarray(x)) / side))
        cfg = default_config(2, 2, n_iterations=3, seed=0)
        result = run_prosrs(obj, cfg)
        assert result.n_evaluations == cfg.m_doe + 3 * cfg.n_par
        for log in result.logs:
            assert np.all(dom.contains(log.proposed_x))

    def test_runs_in_64_dimensions(self):
        obj = sphere_objective(64)
        cfg = default_config(64, 4, n_iterations=3, seed=0, n_candidates_per_dim=10)
        result = run_prosrs(obj, cfg)
        assert result.n_evaluations == cfg.m_doe + 3 * cfg.n_par
        for log in result.logs:
            assert np.all(log.proposed_x >= -1.0) and np.all(log.proposed_x <= 1.0)

    def test_dimension_mismatch_rejected(self):
        obj = sphere_objective(3)
        cfg = default_config(2, 4, n_iterations=2, seed=0)
        with pytest.raises(ValueError):
            run_prosrs(obj, cfg)

    def test_nonfinite_value_is_fatal_with_partial_logs(self):
        obj = sphere_objective()
        cfg = default_config(2, 4, n_iterations=10, seed=0)
        calls = {"n": 0}

        def flaky(X):
            calls["n"] += 1
            X = np.atleast_2d(X)
            if calls["n"] == 3:
                out = np.sum(X**2, axis=1)
                out[0] = np.nan
                return out
            return np.sum(X**2, axis=1)

        with pytest.raises(EvaluationError) as err:
            run_prosrs(obj, cfg, flaky)
        assert len(err.value.logs) == 2  # the two batches before the failure

    def test_batch_size_mismatch_is_fatal(self):
        obj = sphere_objective()
        cfg = default_config(2, 4, n_iterations=5, seed=0)
        with pytest.raises(EvaluationError):
            run_prosrs(obj, cfg, lambda X: np.zeros(len(np.atleast_2d(X)) + 1))
        # A (k, 1) column has k values but the wrong shape; the message says so.
        with pytest.raises(EvaluationError, match=r"shape \(4, 1\) .* expected \(4,\)"):
            run_prosrs(obj, cfg, lambda X: np.zeros((len(np.atleast_2d(X)), 1)))

    def test_threaded_evaluator_matches_serial(self):
        obj = sphere_objective()
        cfg = default_config(2, 4, n_iterations=8, seed=11)
        a = run_prosrs(obj, cfg, serial_evaluator(obj))
        b = run_prosrs(obj, cfg, threaded_evaluator(obj, max_workers=4))
        assert logs_equal(a.logs, b.logs)

    def test_best_trajectory_tracks_running_min(self):
        obj = sphere_objective()
        cfg = default_config(2, 4, n_iterations=10, seed=4)
        result = run_prosrs(obj, cfg)
        xs = [log.best_x_so_far for log in result.logs]
        ys = [log.best_y_so_far for log in result.logs]
        assert ys[-1] == result.y_best
        assert np.array_equal(xs[-1], result.x_best)
        assert all(b2 <= b1 for b1, b2 in zip(ys, ys[1:]))
        for x, y in zip(xs, ys):
            assert obj.eval(x) == y  # noiseless objective


class TestRandomSearch:
    def test_counts_and_no_doe(self):
        obj = sphere_objective()
        cfg = default_config(2, 5, n_iterations=13, seed=0)
        result = run_random_search(obj, cfg)
        assert result.n_evaluations == cfg.n_par * cfg.n_iterations
        assert all(log.event == "normal" for log in result.logs)
        assert [log.iteration for log in result.logs] == list(range(1, 14))

    def test_reproducible(self):
        obj = sphere_objective()
        cfg = default_config(2, 3, n_iterations=9, seed=21)
        a = run_random_search(obj, cfg)
        b = run_random_search(obj, cfg)
        assert logs_equal(a.logs, b.logs)

    def test_order_statistic_on_line(self):
        # Minimum of 1000 uniforms on [0, 1] is below 0.01 with probability
        # 1 - 0.99^1000 ~ 0.99996; over 100 fixed seeds at least 99 must hit.
        dom = BoxDomain(np.array([0.0]), np.array([1.0]))
        obj = Objective(1, dom, lambda x: float(x[0]))
        hits = 0
        for seed in range(100):
            cfg = default_config(1, 1, n_iterations=1000, seed=seed)
            hits += run_random_search(obj, cfg).y_best < 0.01
        assert hits >= 99

    def test_zero_iterations_rejected_before_evaluating(self):
        dom = BoxDomain(np.array([0.0]), np.array([1.0]))

        def evaluate(x):
            raise AssertionError("must not be evaluated")

        cfg = default_config(1, 2, n_iterations=0)
        with pytest.raises(ValueError, match="n_iterations"):
            run_random_search(Objective(1, dom, evaluate), cfg)

    def test_points_stay_inside_domain(self):
        obj = sphere_objective(3)
        cfg = default_config(3, 4, n_iterations=10, seed=1)
        result = run_random_search(obj, cfg)
        for log in result.logs:
            assert np.all(log.proposed_x >= -1.0) and np.all(log.proposed_x <= 1.0)


def running_best(logs):
    """Oracle: the best pair after each row, the first point to reach the
    strict running minimum of the responses (a tie keeps the earlier point)."""
    best_x, best_y, out = None, np.inf, []
    for log in logs:
        for x, y in zip(log.proposed_x, log.proposed_y):
            if y < best_y:
                best_x, best_y = x, y
        out.append((best_x, best_y))
    return out


@pytest.mark.parametrize("runner", [run_prosrs, run_random_search])
def test_rows_carry_the_running_best_point(runner):
    def assert_rows_carry_running_best(logs):
        for log, (x, y) in zip(logs, running_best(logs), strict=True):
            assert log.best_y_so_far == y
            np.testing.assert_array_equal(log.best_x_so_far, x)
            assert not log.best_x_so_far.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                log.best_x_so_far[0] = 0.0

    problem = make_benchmark("Dropwave2")
    cfg = default_config(2, 2, n_iterations=80, seed=3, c_fail=1, r_resolution=0.2)
    result = runner(benchmark_objective(problem, 3), cfg)
    if runner is run_prosrs:
        assert any(log.event == EVENT_RESTART for log in result.logs)
    assert_rows_carry_running_best(result.logs)
    assert result.logs[-1].best_y_so_far == result.y_best
    np.testing.assert_array_equal(result.logs[-1].best_x_so_far, result.x_best)

    # Responses rounded down to quarters tie often; the tenth barrier fails.
    calls = []

    def quarters_then_fail(X):
        calls.append(len(X))
        if len(calls) == 10:
            raise RuntimeError("evaluator down")
        return np.floor(4.0 * problem.true_mean(X)) / 4.0

    with pytest.raises(EvaluationError) as err:
        runner(Objective(2, problem.domain, lambda x: 0.0), cfg, quarters_then_fail)
    logs = err.value.logs
    assert len(logs) == 9
    ys = np.concatenate([log.proposed_y for log in logs])
    assert np.any(ys[1:] == np.minimum.accumulate(ys)[:-1])  # a point ties the best so far
    assert_rows_carry_running_best(logs)


class FakeClock:
    """A clock the test moves: a read returns the time, then ticks it by 1/64 s.
    All its readings are multiples of 1/64, so their sums are exact."""

    TICK = 1 / 64

    def __init__(self):
        self.now = 0.0
        self.barrier_ends = []

    def __call__(self):
        now = self.now
        self.now += self.TICK
        return now

    def evaluator(self, objective, seconds):
        """``serial_evaluator(objective)``, taking ``seconds`` per batch."""
        serial = serial_evaluator(objective)

        def evaluate(X):
            self.now += seconds
            self.barrier_ends.append(self.now)
            return serial(X)

        return evaluate


class TestTiming:
    """One clock, kept by the recorder, times every row of both runners: the
    barrier, and the algorithm's time since the previous barrier ended."""

    DESIGN_S = 8.0
    EVAL_S = 1.0

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(engine, "time", SimpleNamespace(perf_counter=clock))
        design = engine.latin_hypercube_maximin

        def slow_design(*args, **kwargs):
            clock.now += self.DESIGN_S
            return design(*args, **kwargs)

        monkeypatch.setattr(engine, "latin_hypercube_maximin", slow_design)
        return clock

    def check_partition(self, clock, logs, start):
        # The rows add up to the span from the runner's start to the end of
        # its last barrier, and each barrier is timed as the evaluator took.
        assert sum(log.algo_time_s + log.eval_time_s for log in logs) == (
            clock.barrier_ends[-1] - start
        )
        assert all(log.eval_time_s == self.EVAL_S + clock.TICK for log in logs)
        assert all(log.algo_time_s > 0 for log in logs)

    def test_prosrs_rows_partition_the_run_and_carry_design_costs(self, clock):
        obj = sphere_objective()
        cfg = default_config(
            2, 1, n_iterations=30, seed=0, c_fail=1, r_resolution=0.9, rho=0.9,
            sigma_crit=0.9, n_candidates_per_dim=20,
        )
        start = clock.now
        result = run_prosrs(obj, cfg, clock.evaluator(obj, self.EVAL_S))
        logs = result.logs
        self.check_partition(clock, logs, start)
        # A design's cost lands in its first row: the initial design's in the
        # run's first row, a restart's in the first design row after it.
        first_design_rows = [0] + [
            i + 1 for i, log in enumerate(logs[:-1]) if log.event == EVENT_RESTART
        ]
        assert len(first_design_rows) >= 3
        for i, log in enumerate(logs):
            assert (log.algo_time_s >= self.DESIGN_S) == (i in first_design_rows)
        assert all(logs[i].event == EVENT_DOE for i in first_design_rows)

    def test_random_search_rows_partition_the_run(self, clock):
        obj = sphere_objective()
        start = clock.now
        result = run_random_search(
            obj, default_config(2, 3, n_iterations=7), clock.evaluator(obj, self.EVAL_S)
        )
        assert [log.event for log in result.logs] == [EVENT_NORMAL] * 7
        self.check_partition(clock, result.logs, start)
