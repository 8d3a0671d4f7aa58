"""The benchmark's workloads and the output checks on each of their tasks.

A workload is a fixed list of tasks made from the workload seed. A task is one
optimizer run (engine workloads) or one model-error trial. ``run_unit`` runs
every task of the list once; the benchmark repeats that unit for as long as a
run lasts, so every repetition after the first must reproduce the first one's
digests.

Engine tasks are built exactly as ``prosrs.cli._run_once`` builds them:
``benchmark_objective`` + a serial ``NoisyBatchEvaluator`` on the run's
"noise" stream, ``default_config`` and ``run_prosrs``. The evaluator is wrapped
so that a step (the algorithm's time between two evaluation barriers) is
timed from outside the engine.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from dataclasses import dataclass, field

N_PAR = 4

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "suite10d": "five 10-D problems, 40 iterations: candidate scoring (predict, "
    "min-distances, candidate draw) dominates and the zoom tree barely works",
    "long2d": "two 2-D problems, 200 iterations, two seeds each: fit_rbf "
    "dominates and restarts drive the zoom tree, DOE and re-bootstrap paths",
    "model-error": "one fit per size, then prediction over 100000 points: the "
    "surrogate layer without engine, srs or zoomtree; dense matrices set peak RSS",
}

SUITE10D = ("Ackley10", "Alpine10", "Griewank10", "Levy10", "SumPower10")
LONG2D = ("Rastrigin2", "Dropwave2")
MODEL_ERROR = ("Ackley10", "Hartmann6", "Rastrigin2")
MODEL_ERROR_SIZES = (50, 100, 200, 400)
MODEL_ERROR_REPEATS = 2
MODEL_ERROR_N_MC = 100_000
# Relative tolerance for a repeated model-error trial: its rel_l2 can move in
# the 14th digit when BLAS changes its thread split, so exact equality is not
# required there.
REL_L2_RTOL = 1e-9


@dataclass
class TaskResult:
    """What one task produced: its digest, step times and check failures."""

    label: str
    digest: object  # trajectory hash (engine) or rel_l2 (trial); None if it raised
    steps_s: list
    quality: float  # regret of the best point (engine) or rel_l2 (trial)
    call_s: float = 0.0  # wall and CPU time of the call into prosrs
    call_cpu_s: float = 0.0
    problems: list = field(default_factory=list)  # failed output checks
    barrier_s: float = 0.0
    events: dict = field(default_factory=dict)
    loop_batches: int = 0
    improving_batches: int = 0


def problem_names(workload: str) -> tuple:
    return {"suite10d": SUITE10D, "long2d": LONG2D, "model-error": MODEL_ERROR}[workload]


def plan(workload: str, seed: int) -> list:
    """The task list of one unit; the same seed always gives the same list."""
    if workload == "suite10d":
        return [("engine", name, seed, 40) for name in SUITE10D]
    if workload == "long2d":
        return [
            ("engine", name, 2 * seed + rep, 200) for name in LONG2D for rep in range(2)
        ]
    if workload == "model-error":
        return [
            ("trial", name, seed, n, rep)
            for name in MODEL_ERROR
            for n in MODEL_ERROR_SIZES
            for rep in range(MODEL_ERROR_REPEATS)
        ]
    raise ValueError(f"unknown workload {workload!r}")


class TimedEvaluator:
    """Calls the real evaluator and records when each barrier starts and ends."""

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.enter = []
        self.exit = []
        self.n_points = 0

    def __call__(self, X):
        self.enter.append(time.perf_counter())
        y = self.evaluator(X)
        self.exit.append(time.perf_counter())
        self.n_points += len(X)
        return y


def _engine_task(prosrs, label: str, name: str, seed: int, n_iterations: int) -> TaskResult:
    from prosrs.problem import stream_seedseq

    problem = prosrs.make_benchmark(name)
    objective = prosrs.benchmark_objective(problem, seed)
    evaluator = TimedEvaluator(
        prosrs.NoisyBatchEvaluator(problem, stream_seedseq(seed, "noise"))
    )
    config = prosrs.default_config(
        objective.dimension, N_PAR, n_iterations=n_iterations, seed=seed
    )
    c_start = time.process_time()
    t_start = time.perf_counter()
    result = prosrs.run_prosrs(objective, config, evaluator)
    call_s = time.perf_counter() - t_start
    call_cpu_s = time.process_time() - c_start

    problems = []
    lo, hi = problem.domain.lower, problem.domain.upper
    h = hashlib.sha256()
    best = []
    events = {}
    loop_batches = improving = 0
    prior_best = math.inf
    for log in result.logs:
        X = log.proposed_x
        if not ((X >= lo) & (X <= hi)).all():
            problems.append(f"{label}: proposal outside the domain at iteration {log.iteration}")
        if log.event != "doe":
            loop_batches += 1
            improving += bool(log.proposed_y.min() < prior_best)
        events[log.event] = events.get(log.event, 0) + 1
        prior_best = log.best_y_so_far
        best.append(log.best_y_so_far)
        h.update(f"{log.iteration}|{log.event}|{log.node_id}|{log.zoom_level}|".encode())
        h.update(repr(log.state_snapshot).encode())
        h.update(X.tobytes())
        h.update(log.proposed_y.tobytes())
    if any(b > a for a, b in zip(best, best[1:])):
        problems.append(f"{label}: best_y_so_far rose")
    expected = config.m_doe + config.n_par * config.n_iterations
    if result.n_evaluations != expected or evaluator.n_points != expected:
        problems.append(
            f"{label}: {result.n_evaluations} evaluations recorded and "
            f"{evaluator.n_points} made, expected {expected}"
        )
    regret = float(problem.true_mean(result.x_best)) - problem.known_min_value
    if not math.isfinite(regret):
        problems.append(f"{label}: regret {regret} is not finite")
    h.update(result.x_best.tobytes())
    h.update(repr(result.y_best).encode())

    # Step i is the algorithm's time before barrier i: from the call of
    # run_prosrs (the initial design) or from the end of the previous barrier.
    ends = [t_start] + evaluator.exit[:-1]
    steps = [b - a for a, b in zip(ends, evaluator.enter)]
    barrier = sum(b - a for a, b in zip(evaluator.enter, evaluator.exit))
    return TaskResult(
        label, h.hexdigest(), steps, regret, call_s, call_cpu_s, problems,
        barrier, events, loop_batches, improving,
    )


def _trial_task(prosrs, label: str, name: str, seed: int, n: int, rep: int) -> TaskResult:
    from prosrs import cli

    problem = prosrs.make_benchmark(name)
    c0 = time.process_time()
    t0 = time.perf_counter()
    rel_l2 = cli.model_error_trial(problem, n, seed, rep, MODEL_ERROR_N_MC)
    elapsed = time.perf_counter() - t0
    cpu = time.process_time() - c0
    problems = [] if math.isfinite(rel_l2) else [f"{label}: rel_l2 {rel_l2} is not finite"]
    return TaskResult(label, rel_l2, [elapsed], rel_l2, elapsed, cpu, problems)


def task_label(task) -> str:
    kind, name, *rest = task
    if kind == "engine":
        return f"{name}/seed{rest[0]}"
    return f"{name}/n{rest[1]}/rep{rest[2]}"


def run_task(prosrs, task) -> TaskResult:
    """Run one task; an exception it raises is recorded as a failed check."""
    kind, name, *rest = task
    label = task_label(task)
    try:
        if kind == "engine":
            return _engine_task(prosrs, label, name, *rest)
        return _trial_task(prosrs, label, name, *rest)
    except Exception as exc:  # a failing task must not stop the benchmark
        return TaskResult(label, None, [], math.nan, problems=[f"{label}: raised {exc!r}"])


def run_unit(prosrs, tasks) -> list:
    """Run every task of a unit once, after collecting garbage left by the last."""
    gc.collect()
    return [run_task(prosrs, task) for task in tasks]


def same_digest(workload: str, a, b) -> bool:
    if a is None or b is None:
        return False
    if workload == "model-error":
        return math.isclose(a, b, rel_tol=REL_L2_RTOL)
    return a == b
