"""Optimization drivers: the main surrogate loop and a random-search baseline.

The main loop bootstraps from a space-filling design, then repeats: fit the
weighted RBF surrogate on the current node's data, propose a batch, evaluate
it in one parallel barrier, update the exploitation schedule, and manage the
zoom tree (zoom in when the spread parameter crosses its critical value,
restart from a fresh design when the would-be child is finer than the
resolution threshold, occasionally zoom out). The evaluations live on the
tree: ``tree.archive`` holds every one since the last restart, and
``tree.data``, the current node's data, is that archive restricted to the
node's box. Runs are bit-reproducible given the seed and a deterministic
evaluator.

Evaluators own the parallelism: they take a (k, d) batch and return k values
in order. One clock, kept by the run's recorder, splits the wall time into the
evaluation barriers and the algorithm's time between them, so algorithm cost
can be profiled independently of the objective's cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import one_blas_thread
from .doe import latin_hypercube_maximin
from .problem import (
    EvaluationError,
    ExploitState,
    Objective,
    RunConfig,
    derive_streams,
)
from .srs import best_fit_index, generate_candidates, select_batch, weight_pattern
from .surrogate import fit_rbf
from .zoomtree import ZoomTree, effective_n, restart_condition, update_state

EVENT_DOE = "doe"
EVENT_NORMAL = "normal"
EVENT_ZOOM_IN = "zoom_in"
EVENT_ZOOM_OUT = "zoom_out"
EVENT_RESTART = "restart"


@dataclass(frozen=True)
class IterationLog:
    """One row per evaluated batch.

    ``iteration`` is 0 for the initial design batches (which do not consume
    the iteration budget) and the 1-based loop index otherwise; design batches
    re-evaluated after a restart do consume the budget and carry their loop
    index with event="doe". ``best_x_so_far`` and ``best_y_so_far`` are the
    run's best pair after this batch: the first point to reach the strict
    running minimum of the responses. The point is the recorder's read-only
    copy, shared by every row until the next improvement, and the last row's
    pair is the result's. ``eval_time_s`` is the batch's evaluation
    barrier. ``algo_time_s`` is the algorithm's time since the previous
    barrier ended (for the first row, since the run began), so a design's
    cost lands in its first row: the initial design's in the run's first
    row, a restart's in the first design row after the restart. Over a run
    the two columns add up to its wall time, except the bookkeeping after the
    last barrier.
    """

    iteration: int
    event: str
    node_id: int
    zoom_level: int
    state_snapshot: ExploitState
    proposed_x: np.ndarray
    proposed_y: np.ndarray
    best_x_so_far: np.ndarray
    best_y_so_far: float
    algo_time_s: float
    eval_time_s: float


@dataclass(frozen=True)
class RunResult:
    """Outcome of a run: the evaluated pair with the lowest response, the
    per-batch logs, and the total evaluation count."""

    x_best: np.ndarray
    y_best: float
    logs: list
    n_evaluations: int
    config_echo: RunConfig


def is_failure(proposed_y, best_prior_y: float) -> bool:
    """True iff the batch did not strictly improve the prior best response."""
    proposed_y = np.asarray(proposed_y, dtype=float)
    if proposed_y.size == 0:
        raise ValueError("proposed_y must be nonempty")
    return bool(proposed_y.min() >= best_prior_y)


def serial_evaluator(objective: Objective) -> Callable:
    """Evaluate a batch one point at a time through ``objective.eval``."""

    def evaluate(X):
        return np.array([objective.eval(x) for x in np.atleast_2d(X)], dtype=float)

    return evaluate


def threaded_evaluator(objective: Objective, max_workers: int | None = None) -> Callable:
    """Evaluate a batch concurrently; order of results matches the batch."""
    from concurrent.futures import ThreadPoolExecutor

    def evaluate(X):
        X = np.atleast_2d(X)
        with ThreadPoolExecutor(max_workers=max_workers or len(X)) as pool:
            return np.fromiter(pool.map(objective.eval, X), dtype=float, count=len(X))

    return evaluate


class _Recorder:
    """Owns every measured fact of a run's logged batches: the log list, the
    global best, the evaluation count, and one clock. The clock starts when
    the recorder is made, at the start of a run, and restarts when each
    evaluation barrier ends."""

    def __init__(self):
        self.logs = []
        self.best_x = None
        self.best_y = np.inf
        self.n_evaluations = 0
        self.batch = None  # (X, y, algo_time_s, eval_time_s) of the last barrier
        self.clock = time.perf_counter()

    def evaluate(self, evaluator, X) -> np.ndarray:
        """Evaluate a batch in one barrier, validate its responses, and hold
        them with the barrier's timing for the next ``log``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        start = time.perf_counter()
        try:
            y = evaluator(X)
        except Exception as exc:
            raise EvaluationError(f"evaluator raised: {exc!r}", logs=self.logs) from exc
        end = time.perf_counter()
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (X.shape[0],):
            raise EvaluationError(
                f"evaluator returned shape {y.shape} for a batch of "
                f"{X.shape[0]}; expected ({X.shape[0]},)",
                logs=self.logs,
            )
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            raise EvaluationError(
                f"evaluator returned non-finite value {y[bad[0]]} at point {X[bad[0]]}",
                logs=self.logs,
            )
        self.n_evaluations += int(y.size)
        i = int(np.argmin(y))
        if y[i] < self.best_y:
            self.best_y = float(y[i])
            self.best_x = X[i].copy()
            self.best_x.flags.writeable = False
        self.batch = (X, y, start - self.clock, end - start)
        self.clock = end
        return y

    def log(self, iteration, event, node_id, zoom_level, state_snapshot):
        """Append the row of the batch last evaluated."""
        X, y, algo_time, eval_time = self.batch
        self.logs.append(
            IterationLog(
                iteration, event, node_id, zoom_level, state_snapshot,
                X, y, self.best_x, self.best_y, algo_time, eval_time,
            )
        )

    def result(self, config: RunConfig) -> RunResult:
        return RunResult(
            x_best=self.best_x,
            y_best=self.best_y,
            logs=self.logs,
            n_evaluations=self.n_evaluations,
            config_echo=config,
        )


def _check_setup(objective: Objective, config: RunConfig):
    if objective.dimension != config.dim:
        raise ValueError(
            f"objective dimension {objective.dimension} does not match config dim {config.dim}"
        )


@one_blas_thread()
def run_prosrs(
    objective: Objective,
    config: RunConfig,
    evaluator: Callable | None = None,
) -> RunResult:
    """Run the full surrogate optimization loop for ``config.n_iterations``.

    The initial design is evaluated in n_par-sized barrier batches before the
    loop and does not consume the iteration budget; design batches after a
    restart do. Returns the evaluated point with the lowest response over the
    entire run, including evaluations made before any restart. OpenBLAS runs
    on one thread until the call returns or raises, evaluator calls included.
    """
    _check_setup(objective, config)
    if evaluator is None:
        evaluator = serial_evaluator(objective)
    rngs = derive_streams(config.seed)
    rec = _Recorder()
    domain = objective.domain
    d = config.dim

    def design_batches():
        points = latin_hypercube_maximin(config.m_doe, domain, rngs["doe"])
        return [points[i : i + config.n_par] for i in range(0, len(points), config.n_par)]

    tree = ZoomTree(domain, config)
    pending = design_batches()

    def design_step(iteration):
        """Evaluate the next pending design batch and record it into the root."""
        batch = pending.pop(0)
        tree.record_batch(batch, rec.evaluate(evaluator, batch))
        rec.log(iteration, EVENT_DOE, tree.root.node_id, 0, config.s_init)

    # Initial design, outside the iteration budget (iteration = 0).
    while pending:
        design_step(0)

    proposal_count = 0  # 0-based count of SRS proposal steps (weight alternation)
    for iteration in range(1, config.n_iterations + 1):
        if pending:
            # Re-bootstrap after a restart: these batches consume the budget.
            design_step(iteration)
            continue

        node, data = tree.current, tree.data
        state = node.state

        model = fit_rbf(data, node.omega, state.gamma)
        candidates = generate_candidates(
            data,
            node.omega,
            state,
            model,
            config.n_candidates_per_dim * d,
            rngs["candidates"],
        )
        weights = weight_pattern(config.n_par, proposal_count)
        X_new = candidates[select_batch(candidates, model, data.X, weights)]
        proposal_count += 1

        best_prior = float(data.y.min())
        y_new = rec.evaluate(evaluator, X_new)
        failed = is_failure(y_new, best_prior)

        tree.record_batch(X_new, y_new)
        update_state(node, effective_n(tree.data, node.omega), failed, config)

        event = EVENT_NORMAL
        if node.state.sigma < config.sigma_crit:
            x_star = tree.data.X[best_fit_index(tree.data, model)]
            child = tree.zoom_in(x_star)
            # fit_rbf needs two points, so a child holding fewer cannot be
            # searched, nor can one whose box rounds to zero width (None):
            # either restarts like one resolved below the threshold.
            n = len(tree.data)
            if child is None or n < 2 or restart_condition(child.omega, n, domain, config):
                event = EVENT_RESTART
                tree.restart()
                pending = design_batches()
            else:
                event = EVENT_ZOOM_IN
        if tree.maybe_zoom_out(rngs["zoomout"]):
            event = EVENT_ZOOM_OUT
        rec.log(iteration, event, node.node_id, node.zoom_level, state)

    return rec.result(config)


def run_random_search(
    objective: Objective,
    config: RunConfig,
    evaluator: Callable | None = None,
) -> RunResult:
    """Baseline: each iteration evaluates n_par uniform points (no design)."""
    _check_setup(objective, config)
    if config.n_iterations < 1:
        raise ValueError("random search needs n_iterations >= 1: it has no design")
    if evaluator is None:
        evaluator = serial_evaluator(objective)
    rngs = derive_streams(config.seed)
    rec = _Recorder()
    for iteration in range(1, config.n_iterations + 1):
        rec.evaluate(evaluator, objective.domain.sample_uniform(config.n_par, rngs["candidates"]))
        rec.log(iteration, EVENT_NORMAL, 0, 0, config.s_init)
    return rec.result(config)
