"""Optimization drivers: the main surrogate loop and a random-search baseline.

The main loop has one body for every batch. It takes the next batch of a
pending space-filling design, or else fits the weighted RBF surrogate on the
current node's data and proposes a batch; evaluates the batch in one
parallel barrier; hands it to the zoom tree with the model (None for a
design batch); and logs the event the tree returns. ``ZoomTree.advance``
owns every decision after the barrier: recording the batch, whether it
failed, the exploitation schedule, zooming in, restarting and zooming out.
The loop's one response to a restart is to draw a fresh design, whose
batches the next passes take; the initial design's batches are passes too,
logged as iteration 0. The evaluations live on the tree: ``tree.archive``
holds every one since the last restart, and ``tree.data``, the current
node's data, is that archive restricted to the node's box. Runs are
bit-reproducible given the seed and a deterministic evaluator.

A run evaluates each batch through one callable: the objective's own
``evaluate``, or an evaluator given in its place. Either takes a read-only
(k, d) batch and returns k values in order, and owns any parallelism. Both
runners set a run up in one place, their recorder: it checks the objective
against the config and holds the run's evaluator and its generator streams,
derived from the config's seed. Its one clock splits the wall time into the
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
    _frozen_array,
    derive_streams,
)
from .srs import generate_candidates, select_batch, weight_pattern
from .surrogate import fit_rbf
from .zoomtree import EVENT_NORMAL, EVENT_RESTART, ZoomTree


@dataclass(frozen=True)
class IterationLog:
    """One row per evaluated batch.

    ``iteration`` is 0 for the initial design batches (which do not consume
    the iteration budget) and the 1-based loop index otherwise; design batches
    re-evaluated after a restart do consume the budget and carry their loop
    index with event="doe". ``proposed_x`` and ``proposed_y`` are the batch
    as evaluated: the recorder's read-only copies of the batch it handed the
    evaluator and of the responses it returned, so an evaluator that reuses
    its output buffer cannot change a logged row. ``best_x_so_far`` and
    ``best_y_so_far`` are the run's best pair after this batch: the first
    point to reach the strict running minimum of the responses. The point is
    a read-only row of the ``proposed_x`` that holds it, shared by every row
    until the next improvement, and the last row's pair is the result's.
    ``eval_time_s`` is the batch's evaluation barrier. ``algo_time_s`` is the
    algorithm's time since the previous barrier ended (for the first row,
    since the run began), so a design's cost lands in its first row: the
    initial design's in the run's first row, a restart's in the first design
    row after the restart. Over a run the two columns add up to its wall
    time, except the bookkeeping after the last barrier.
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
    per-batch logs, and the total evaluation count. The caller holds the
    run's config."""

    x_best: np.ndarray
    y_best: float
    logs: list
    n_evaluations: int


class _Recorder:
    """A run's setup and every measured fact of its logged batches.

    Made at the start of a run, it checks that the objective and the config
    agree on the dimension, and holds the run's evaluator
    (``objective.evaluate`` when none is given) and its generator streams
    (``derive_streams(config.seed)``). It then owns the log list, the global
    best, the evaluation count, and one clock. The clock starts when the
    recorder is made and restarts when each evaluation barrier ends.

    ``evaluate`` makes the run's only copies of a batch: the evaluator
    receives a read-only copy of the (k, d) batch, so an evaluator that
    writes to it fails the run with ``EvaluationError`` and must copy it
    first, and the responses are kept as a read-only copy of what the
    evaluator returned. A logged row holds these two copies, and the best
    point is a row of the first."""

    def __init__(self, objective: Objective, config: RunConfig, evaluator: Callable | None):
        if objective.dimension != config.dim:
            raise ValueError(
                f"objective dimension {objective.dimension} does not match config dim {config.dim}"
            )
        self.evaluator = objective.evaluate if evaluator is None else evaluator
        self.rngs = derive_streams(config.seed)
        self.logs = []
        self.best_x = None
        self.best_y = np.inf
        self.n_evaluations = 0
        self.batch = None  # (X, y, algo_time_s, eval_time_s) of the last barrier
        self.clock = time.perf_counter()

    def evaluate(self, X) -> np.ndarray:
        """Evaluate a read-only copy of the batch in one barrier, validate a
        read-only copy of its responses, and hold both, with the barrier's
        timing, for the next ``log``; return the responses."""
        X = _frozen_array(np.atleast_2d(X))
        start = time.perf_counter()
        try:
            y = self.evaluator(X)
        except Exception as exc:
            raise EvaluationError(f"evaluator raised: {exc!r}", logs=self.logs) from exc
        end = time.perf_counter()
        y = _frozen_array(np.atleast_1d(y))
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
            self.best_x = X[i]
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

    def result(self) -> RunResult:
        return RunResult(
            x_best=self.best_x,
            y_best=self.best_y,
            logs=self.logs,
            n_evaluations=self.n_evaluations,
        )


@one_blas_thread()
def run_prosrs(
    objective: Objective,
    config: RunConfig,
    evaluator: Callable | None = None,
) -> RunResult:
    """Run the full surrogate optimization loop for ``config.n_iterations``.

    The initial design is evaluated in n_par-sized barrier batches before the
    iterations and does not consume the iteration budget; design batches
    after a restart do. Returns the evaluated point with the lowest response
    over the entire run, including evaluations made before any restart.
    OpenBLAS runs on one thread until the call returns or raises, evaluator
    calls included.
    """
    rec = _Recorder(objective, config, evaluator)
    domain = objective.domain

    def design_batches():
        points = latin_hypercube_maximin(config.m_doe, domain, rec.rngs["doe"])
        return [points[i : i + config.n_par] for i in range(0, len(points), config.n_par)]

    tree = ZoomTree(domain, config)
    pending = design_batches()
    proposal_count = 0  # 0-based count of SRS proposal steps (weight alternation)
    # The initial design's batches carry iteration 0, outside the budget.
    for iteration in [0] * len(pending) + list(range(1, config.n_iterations + 1)):
        node = tree.current
        state = node.state
        if pending:
            X, model = pending.pop(0), None
        else:
            model = fit_rbf(tree.data, node.omega, state.gamma)
            candidates = generate_candidates(
                tree.data,
                node.omega,
                state,
                model,
                config.n_candidates_per_dim * config.dim,
                rec.rngs["candidates"],
            )
            weights = weight_pattern(config.n_par, proposal_count)
            X = candidates[select_batch(candidates, model, weights)]
            proposal_count += 1

        event = tree.advance(X, rec.evaluate(X), model, rec.rngs["zoomout"])
        if event == EVENT_RESTART:
            pending = design_batches()
        rec.log(iteration, event, node.node_id, node.zoom_level, state)

    return rec.result()


def run_random_search(
    objective: Objective,
    config: RunConfig,
    evaluator: Callable | None = None,
) -> RunResult:
    """Baseline: each iteration evaluates n_par uniform points (no design)."""
    rec = _Recorder(objective, config, evaluator)
    if config.n_iterations < 1:
        raise ValueError("random search needs n_iterations >= 1: it has no design")
    for iteration in range(1, config.n_iterations + 1):
        rec.evaluate(objective.domain.sample_uniform(config.n_par, rec.rngs["candidates"]))
        rec.log(iteration, EVENT_NORMAL, 0, 0, config.s_init)
    return rec.result()
