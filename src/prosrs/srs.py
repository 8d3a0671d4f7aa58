"""Stochastic response surface proposals: candidate generation and selection.

Each iteration draws a pool of candidates inside the current domain — a
mixture of uniform draws (Type I) and Gaussian perturbations of the current
surrogate-best point (Type II) — as one (t, d) array, then picks a batch by
blending a surrogate response score against a min-distance exploration score,
one pick per weight in the pattern, and returns the indices of the picks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .problem import BoxDomain, EvalDataset, ExploitState, clip_to_domain
from .surrogate import RbfSurrogate, predict_batch


@dataclass(frozen=True)
class WeightPattern:
    """Per-slot response-vs-distance tradeoff weights, each in [0.3, 1]."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.size < 1:
            raise ValueError("weight pattern must be nonempty")
        if np.any(w < 0.3) or np.any(w > 1.0):
            raise ValueError("weights must lie in [0.3, 1]")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return int(self.weights.size)


def weight_pattern(n_par: int, iteration_index: int = 0) -> WeightPattern:
    """Weights for a batch of ``n_par`` proposals.

    For n_par >= 2 these are the n_par equally spaced values from 0.3 to 1.0
    inclusive. For n_par = 1 the single weight alternates between iterations:
    0.3 on even ``iteration_index``, 1.0 on odd.
    """
    if n_par < 1:
        raise ValueError("n_par must be >= 1")
    if n_par == 1:
        return WeightPattern(np.array([0.3 if iteration_index % 2 == 0 else 1.0]))
    return WeightPattern(np.linspace(0.3, 1.0, n_par))


def best_fit_index(data: EvalDataset, model: RbfSurrogate) -> int:
    """Index of the data point with the lowest surrogate value (ties: lowest)."""
    if len(data) == 0:
        raise ValueError("dataset is empty")
    return int(np.argmin(predict_batch(model, data.X)))


def generate_candidates(
    data: EvalDataset,
    omega: BoxDomain,
    state: ExploitState,
    model: RbfSurrogate,
    t: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``t`` candidates in ``omega`` as a (t, d) array: first a Type I
    fraction of floor(10p)/10 uniform over the domain, then Type II Gaussian
    perturbations of the surrogate-best data point with per-dimension
    standard deviation sigma * side_length, clamped back into the domain.
    Both parts are drawn into one array, in place."""
    if t < 1:
        raise ValueError("t must be >= 1")
    n_uniform = int(np.floor(np.floor(10.0 * state.p) / 10.0 * t + 0.5))

    pts = np.empty((t, omega.dim))
    omega.sample_uniform(n_uniform, rng, out=pts[:n_uniform])

    x_star = data.X[best_fit_index(data, model)]
    gauss = rng.standard_normal(out=pts[n_uniform:])
    gauss *= state.sigma * omega.side_lengths
    gauss += x_star
    clip_to_domain(gauss, omega, out=gauss)
    return pts


def select_batch(points, model: RbfSurrogate, evaluated, pattern: WeightPattern) -> list:
    """Pick one row of ``points`` per weight, scoring response against spread.

    For each weight w, over the remaining pool: the response score is the
    min-max normalized surrogate value, the distance score is the min-max
    normalized negated distance to the nearest point among the evaluated
    points and the proposals already picked (both scores identically 0 when
    their range is degenerate). The candidate minimizing
    w * response + (1 - w) * distance is selected (ties: lowest index),
    removed from the pool, and the nearest-distances are refreshed. Returns
    the row indices of the picks, in pattern order.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    evaluated = np.atleast_2d(np.asarray(evaluated, dtype=float))
    t = points.shape[0]
    if t == 0 or evaluated.shape[0] == 0:
        raise ValueError("candidates and evaluated points must be nonempty")
    n_par = len(pattern)
    if t < n_par:
        raise ValueError(f"pool of {t} candidates cannot fill {n_par} slots")

    g = predict_batch(model, points)
    dmin = _kernels.min_dists(points, evaluated)
    # A transposed copy, whose coordinate columns the refreshes read.
    columns = np.asfortranarray(points)
    active = np.ones(t, dtype=bool)
    picked = []
    for w in pattern.weights:
        idx = np.flatnonzero(active)
        g_pool = g[idx]
        d_pool = dmin[idx]

        g_lo, g_hi = g_pool.min(), g_pool.max()
        if g_hi > g_lo:
            score_resp = (g_pool - g_lo) / (g_hi - g_lo)
        else:
            score_resp = np.zeros_like(g_pool)

        d_lo, d_hi = d_pool.min(), d_pool.max()
        if d_hi > d_lo:
            score_dist = (d_hi - d_pool) / (d_hi - d_lo)
        else:
            score_dist = np.zeros_like(d_pool)

        choice = idx[int(np.argmin(w * score_resp + (1.0 - w) * score_dist))]
        picked.append(int(choice))
        active[choice] = False
        dmin = _kernels.update_min_dists(dmin, columns, points[choice])
    return picked
