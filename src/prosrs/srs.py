"""Stochastic response surface proposals: candidate generation and selection.

Each iteration draws a pool of candidates inside the current domain — a
mixture of uniform draws (Type I) and Gaussian perturbations of the current
surrogate-best point (Type II) — as one (t, d) array, then picks a batch by
blending a surrogate response score against a min-distance exploration score,
one pick per weight of the 1-D weight array that ``weight_pattern`` returns,
and returns the indices of the picks.

Spread is measured to the model's centres, the evaluated points of the node,
in the unit-cube coordinates that the surrogate is fitted in. The pool's one
``predict_batch`` pass yields each candidate's nearest-centre distance from
its basis row; ``_kernels.update_min_dists`` refreshes it with each pick.
``_kernels.min_dists``, the exact nearest distance (scipy's ``cdist``
minimum bit for bit), is off the run path: it is the reference that the
tests hold this scoring to.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .problem import BoxDomain, EvalDataset, ExploitState, clip_to_domain
from .surrogate import RbfSurrogate, min_max_scaled, predict_batch


def weight_pattern(n_par: int, iteration_index: int = 0) -> np.ndarray:
    """Weights for a batch of ``n_par`` proposals, as a 1-D array.

    For n_par >= 2 these are the n_par equally spaced values from 0.3 to 1.0
    inclusive. For n_par = 1 the single weight alternates between iterations:
    0.3 on even ``iteration_index``, 1.0 on odd.
    """
    if n_par < 1:
        raise ValueError("n_par must be >= 1")
    if n_par == 1:
        return np.array([0.3 if iteration_index % 2 == 0 else 1.0])
    return np.linspace(0.3, 1.0, n_par)


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


def select_batch(points, model: RbfSurrogate, weights) -> list:
    """Pick one row of ``points`` per weight, scoring response against spread.

    ``weights`` is a nonempty 1-D array of values in [0.3, 1], such as
    ``weight_pattern`` returns. For each weight w, over the remaining pool:
    the response score is the min-max scaled surrogate value, the distance
    score is the min-max scaled negated distance to the nearest point among
    the model's centres (the evaluated points it was fitted on) and the
    proposals already picked (both scores identically 0 when their range is
    degenerate). Distances are measured in the unit-cube coordinates of the
    model's domain, where the surrogate is fitted: one ``predict_batch`` pass
    gives the values, the pool's unit coordinates and each candidate's
    distance to its nearest centre, read off the basis (within the bound of
    ``predict_batch``'s docstring). The candidate minimizing w * response +
    (1 - w) * distance is selected (ties: lowest index) and removed from the
    pool; when another weight follows, the nearest distances are refreshed
    with the pick by ``_kernels.update_min_dists``. Returns the row indices
    of the picks, in weight order. ``points`` may come in any layout; it is
    not copied.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a nonempty 1-D array")
    if not np.all((weights >= 0.3) & (weights <= 1.0)):
        raise ValueError("weights must lie in [0.3, 1]")
    t = points.shape[0]
    if t < weights.size:
        raise ValueError(f"pool of {t} candidates cannot fill {weights.size} slots")

    unit, dmin = np.empty(points.shape), np.empty(t)
    g = predict_batch(model, points, unit=unit, nearest=dmin)
    active = np.ones(t, dtype=bool)
    picked = []
    for w in weights:
        if picked:
            dmin = _kernels.update_min_dists(dmin, unit, unit[picked[-1]])
        idx = np.flatnonzero(active)
        # Negation is exact: the distance score is (max - d) / (max - min).
        score = w * min_max_scaled(g[idx]) + (1.0 - w) * min_max_scaled(-dmin[idx])
        choice = idx[int(np.argmin(score))]
        picked.append(int(choice))
        active[choice] = False
    return picked
