"""Space-filling initial designs: Latin hypercube sampling with a maximin pick.

The construction is best-of-N random cell-centered Latin hypercubes: each
design places one point at the center of a random cell per axis slab, and the
design maximizing the minimum pairwise distance wins. Cell-centered placement
keeps the randomness down to the per-axis permutations.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import pdist

from .problem import BoxDomain


def _cell_centered_lhs(m: int, domain: BoxDomain, rng: np.random.Generator) -> np.ndarray:
    u = np.empty((m, domain.dim))
    for j in range(domain.dim):
        u[:, j] = (rng.permutation(m) + 0.5) / m
    return domain.from_unit(u)


def _min_pairwise_distance(points: np.ndarray) -> float:
    if points.shape[0] < 2:
        return float("inf")
    return float(pdist(points).min())


def latin_hypercube_maximin(
    m: int,
    domain: BoxDomain,
    rng: np.random.Generator,
    n_restarts: int = 100,
) -> np.ndarray:
    """Best of ``n_restarts`` random Latin hypercube designs of size ``m``.

    Returns the (m, d) points of the design with the largest minimum pairwise
    Euclidean distance (the first such design on ties; m=1 has no pairs and
    its distance counts as +inf). Deterministic given the generator state.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    best, best_value = None, -np.inf
    for _ in range(n_restarts):
        points = _cell_centered_lhs(m, domain, rng)
        value = _min_pairwise_distance(points)
        if value > best_value:
            best, best_value = points, value
    return best
