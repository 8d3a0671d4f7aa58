"""Space-filling initial designs: Latin hypercube sampling with a maximin pick.

The construction is best-of-N random cell-centered Latin hypercubes: each
design places one point at the center of a random cell per axis slab, and the
design maximizing the minimum pairwise distance wins. Cell-centered placement
keeps the randomness down to the per-axis permutations.

All N designs are drawn and scored at once, in plain numpy. One ``permuted``
call shuffles N * d rows of 0..m-1, drawing from the generator exactly as N * d
successive ``permutation(m)`` calls would, one per restart and axis in that
order. Each design's minimum pairwise distance is the square root of its
smallest squared distance, summed coordinate by coordinate as
``_kernels.squared_distances`` does, which is the value scipy's ``pdist``
gives; the roots, not the squares, are compared, so two designs whose
distances round to one root tie, and the first of them wins.
"""

from __future__ import annotations

import numpy as np

from ._kernels import DIST_CELLS, squared_distances
from .problem import BoxDomain


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
    d = domain.dim
    perms = rng.permuted(np.tile(np.arange(m), (n_restarts * d, 1)), axis=1)
    # Laid out axis by axis, (restart, axis, point), and indexed as (restart,
    # point, axis): the pairs below gather contiguous rows of one axis.
    designs = domain.from_unit((perms.reshape(n_restarts, d, m).transpose(0, 2, 1) + 0.5) / m)
    # Designs are returned as C-contiguous copies: callers' reductions over
    # the rows of a design round by its layout, and the noisy responses would
    # move with it. A single design needs no score.
    if n_restarts == 1:
        return designs[0].copy()
    by_axis = designs.transpose(0, 2, 1)
    # Each design's smallest squared distance, over chunks of its point pairs
    # that keep the coordinate differences of all designs within DIST_CELLS.
    first, second = np.triu_indices(m, 1)
    step = max(1, DIST_CELLS // (n_restarts * d))
    closest = np.full(n_restarts, np.inf)
    for s in range(0, len(first), step):
        chunk = slice(s, s + step)
        a, b = by_axis[:, :, first[chunk]], by_axis[:, :, second[chunk]]
        pairs = squared_distances(a.transpose(0, 2, 1), b.transpose(0, 2, 1))
        np.minimum(closest, pairs.min(axis=1), out=closest)
    return designs[int(np.argmax(np.sqrt(closest)))].copy()
