"""Hot numeric kernels: pairwise distances and the multiquadric basis matrix.

``min_dists`` works on blocks of ``BLOCK_ROWS`` query points at a time: it
takes the minimum of each block's squared distances and one square root at
the end, so its memory is O(BLOCK_ROWS * len(refs)) however many points are
queried. sqrt is monotone and correctly rounded, so the result is the same as
the minimum of the distances.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

# Query rows evaluated at once by the row-blocked kernels: a block of
# distances to n points takes BLOCK_ROWS * n doubles. A multiple of the row
# groups that BLAS's matrix-vector kernels work in, so a blocked product
# rounds as one product over all rows does, wherever BLAS also splits those
# rows between its threads at such multiples.
BLOCK_ROWS = 1024


def row_blocks(n_rows: int) -> list:
    """Slices that cover ``range(n_rows)`` in order, BLOCK_ROWS rows each.

    A one-row remainder joins the block before it: numpy computes a one-row
    matrix-vector product with a dot kernel, which rounds differently from
    the matrix-vector kernel that the dense product uses for that row.
    """
    starts = list(range(0, n_rows, BLOCK_ROWS))
    if n_rows > 1 and n_rows % BLOCK_ROWS == 1:
        starts.pop()
    bounds = starts + [n_rows]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _c2d(a):
    return np.atleast_2d(np.ascontiguousarray(a, dtype=np.float64))


def min_dists(points, refs) -> np.ndarray:
    """Distance from each row of ``points`` to its nearest row of ``refs``."""
    points, refs = _c2d(points), _c2d(refs)
    out = np.empty(points.shape[0])
    for block in row_blocks(points.shape[0]):
        out[block] = cdist(points[block], refs, "sqeuclidean").min(axis=1)
    return np.sqrt(out, out=out)


def update_min_dists(current, points, new_ref) -> np.ndarray:
    """Elementwise min of ``current`` and the distance to one new point."""
    current = np.ascontiguousarray(current, dtype=np.float64)
    points = _c2d(points)
    new_ref = np.ascontiguousarray(new_ref, dtype=np.float64)
    d = np.sqrt(((points - new_ref) ** 2).sum(axis=1))
    return np.minimum(current, d)


def multiquadric_matrix(a, b) -> np.ndarray:
    """Matrix of sqrt(1 + ||a_i - b_j||^2) between two stacks of points."""
    # In place, so each call allocates one matrix: the row-blocked callers
    # would otherwise page in fresh memory for every temporary of every block.
    out = cdist(_c2d(a), _c2d(b), "sqeuclidean")
    out += 1.0
    return np.sqrt(out, out=out)
