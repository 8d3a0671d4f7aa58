"""Hot numeric kernels: pairwise distances and the multiquadric basis matrix.

Two interchangeable backends are provided. The numba backend JIT-compiles
tight loops (cached across processes); the fallback is pure numpy/scipy.
Selection happens once at import time:

* ``PROSRS_NUMBA=0`` (or ``false``/``no``/``off``) forces the numpy backend;
* if numba is not importable the numpy backend is used silently.

Both backends implement identical math; results agree to float64 rounding.
``scripts/bench_kernels.py`` times one against the other.

The numpy ``min_dists`` works on blocks of ``BLOCK_ROWS`` query points at a
time: it takes the minimum of each block's squared distances and one square
root at the end, so its memory is O(BLOCK_ROWS * len(refs)) however many
points are queried. sqrt is monotone and correctly rounded, so the result is
the same as the minimum of the distances.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.spatial.distance import cdist


def _env_wants_numba() -> bool:
    return os.environ.get("PROSRS_NUMBA", "1").strip().lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


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


# ---------------------------------------------------------------------------
# numpy backend
# ---------------------------------------------------------------------------

def _min_dists_numpy(points, refs):
    out = np.empty(points.shape[0])
    for block in row_blocks(points.shape[0]):
        out[block] = cdist(points[block], refs, "sqeuclidean").min(axis=1)
    return np.sqrt(out, out=out)


def _update_min_dists_numpy(current, points, new_ref):
    d = np.sqrt(((points - new_ref) ** 2).sum(axis=1))
    return np.minimum(current, d)


def _multiquadric_numpy(a, b):
    # In place, so each call allocates one matrix: the row-blocked callers
    # would otherwise page in fresh memory for every temporary of every block.
    out = cdist(a, b, "sqeuclidean")
    out += 1.0
    return np.sqrt(out, out=out)


NUMPY_IMPLS = {
    "min_dists": _min_dists_numpy,
    "update_min_dists": _update_min_dists_numpy,
    "multiquadric_matrix": _multiquadric_numpy,
}


# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------

try:
    import numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    NUMBA_AVAILABLE = False

NUMBA_IMPLS = None

if NUMBA_AVAILABLE:

    @numba.njit(cache=True)
    def _min_dists_nb(points, refs):
        t, d = points.shape
        n = refs.shape[0]
        out = np.empty(t)
        for i in range(t):
            best = np.inf
            for j in range(n):
                s = 0.0
                for k in range(d):
                    diff = points[i, k] - refs[j, k]
                    s += diff * diff
                if s < best:
                    best = s
            out[i] = np.sqrt(best)
        return out

    @numba.njit(cache=True)
    def _update_min_dists_nb(current, points, new_ref):
        t, d = points.shape
        out = np.empty(t)
        for i in range(t):
            s = 0.0
            for k in range(d):
                diff = points[i, k] - new_ref[k]
                s += diff * diff
            dist = np.sqrt(s)
            out[i] = dist if dist < current[i] else current[i]
        return out

    @numba.njit(cache=True)
    def _multiquadric_nb(a, b):
        m, d = a.shape
        n = b.shape[0]
        out = np.empty((m, n))
        for i in range(m):
            for j in range(n):
                s = 0.0
                for k in range(d):
                    diff = a[i, k] - b[j, k]
                    s += diff * diff
                out[i, j] = np.sqrt(1.0 + s)
        return out

    NUMBA_IMPLS = {
        "min_dists": _min_dists_nb,
        "update_min_dists": _update_min_dists_nb,
        "multiquadric_matrix": _multiquadric_nb,
    }

NUMBA_ENABLED = NUMBA_AVAILABLE and _env_wants_numba()

_ACTIVE = NUMBA_IMPLS if NUMBA_ENABLED else NUMPY_IMPLS


def _c2d(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def min_dists(points, refs) -> np.ndarray:
    """Distance from each row of ``points`` to its nearest row of ``refs``."""
    points = np.atleast_2d(_c2d(points))
    refs = np.atleast_2d(_c2d(refs))
    return _ACTIVE["min_dists"](points, refs)


def update_min_dists(current, points, new_ref) -> np.ndarray:
    """Elementwise min of ``current`` and the distance to one new point."""
    current = np.ascontiguousarray(current, dtype=np.float64)
    points = np.atleast_2d(_c2d(points))
    new_ref = np.ascontiguousarray(new_ref, dtype=np.float64)
    return _ACTIVE["update_min_dists"](current, points, new_ref)


def multiquadric_matrix(a, b) -> np.ndarray:
    """Matrix of sqrt(1 + ||a_i - b_j||^2) between two stacks of points."""
    a = np.atleast_2d(_c2d(a))
    b = np.atleast_2d(_c2d(b))
    return _ACTIVE["multiquadric_matrix"](a, b)
