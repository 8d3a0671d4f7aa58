"""Hot numeric kernels: pairwise distances and the multiquadric basis matrix.

``multiquadric_matrix`` forms 1 + ||a_i - b_j||^2 as one matrix product of
two factors that carry the squared norms and the 1 as extra columns, after
shifting both stacks by the centre of the unit cube, where the surrogate's
points live. At prediction shapes (a block of rows against tens to hundreds
of centres) that product of d + 2 columns beats ``cdist``'s distance loop,
by the most at high d; on a small square fit, the few extra numpy calls
make it some microseconds slower. The product cancels the squared
norms against -2 a.b, so each entry of 1 + r^2 carries an absolute error of
about (||a - c||^2 + ||b - c||^2 + 1) * eps, c being that centre: at most
(d / 2 + 1) * eps for unit-cube points, and relative to 1 + r^2 >= 1 that is
as small. The distance kernels stay on ``cdist``, which subtracts the
coordinates before squaring: in the product form a distance near zero would
come out as about sqrt(eps) times the points' norm, an error that the
basis's +1 absorbs but a nearest-point distance would not.

``min_dists`` works on blocks of ``BLOCK_ROWS`` query points at a time: it
takes the minimum of each block's squared distances and one square root at
the end, so its memory is O(BLOCK_ROWS * len(refs)) however many points are
queried. sqrt is monotone and correctly rounded, so the result is the same as
the minimum of the distances.

``one_blas_thread`` pins every loaded OpenBLAS to one thread while a run is
inside it. A run makes thousands of small dense solves and products (n in the
hundreds at most), for which a second BLAS thread costs CPU without saving
time.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

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
    d = cdist(points, _c2d(new_ref), "sqeuclidean")[:, 0]
    return np.minimum(current, np.sqrt(d, out=d))


def multiquadric_matrix(a, b) -> np.ndarray:
    """Matrix of sqrt(1 + ||a_i - b_j||^2) between two stacks of points.

    With both stacks shifted by the unit cube's centre, P = [a, ||a||^2 + 1,
    1] and Q = [-2 b, 1, ||b||^2] give P Q^T = 1 + ||a_i - b_j||^2. Each entry
    is clamped to at least 1, which rounding can undercut, and square-rooted
    in place, so a call allocates the result and the two thin factors.
    """
    a, b = _c2d(a), _c2d(b)
    d = a.shape[1]
    p = np.empty((a.shape[0], d + 2))
    pa = np.subtract(a, 0.5, out=p[:, :d])
    p[:, d] = np.einsum("ij,ij->i", pa, pa) + 1.0
    p[:, d + 1] = 1.0
    q = np.empty((b.shape[0], d + 2))
    qb = np.subtract(b, 0.5, out=q[:, :d])
    q[:, d + 1] = np.einsum("ij,ij->i", qb, qb)
    qb *= -2.0
    q[:, d] = 1.0
    out = p @ q.T
    np.maximum(out, 1.0, out=out)
    return np.sqrt(out, out=out)


# The nesting depth of one_blas_thread, the thread counts its outermost entry
# saved, and the (get, set) thread-count functions of every loaded OpenBLAS,
# looked up on first use; all guarded by the lock.
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: list = []
_blas_functions: list | None = None


def _openblas_functions() -> list:
    """(get, set) thread-count functions of every OpenBLAS in this process.

    The libraries are found in the process's memory map, so none are found
    off Linux; a library that exports neither the plain nor the scipy-openblas
    names (32- or 64-bit integer builds) is skipped.
    """
    global _blas_functions
    if _blas_functions is not None:
        return _blas_functions
    paths = set()
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in fields[5].lower():
                    paths.add(fields[5].strip())
    except OSError:
        pass
    _blas_functions = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    _blas_functions.append((get, set_))
    return _blas_functions


@contextmanager
def one_blas_thread():
    """Run the block (or, as ``@one_blas_thread()``, the function) with every
    loaded OpenBLAS on one thread, and restore the previous counts after it.

    Nested and overlapping uses, from any thread, share one pin: the outermost
    entry saves the counts and the last exit restores them. Where no OpenBLAS
    is loaded this does nothing.
    """
    global _blas_depth, _blas_saved
    with _blas_lock:
        if _blas_depth == 0:
            functions = _openblas_functions()
            _blas_saved = [get() for get, _ in functions]
            for _, set_ in functions:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for (_, set_), count in zip(_blas_functions, _blas_saved):
                    set_(count)
