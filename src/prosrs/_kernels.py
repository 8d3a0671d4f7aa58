"""Hot numeric kernels: pairwise distances and the multiquadric basis matrix.

Everything here is plain numpy. The squared distance between two points is
summed over the coordinates in order, one coordinate column at a time, as
``scipy.spatial.distance.cdist(..., "sqeuclidean")`` sums it, so both round
alike. ``squared_distances`` is that summation, and every distance a run
compares goes through it (nearest evaluated point, the design's maximin
score) or through ``update_min_dists``, which sums the same way for one new
point (nearest pick).

``multiquadric_matrix`` forms 1 + ||a_i - b_j||^2 as one matrix product of
two factors that carry the squared norms and the 1 as extra columns, after
shifting both stacks by the centre of the unit cube, where the surrogate's
points live. At prediction shapes (a block of rows against tens to hundreds
of centres) that product of d + 2 columns beats a distance loop, by the most
at high d; on a small square fit, the few extra numpy calls make it some
microseconds slower. The product cancels the squared norms against -2 a.b,
so each entry of 1 + r^2 carries an absolute error of about (||a - c||^2 +
||b - c||^2 + 1) * eps, c being that centre: at most (d / 2 + 1) * eps for
unit-cube points, and relative to 1 + r^2 >= 1 that is as small.

``min_dists`` uses the product form only to find each point's nearest refs:
in it a distance near zero comes out as about sqrt(eps) times the points'
norm, an error that the basis's +1 absorbs but a nearest-point distance would
not. Every ref that the product puts within its error bound of the nearest
is then measured exactly, coordinate by coordinate (see its docstring). It
works on blocks of query points, as many as keep the block's product within
``DIST_CELLS`` entries, and takes one square root at the end, so its memory
stays bounded however many points are queried; sqrt is monotone and
correctly rounded, so the result is the same as the minimum of the
distances.

``predict_batch`` builds the centres' factor once per call, then maps each
block of query rows to the unit cube, forms its basis and multiplies it by
the coefficients, all in buffers shared by the blocks. ``row_blocks`` sizes
the blocks by a cell budget, BASIS_CELLS entries of the basis: rows x n
entries for n centres, with rows a multiple of 64 and at least 64, so that a
block and its factors stay in a core's L2 cache. A block of n = 400 centres
thus holds 320 rows, and one of 12 centres 10 880. Under ``one_blas_thread``,
as in every run and every model-error trial, the blocked products equal one
dense product over all rows bit for bit, since 64 is a multiple of the row
groups that BLAS's matrix-vector kernels work in. With more BLAS threads, BLAS may split the
dense product's rows between threads at a row that is not a multiple of 64,
and the last bits can differ.

``relative_l2_error`` splits its Monte-Carlo sample by the same rule, into
chunks of 8192 rows (see ``surrogate.MC_VALUES_PER_POINT``): each chunk
starts at a multiple of 64 rows, so ``predict_batch``'s blocks within it do
too, and the chunked error equals one pass over the whole sample bit for bit.

``one_blas_thread`` pins every loaded OpenBLAS to one thread while a run is
inside it. A run makes thousands of small dense solves and products (n in the
hundreds at most), for which a second BLAS thread costs CPU without saving
time. It pins every OpenBLAS it finds, numpy's and any other a caller has
loaded (scipy's, for one).
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

import numpy as np

# Entries of the basis matrix that predict_batch holds at once (1 MiB of
# doubles, so that a block and its factors stay in a 2 MiB L2 cache): a block
# against n centres takes as many query rows as fit, rounded down to a
# multiple of 64 and at least 64 (see row_blocks). Of 2^14 to 2^19 entries,
# 2^17 predicted 100 000 points fastest on a 2 MiB-L2 Xeon, by 12% over 2^16.
BASIS_CELLS = 2**17
# Entries that a distance kernel holds at once (512 KiB of doubles): the
# product matrix of min_dists takes as many query rows per block as fit, and
# the maximin design as many pairs of points, at least one. min_dists also
# holds a mask and a band per block and reads its product three times, and
# was 10-25% slower at 2^17 entries than here.
DIST_CELLS = 2**16


def row_blocks(n_rows: int, n_cols: int) -> list:
    """Slices that cover ``range(n_rows)`` in order, for a matrix of
    ``n_cols`` columns: each block takes as many rows as keep it within
    BASIS_CELLS entries, rounded down to a multiple of 64, and at least 64.

    A multiple of 64 rows is a multiple of the row groups that BLAS's
    matrix-vector kernels work in, so that on one BLAS thread a blocked
    product rounds as one product over all rows does. A one-row remainder
    joins the block before it: numpy computes a one-row matrix-vector product
    with a dot kernel, which rounds differently from the matrix-vector kernel
    that the dense product uses for that row.
    """
    size = max(64, BASIS_CELLS // max(n_cols, 1) // 64 * 64)
    starts = list(range(0, n_rows, size))
    if n_rows > 1 and n_rows % size == 1:
        starts.pop()
    bounds = starts + [n_rows]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _c2d(a):
    return np.atleast_2d(np.ascontiguousarray(a, dtype=np.float64))


def squared_distances(a, b) -> np.ndarray:
    """Squared distances between the rows of two stacks of points that
    broadcast together, such as (n, d) against (n, d) or (1, d).

    The squared coordinate differences are summed over the last axis in
    coordinate order, the summation of scipy's ``cdist(..., "sqeuclidean")``.
    The differences take the layout of ``a``: in Fortran order (a transposed
    copy, as ``np.asfortranarray`` makes) each coordinate column is read
    contiguously.
    """
    diff = np.subtract(a, b)
    diff *= diff
    acc = diff[..., 0].copy()
    for k in range(1, diff.shape[-1]):
        acc += diff[..., k]
    return acc


def min_dists(points, refs) -> np.ndarray:
    """Distance from each row of ``points`` to its nearest row of ``refs``.

    With c the mean of the refs, a = p - c and b = r - c, one product
    [a, 1] . [-2 b, ||b||^2] gives v = ||p - r||^2 - ||a||^2 for a block of
    rows against all refs, so the smallest v marks the nearest ref. Each v
    is off by at most 1.5 (d + 2) eps (||a||^2 + ||b||^2), and the squared
    distance that scipy's ``cdist`` computes (coordinate by coordinate, in
    order) is off the true one by at most (d + 2) eps (||a||^2 + ||b||^2).
    So the ref with the smallest computed distance has a v within
    5 (d + 2) eps (||a||^2 + max ||b||^2) of the row's smallest v. Every ref
    in that band, widened by a factor of two, is measured exactly and the
    smallest measure is kept: the result is cdist's minimum bit for bit by
    construction, not only when the product picks the right ref. Most rows
    have one ref in the band; a near tie costs a few more exact measures.
    """
    points, refs = _c2d(points), _c2d(refs)
    if refs.shape[0] == 0:
        raise ValueError("refs must be nonempty")
    d = refs.shape[1]
    c = refs.mean(axis=0)
    q = np.empty((d + 1, refs.shape[0]))
    qb = np.subtract(refs.T, c[:, None], out=q[:d])
    q[d] = np.einsum("ij,ij->j", qb, qb)
    qb *= -2.0
    # The bound of the docstring, doubled to cover the rounding of the band.
    tol = 2 * 5 * (d + 2) * np.finfo(float).eps
    reach = q[d].max()
    t = points.shape[0]
    out = np.empty(t)
    # Buffers shared by the blocks: a fresh product matrix per block would
    # cost more in page faults than the product itself.
    size = max(1, min(t, DIST_CELLS // refs.shape[0]))
    p_buf, v_buf = np.empty((size, d + 1)), np.empty((size, refs.shape[0]))
    p_buf[:, d] = 1.0
    for start in range(0, t, size):
        block = slice(start, min(start + size, t))
        x = points[block]
        n = x.shape[0]
        p, v, rows = p_buf[:n], v_buf[:n], np.arange(n)
        pa = np.subtract(x, c, out=p[:, :d])
        np.matmul(p, q, out=v)
        nearest = v.argmin(axis=1)
        band = tol * (np.einsum("ij,ij->i", pa, pa) + reach) + v[rows, nearest]
        exact = squared_distances(x, refs[nearest])
        # The nearest is never above its own band, so exactly one ref per row
        # is not above it unless some row has a near tie or a NaN band, and
        # then every ref not above the band is measured too.
        above = v > band[:, None]
        if np.count_nonzero(above) != above.size - n:
            i, j = np.nonzero(~above)
            np.minimum.at(exact, i, squared_distances(x[i], refs[j]))
        out[block] = exact
    return np.sqrt(out, out=out)


def update_min_dists(current, points, new_ref) -> np.ndarray:
    """Elementwise min of ``current`` and the distance from each row of
    ``points`` to one new point, summed as ``min_dists`` sums it: the squared
    differences are added one coordinate column at a time, in coordinate
    order, into one buffer, so ``points`` may come in any layout."""
    current = np.ascontiguousarray(current, dtype=np.float64)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    new_ref = np.atleast_2d(np.asarray(new_ref, dtype=np.float64))
    if new_ref.shape != (1, points.shape[1]):
        raise ValueError(f"new_ref of shape {new_ref.shape} is not one {points.shape[1]}-D point")
    acc = np.subtract(points[:, 0], new_ref[0, 0])
    acc *= acc
    diff = np.empty_like(acc)
    for k in range(1, points.shape[1]):
        np.subtract(points[:, k], new_ref[0, k], out=diff)
        diff *= diff
        acc += diff
    np.sqrt(acc, out=acc)
    return np.minimum(current, acc, out=acc)


def multiquadric_factor(b) -> np.ndarray:
    """The centres' factor Q = [-2 b, 1, ||b||^2] of ``multiquadric_matrix``,
    with ``b`` shifted by the unit cube's centre; shape (n, d + 2)."""
    b = _c2d(b)
    d = b.shape[1]
    q = np.empty((b.shape[0], d + 2))
    qb = np.subtract(b, 0.5, out=q[:, :d])
    q[:, d + 1] = np.einsum("ij,ij->i", qb, qb)
    qb *= -2.0
    q[:, d] = 1.0
    return q


def multiquadric_matrix(a, b=None, *, q=None, p=None, out=None) -> np.ndarray:
    """Matrix of sqrt(1 + ||a_i - b_j||^2) between two stacks of points.

    With both stacks shifted by the unit cube's centre, P = [a, ||a||^2 + 1,
    1] and Q = [-2 b, 1, ||b||^2] give P Q^T = 1 + ||a_i - b_j||^2. Each entry
    is clamped to at least 1, which rounding can undercut, and square-rooted
    in place. A caller that evaluates many stacks against the same centres
    passes their factor ``q = multiquadric_factor(b)`` instead of ``b``, and
    buffers for P, shape (k, d + 2), and the result, shape (k, n), for ``a``
    of k rows; what it does not pass is allocated.
    """
    a = _c2d(a)
    if q is None:
        q = multiquadric_factor(b)
    k, d = a.shape
    if p is None:
        p = np.empty((k, d + 2))
    pa = np.subtract(a, 0.5, out=p[:, :d])
    p[:, d] = np.einsum("ij,ij->i", pa, pa) + 1.0
    p[:, d + 1] = 1.0
    out = np.matmul(p, q.T, out=out)
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
