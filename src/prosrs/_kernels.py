"""Hot numeric kernels: pairwise distances and the multiquadric basis matrix.

Everything here is plain numpy, and nothing here copies its input: the
kernels read the float stacks they are handed, in whatever layout, and write
only their own buffers or the ones a caller passes. Only the package calls
them, so they neither convert nor check their arguments; ``min_dists``, the
tests' reference, alone passes its arguments through ``np.atleast_2d``.

The squared distance between two points is summed over the coordinates in
order, as ``scipy.spatial.distance.cdist(..., "sqeuclidean")`` sums it, so
both round alike. ``squared_distances`` is that summation, and the only one:
it adds the squared differences one coordinate column at a time into one
buffer, for stacks of any layout. Every distance that a run compares is
summed by it (the design's maximin score, a candidate's distance to each pick
in ``update_min_dists``, and the zoom tree's nearest child centre) or read
off the basis: a candidate's distance to its nearest evaluated point, a
centre of the surrogate, is read off the smallest entry of its basis row in
``surrogate.predict_batch``, within the bound stated there. ``min_dists``,
the exact nearest distance that the tests hold that reading to, is the
smallest of each row's squared distances, square-rooted.

``multiquadric_matrix`` forms 1 + ||a_i - b_j||^2 as one matrix product of
two factors that carry the squared norms and the 1 as extra columns, after
shifting both stacks by the centre of the unit cube, where the surrogate's
points live. At prediction shapes (a block of rows against tens to hundreds
of centres) that product of d + 2 columns beats a distance loop, by the most
at high d; on a small square fit, the few extra numpy calls make it some
microseconds slower. The product cancels the squared norms against -2 a.b,
so each entry of 1 + r^2 carries an absolute error of about (||a - c||^2 +
||b - c||^2 + 1) * eps, c being that centre, per rounding; for unit-cube
points, over the d + 2 terms and the factors' own rounding, at most (3 d^2 /
4 + 3 d + 2) eps (see ``surrogate.predict_batch``), and relative to 1 + r^2
>= 1 that is as small.

``predict_batch`` builds the centres' factor once per call, then maps each
block of query rows to the unit cube, forms its basis and multiplies it by
the coefficients, all in buffers shared by the blocks; scoring a candidate
pool also takes each row's smallest basis entry there. ``row_blocks`` sizes
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
# Entries that a distance kernel holds at once (512 KiB of doubles): min_dists
# takes as many query rows per block as fit, and the maximin design as many
# pairs of points, at least one.
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


def squared_distances(a, b) -> np.ndarray:
    """Squared distances between the rows of two stacks of points that
    broadcast together, such as (n, d) against (n, d), (1, d) or (d,).

    The squared coordinate differences are added one coordinate column at a
    time, in coordinate order, into one buffer: the summation of scipy's
    ``cdist(..., "sqeuclidean")``. The stacks may come in any layout; in
    Fortran order (a transposed copy, as ``np.asfortranarray`` makes) each
    coordinate column is read contiguously.
    """
    acc = np.subtract(a[..., 0], b[..., 0])
    acc *= acc
    diff = np.empty_like(acc)
    for k in range(1, a.shape[-1]):
        np.subtract(a[..., k], b[..., k], out=diff)
        diff *= diff
        acc += diff
    return acc


def min_dists(points, refs) -> np.ndarray:
    """Distance from each row of ``points`` to its nearest row of ``refs``.

    Each row's smallest ``squared_distances`` to the refs, square-rooted: as
    the summation is scipy's and sqrt is monotone and correctly rounded, this
    is ``cdist(points, refs).min(axis=1)`` bit for bit. The rows go in
    blocks of as many as keep a block's distances within ``DIST_CELLS``
    entries, at least one, so memory stays bounded however many points are
    queried.
    """
    points, refs = np.atleast_2d(points, refs)
    if refs.shape[0] == 0:
        raise ValueError("refs must be nonempty")
    out = np.empty(points.shape[0])
    size = max(1, DIST_CELLS // refs.shape[0])
    for start in range(0, points.shape[0], size):
        block = slice(start, start + size)
        out[block] = squared_distances(points[block, None, :], refs).min(axis=1)
    return np.sqrt(out, out=out)


def update_min_dists(current, points, new_ref) -> np.ndarray:
    """Elementwise min of ``current``, shape (t,), and the distance from each
    row of the (t, d) stack ``points`` to one new point, shape (d,) or (1,
    d): ``squared_distances``, as ``min_dists`` sums them, a square root and
    a minimum, in one new array. The arguments are read as given, in any
    layout, and neither converted nor checked: only the package calls this.
    """
    acc = squared_distances(points, new_ref)
    np.sqrt(acc, out=acc)
    return np.minimum(current, acc, out=acc)


def multiquadric_factor(b) -> np.ndarray:
    """The centres' factor Q = [-2 b, 1, ||b||^2] of ``multiquadric_matrix``,
    with ``b``, an (n, d) stack, shifted by the unit cube's centre; shape (n,
    d + 2). ``b``'s rows are read in whatever layout they come in, and only
    the new factor is computed on, so its bits do not depend on that layout.
    """
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
    of k rows; what it does not pass is allocated. ``a`` and ``b`` are (k, d)
    and (n, d) stacks of floats, read as given and never copied: each is
    read once, into its own factor, and the product sees only the factors,
    so the result's bits do not depend on the stacks' layouts.
    """
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
