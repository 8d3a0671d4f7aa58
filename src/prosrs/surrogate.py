"""Weighted multiquadric radial basis regression with a GCV-chosen ridge.

The model is g(x) = sum_i c_i * phi(||x - x_i||) with phi(r) = sqrt(1 + r^2),
built in unit-cube-normalized coordinates. Coefficients minimize the weighted
ridge loss

    sum_j exp(gamma * yhat_j) * (y_j - g(x_j))^2 + lambda * sum_j c_j^2

where yhat is the dataset-normalized response (0 everywhere if the responses
are constant) and gamma <= 0, so more negative gamma concentrates accuracy on
the low-response points. lambda is the value on a log-spaced grid with the
lowest weighted generalized cross-validation score (Golub, Heath & Wahba,
Technometrics 1979); one decomposition scores the whole grid and yields the
coefficients, and the fit draws no random numbers. When every weight is 1
(gamma = 0, or constant responses) the basis matrix Phi is itself symmetric,
and that decomposition is the eigendecomposition of Phi, whose signed
eigenvalues serve as its singular values: nothing is squared, so it is as
accurate as a singular value decomposition, and faster. Weighted fits take
the singular value decomposition of W^(1/2) Phi, which is not symmetric.
``fit_rbf`` returns the fitted ``RbfSurrogate``; ``predict_batch`` evaluates
it at row-stacked points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import multiquadric_factor, multiquadric_matrix, row_blocks
from .problem import BoxDomain, EvalDataset, _frozen_array

# 1e-8 .. 1e2, log-spaced, 11 points.
DEFAULT_LAMBDA_GRID = tuple(float(10.0**k) for k in range(-8, 3))
# relative_l2_error scores its Monte-Carlo sample in chunks of
# row_blocks(n_mc, MC_VALUES_PER_POINT) rows, 8192 at any dimension, so that
# an array of true_mean's holding up to this many doubles a point stays
# within _kernels.BASIS_CELLS. In model-error benchmark runs (wall time
# against one pass over the whole sample), chunks of BASIS_CELLS coordinates
# (21 824 rows at d = 6) were 3% slower, and took 7 000-10 000 minor page
# faults per Hartmann6 trial where one pass took 1 200-2 800; chunks of 2048
# rows were 1% slower, from their fixed cost per chunk; 8192 rows were 1-3%
# faster, at 6.6 MB less peak RSS than the first and the same as the second.
MC_VALUES_PER_POINT = 16


@dataclass(frozen=True)
class RbfSurrogate:
    """Fitted multiquadric model; centers live in unit-cube coordinates.

    ``centers`` and ``coefficients`` are the model's own read-only copies of
    the arrays it is built from, which stay the caller's and writable.
    """

    centers: np.ndarray
    coefficients: np.ndarray
    gamma: float
    lam: float
    norm_record: BoxDomain

    def __post_init__(self):
        centers = _frozen_array(np.atleast_2d(self.centers))
        coefficients = _frozen_array(np.atleast_1d(self.coefficients))
        if coefficients.shape != (centers.shape[0],):
            raise ValueError("one coefficient per center required")
        if self.gamma > 0:
            raise ValueError("gamma must be non-positive")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "coefficients", coefficients)


def min_max_scaled(v: np.ndarray) -> np.ndarray:
    """``(v - min) / (max - min)``, identically 0 when the range is degenerate
    (constant, or NaN)."""
    v = np.asarray(v, dtype=float)
    lo, hi = v.min(), v.max()
    if hi > lo:
        return (v - lo) / (hi - lo)
    return np.zeros_like(v)


def response_weights(y: np.ndarray, gamma: float) -> np.ndarray:
    """Per-point loss weights exp(gamma * yhat); all ones for gamma = 0."""
    return np.exp(gamma * min_max_scaled(y))


def fit_rbf(data: EvalDataset, domain: BoxDomain, gamma: float) -> RbfSurrogate:
    """Fit the weighted multiquadric model, its ridge penalty chosen by GCV.

    Points are mapped to the unit cube via ``domain``. With A = W^(1/2) Phi,
    b = W^(1/2) y and one decomposition A = L diag(s) R^T, L and R
    orthogonal, every penalty on DEFAULT_LAMBDA_GRID has alpha = L diag(1 /
    (s^2 + lambda)) L^T b, residual (I - H) b = lambda * alpha and tr(I - H)
    = lambda * sum 1 / (s^2 + lambda). Lambda cancels from the generalized
    cross-validation score n * |(I - H) b|^2 / tr(I - H)^2, so the score is
    n * |alpha|^2 / (sum 1 / (s^2 + lambda))^2, and the lowest one wins. The
    coefficients A^T alpha are formed as R diag(s / (s^2 + lambda)) L^T b,
    which stays accurate where A is nearly singular.

    Which decomposition: when every weight is 1 (always at gamma = 0, and at
    any gamma for constant responses), A = Phi is symmetric, and its
    eigendecomposition Phi = V diag(s) V^T (``np.linalg.eigh``) is the
    decomposition with L = R = V. Its s are the eigenvalues, signed: the
    multiquadric matrix of distinct points has one positive eigenvalue and
    n - 1 negative ones (Micchelli, Constr. Approx. 1986), and only s^2 and
    s * L^T b enter the formulas above, so the sign is carried through
    exactly. Nothing is squared before the decomposition, so the fit is as
    accurate as with the singular value decomposition, which takes about
    twice as long on one BLAS thread at n = 48-400 and, at n = 400, about 4
    MB more memory. Otherwise A = W^(1/2) Phi is not symmetric and its
    singular value decomposition A = U diag(s) V^T gives L = U, R = V, s >=
    0. Requires at least two records.
    """
    n = len(data)
    if n < 2:
        raise ValueError("at least 2 evaluations are required to fit a surrogate")
    if gamma > 0:
        raise ValueError("gamma must be non-positive")

    centers = domain.to_unit(data.X)
    sqrt_w = np.sqrt(response_weights(data.y, gamma))
    a = multiquadric_matrix(centers, centers)
    if np.all(sqrt_w == 1.0):
        s, left = np.linalg.eigh(a)
        right = left
    else:
        a *= sqrt_w[:, None]
        left, s, rt = np.linalg.svd(a)
        right = rt.T
    # Scored and solved for the responses scaled to |b| < 1, and scaled back
    # by the same power of two, which is exact: the squared scores of huge or
    # tiny responses would overflow or underflow.
    b = sqrt_w * data.y
    k = int(np.frexp(np.max(np.abs(b)))[1])
    ub = left.T @ np.ldexp(b, -k)

    shifted = s**2 + np.array(DEFAULT_LAMBDA_GRID)[:, None]
    scores = n * np.sum((ub / shifted) ** 2, axis=1) / np.sum(1.0 / shifted, axis=1) ** 2
    # s^2 + lambda >= lambda > 0, so no grid point is singular; a grid point is
    # unusable only when its score is not finite.
    finite = np.isfinite(scores)
    if not finite.any():
        raise ValueError("no lambda on the grid gives a finite GCV score")
    best = int(np.argmin(np.where(finite, scores, np.inf)))

    return RbfSurrogate(
        centers=centers,
        coefficients=np.ldexp(right @ (s * ub / shifted[best]), k),
        gamma=float(gamma),
        lam=DEFAULT_LAMBDA_GRID[best],
        norm_record=domain,
    )


def predict_batch(model: RbfSurrogate, X, *, unit=None, nearest=None) -> np.ndarray:
    """Surrogate values, shape (k,), at ``k`` row-stacked points in original
    coordinates (a single point of shape (d,) counts as one row).

    Rows are evaluated in blocks of at most ``_kernels.BASIS_CELLS`` basis
    entries (see ``_kernels.row_blocks``), so the memory held beside the
    result is one block's basis matrix, row factor and unit-cube rows,
    whatever the number of points; the centres' factor is built once per
    call. Under ``_kernels.one_blas_thread``, as in every run and every
    model-error trial, the result equals one dense ``multiquadric_matrix(u,
    centers) @ coefficients`` over all rows bit for bit; with more BLAS
    threads its last bits can differ from that product, since BLAS splits the
    dense rows between its threads where it likes.

    Scoring a candidate pool passes two more outputs, and the values are the
    same bits. ``unit``, shape (k, d), receives the rows in unit-cube
    coordinates (``model.norm_record.to_unit(X)`` bit for bit), in place of a
    block buffer. ``nearest``, shape (k,), receives each row's distance to
    its nearest centre in those coordinates, read off the block's basis: the
    smallest entry b of a row (a row ``argmin`` and a gather) gives r' =
    sqrt(b^2 - 1). For rows and centres in the unit cube, the basis product's
    entries of 1 + r^2 are off by at most (3 d^2 / 4 + 3 d + 2) eps: a dot
    product of d + 2 terms whose magnitudes sum to at most d + 1, plus the
    rounding of its factors and of the shift by the cube's centre. The square
    root, the squaring, the subtraction and the last square root add at most
    (3 d + 2) eps. So against the exact nearest distance r, |r'^2 - r^2| <= E
    = (d + 3)^2 eps and |r' - r| <= min(sqrt(E), E / r): a row equal to a
    centre can read up to (d + 3) sqrt(eps), 1.9e-7 at d = 10, instead of 0.
    ``_kernels.min_dists``, each row's smallest squared distance summed as
    scipy's ``cdist`` sums it, square-rooted, is the exact reference.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    norm, d = model.norm_record, model.norm_record.dim
    if X.shape[1] != d:
        raise ValueError(f"points have dimension {X.shape[1]}, expected {d}")
    q = multiquadric_factor(model.centers)
    n = q.shape[0]
    blocks = row_blocks(X.shape[0], n)
    rows = max((b.stop - b.start for b in blocks), default=0)
    # Buffers shared by the blocks, each block's products written in place.
    # Pool scoring maps the rows into ``unit`` and makes no row buffer: an
    # unused one, though never touched, raised select_batch's minor page
    # faults from 162-184 to 338 a call over 40-iteration Ackley10 and Levy10
    # runs.
    u_buf = np.empty((rows, d)) if unit is None else None
    p_buf, v_buf = np.empty((rows, d + 2)), np.empty((rows, n))
    out = np.empty(X.shape[0])
    for block in blocks:
        k = block.stop - block.start
        u = norm.to_unit(X[block], out=u_buf[:k] if unit is None else unit[block])
        basis = multiquadric_matrix(u, q=q, p=p_buf[:k], out=v_buf[:k])
        np.matmul(basis, model.coefficients, out=out[block])
        if nearest is not None:
            # b >= 1, since the basis clamps 1 + r^2 to at least 1.
            b = basis[np.arange(k), basis.argmin(axis=1)]
            b *= b
            b -= 1.0
            np.sqrt(b, out=nearest[block])
    return out


def relative_l2_error(
    model: RbfSurrogate,
    true_mean,
    domain: BoxDomain,
    n_mc: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo relative L2 error of the model against the true mean.

    The n_mc uniform points are drawn, predicted and scored in chunks of
    ``_kernels.row_blocks(n_mc, MC_VALUES_PER_POINT)`` rows (8192), so that
    beside the n_mc model and true-mean values only one chunk's points, and
    what ``true_mean`` allocates for them, are held. ``true_mean`` is called
    once per chunk: it must map a (k, d) stack of points to k values,
    computing each row on its own. The chunks draw the same doubles as one
    draw of the whole sample and start at multiples of 64 rows, so under
    ``_kernels.one_blas_thread`` (as in every model-error trial) the result
    equals that of one pass bit for bit.

    Raises if ``true_mean`` returns the wrong shape or a non-finite value
    (naming the first such point), or if the true mean is (numerically) zero
    in L2 over the sample, where the ratio is undefined. Both norms are taken
    of the values scaled by one power of two, 2^-k with k the exponent of
    max(|f|, |g|), which is exact and cancels in the ratio: the squares of
    huge or tiny values would overflow or underflow.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    chunks = row_blocks(n_mc, MC_VALUES_PER_POINT)
    x_buf = np.empty((max(c.stop - c.start for c in chunks), domain.dim))
    f, g = np.empty(n_mc), np.empty(n_mc)
    for chunk in chunks:
        rows = chunk.stop - chunk.start
        x = domain.sample_uniform(rows, rng, out=x_buf[:rows])
        g[chunk] = predict_batch(model, x)
        values = np.asarray(true_mean(x), dtype=float)
        if values.shape != (rows,):
            raise ValueError(f"true_mean returned shape {values.shape}, expected ({rows},)")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(
                f"true_mean returned non-finite value {values[bad[0]]} at point {x[bad[0]]}"
            )
        f[chunk] = values
    k = int(np.frexp(max(np.max(np.abs(f)), np.max(np.abs(g))))[1])
    f, g = np.ldexp(f, -k), np.ldexp(g, -k)
    denom = float(np.sqrt(np.mean(f**2)))
    if denom == 0.0:
        raise ValueError("true mean has zero L2 norm over the sample")
    return float(np.sqrt(np.mean((g - f) ** 2)) / denom)
