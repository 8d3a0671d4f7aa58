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
coefficients, and the fit draws no random numbers. ``fit_rbf`` returns the
fitted ``RbfSurrogate``; ``predict_batch`` evaluates it at row-stacked points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import multiquadric_matrix, row_blocks
from .problem import BoxDomain, EvalDataset

# 1e-8 .. 1e2, log-spaced, 11 points.
DEFAULT_LAMBDA_GRID = tuple(float(10.0**k) for k in range(-8, 3))


@dataclass(frozen=True)
class RbfSurrogate:
    """Fitted multiquadric model; centers live in unit-cube coordinates."""

    centers: np.ndarray
    coefficients: np.ndarray
    gamma: float
    lam: float
    norm_record: BoxDomain

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        coefficients = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if coefficients.shape != (centers.shape[0],):
            raise ValueError("one coefficient per center required")
        if self.gamma > 0:
            raise ValueError("gamma must be non-positive")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        centers.setflags(write=False)
        coefficients.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "coefficients", coefficients)


def normalized_responses(y: np.ndarray) -> np.ndarray:
    """Map responses to [0, 1]; all zeros when the responses are constant."""
    y = np.asarray(y, dtype=float)
    lo, hi = y.min(), y.max()
    if hi == lo:
        return np.zeros_like(y)
    return (y - lo) / (hi - lo)


def response_weights(y: np.ndarray, gamma: float) -> np.ndarray:
    """Per-point loss weights exp(gamma * yhat); all ones for gamma = 0."""
    return np.exp(gamma * normalized_responses(y))


def fit_rbf(data: EvalDataset, domain: BoxDomain, gamma: float) -> RbfSurrogate:
    """Fit the weighted multiquadric model, its ridge penalty chosen by GCV.

    Points are mapped to the unit cube via ``domain``. With A = W^(1/2) Phi,
    b = W^(1/2) y and one singular value decomposition A = U diag(s) V^T,
    every penalty on DEFAULT_LAMBDA_GRID has alpha = U diag(1 / (s^2 +
    lambda)) U^T b, residual (I - H) b = lambda * alpha and tr(I - H) = lambda
    * sum 1 / (s^2 + lambda). Lambda cancels from the generalized
    cross-validation score n * |(I - H) b|^2 / tr(I - H)^2, so the score is
    n * |alpha|^2 / (sum 1 / (s^2 + lambda))^2, and the lowest one wins. The
    coefficients A^T alpha are formed as V diag(s / (s^2 + lambda)) U^T b,
    which stays accurate where A is nearly singular. Requires at least two
    records.
    """
    n = len(data)
    if n < 2:
        raise ValueError("at least 2 evaluations are required to fit a surrogate")
    if gamma > 0:
        raise ValueError("gamma must be non-positive")

    centers = domain.to_unit(data.X)
    sqrt_w = np.sqrt(response_weights(data.y, gamma))
    u, s, vt = np.linalg.svd(sqrt_w[:, None] * multiquadric_matrix(centers, centers))
    ub = u.T @ (sqrt_w * data.y)

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
        coefficients=vt.T @ (s * ub / shifted[best]),
        gamma=float(gamma),
        lam=DEFAULT_LAMBDA_GRID[best],
        norm_record=domain,
    )


def predict_batch(model: RbfSurrogate, X) -> np.ndarray:
    """Surrogate values, shape (k,), at ``k`` row-stacked points in original
    coordinates (a single point of shape (d,) counts as one row).

    Rows are evaluated in fixed-size blocks, so the basis matrix held at any
    time has at most ``_kernels.BLOCK_ROWS`` rows whatever the number of points.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.norm_record.dim:
        raise ValueError(
            f"points have dimension {X.shape[1]}, expected {model.norm_record.dim}"
        )
    u = model.norm_record.to_unit(X)
    out = np.empty(u.shape[0])
    for block in row_blocks(u.shape[0]):
        out[block] = multiquadric_matrix(u[block], model.centers) @ model.coefficients
    return out


def relative_l2_error(
    model: RbfSurrogate,
    true_mean,
    domain: BoxDomain,
    n_mc: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo relative L2 error of the model against the true mean.

    ``true_mean`` must be vectorized: it maps the (n_mc, d) sample to n_mc
    values. Raises if it does not, or if the true mean is (numerically) zero
    in L2 over the sample, where the ratio is undefined.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    X = domain.sample_uniform(n_mc, rng)
    g = predict_batch(model, X)
    f = np.asarray(true_mean(X), dtype=float)
    if f.shape != (n_mc,):
        raise ValueError(f"true_mean returned shape {f.shape}, expected ({n_mc},)")
    denom = float(np.sqrt(np.mean(f**2)))
    if denom == 0.0:
        raise ValueError("true mean has zero L2 norm over the sample")
    return float(np.sqrt(np.mean((g - f) ** 2)) / denom)
