"""Weighted multiquadric radial basis regression with a cross-validated ridge.

The model is g(x) = sum_i c_i * phi(||x - x_i||) with phi(r) = sqrt(1 + r^2),
built in unit-cube-normalized coordinates. Coefficients minimize the weighted
ridge loss

    sum_j exp(gamma * yhat_j) * (y_j - g(x_j))^2 + lambda * sum_j c_j^2

where yhat is the dataset-normalized response (0 everywhere if the responses
are constant) and gamma <= 0, so more negative gamma concentrates accuracy on
the low-response points. lambda is picked by k-fold cross validation over a
log-spaced grid, scoring held-out points with the same weights, then the model
is refit on all data at the winning value. ``fit_rbf`` returns the fitted
``RbfSurrogate``; ``predict_batch`` evaluates it at row-stacked points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import multiquadric_matrix, row_blocks
from .problem import BoxDomain, EvalDataset

# Cross-validation folds (fewer when there are fewer points).
N_FOLDS = 5
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


def _ridge_solutions(phi_tr, w_tr, y_tr, lambdas):
    """Solve the weighted normal equations for every lambda at once.

    One symmetric eigendecomposition serves the whole grid. Returns a list of
    coefficient vectors, with None for grid points where the system is
    singular (non-positive spectrum after shifting), which are skipped.
    """
    gram = phi_tr.T @ (w_tr[:, None] * phi_tr)
    rhs = phi_tr.T @ (w_tr * y_tr)
    evals, vecs = np.linalg.eigh(gram)
    rhs_rot = vecs.T @ rhs
    out = []
    for lam in lambdas:
        shifted = evals + lam
        if shifted.min() <= 0:
            out.append(None)
            continue
        out.append(vecs @ (rhs_rot / shifted))
    return out


def fit_rbf(
    data: EvalDataset,
    domain: BoxDomain,
    gamma: float,
    fold_seed: int = 0,
) -> RbfSurrogate:
    """Fit the weighted multiquadric model with cross-validated ridge penalty.

    Points are mapped to the unit cube via ``domain``. Response normalization
    and weights are computed once from the full dataset (not per fold), the
    min(N_FOLDS, n) folds come from a random permutation seeded by
    ``fold_seed``, and held-out residuals are scored with the same weights.
    The penalty is the best value on DEFAULT_LAMBDA_GRID. Requires at least
    two records; returns the model refit on all of them.
    """
    n = len(data)
    if n < 2:
        raise ValueError("at least 2 evaluations are required to fit a surrogate")
    if gamma > 0:
        raise ValueError("gamma must be non-positive")

    centers = domain.to_unit(data.X)
    y = data.y
    w = response_weights(y, gamma)
    phi = multiquadric_matrix(centers, centers)

    rng = np.random.default_rng(fold_seed)
    k = min(N_FOLDS, n)
    folds = np.array_split(rng.permutation(n), k)

    scores = np.zeros(len(DEFAULT_LAMBDA_GRID))
    usable = np.ones(len(DEFAULT_LAMBDA_GRID), dtype=bool)
    for fold in folds:
        mask = np.zeros(n, dtype=bool)
        mask[fold] = True
        tr = np.flatnonzero(~mask)
        te = np.flatnonzero(mask)
        solutions = _ridge_solutions(phi[np.ix_(tr, tr)], w[tr], y[tr], DEFAULT_LAMBDA_GRID)
        phi_te = phi[np.ix_(te, tr)]
        for i, coef in enumerate(solutions):
            if coef is None:
                usable[i] = False
                continue
            resid = y[te] - phi_te @ coef
            scores[i] += float(np.dot(w[te], resid**2))
    usable &= np.isfinite(scores)
    if not usable.any():
        raise ValueError("every lambda on the grid produced a singular system")
    scores = np.where(usable, scores, np.inf)
    best = int(np.argmin(scores))
    lam = DEFAULT_LAMBDA_GRID[best]

    coef = _ridge_solutions(phi, w, y, [lam])[0]
    if coef is None:
        raise ValueError(f"final refit is singular at lambda={lam}")
    return RbfSurrogate(
        centers=centers,
        coefficients=coef,
        gamma=float(gamma),
        lam=lam,
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


def training_loss(model: RbfSurrogate, data: EvalDataset) -> float:
    """Weighted ridge loss of ``model`` on ``data`` (the fit objective)."""
    w = response_weights(data.y, model.gamma)
    resid = data.y - predict_batch(model, data.X)
    return float(np.dot(w, resid**2) + model.lam * np.dot(model.coefficients, model.coefficients))


def relative_l2_error(
    model: RbfSurrogate,
    true_mean,
    domain: BoxDomain,
    n_mc: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo relative L2 error of the model against the true mean.

    ``true_mean`` may be vectorized over row-stacked points or accept single
    points. Raises if the true mean is (numerically) zero in L2 over the
    sample, where the ratio is undefined.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    X = domain.sample_uniform(n_mc, rng)
    g = predict_batch(model, X)
    try:
        f = np.asarray(true_mean(X), dtype=float)
    except Exception:
        f = None
    if f is None or f.shape != (n_mc,):
        f = np.array([float(true_mean(x)) for x in X])
    denom = float(np.sqrt(np.mean(f**2)))
    if denom == 0.0:
        raise ValueError("true mean has zero L2 norm over the sample")
    return float(np.sqrt(np.mean((g - f) ** 2)) / denom)
