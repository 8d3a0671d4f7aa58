"""Plain references that tests check the library against.

Each is restated from its definition with dense numpy, independent of the
library's fast paths; none has a caller in the library itself.
"""

import math

import numpy as np
from scipy.spatial.distance import pdist

from prosrs import _kernels
from prosrs.problem import BoxDomain
from prosrs.surrogate import RbfSurrogate, predict_batch, response_weights


def max_zoom_level(rho, r_resolution):
    """Depth bound ceil(log_rho r): no deeper node can escape the restart check."""
    return math.ceil(math.log(r_resolution) / math.log(rho))


def training_loss(model, data):
    """Weighted ridge loss of ``model`` on ``data`` (the fit objective)."""
    w = response_weights(data.y, model.gamma)
    resid = data.y - predict_batch(model, data.X)
    return float(np.dot(w, resid**2) + model.lam * np.dot(model.coefficients, model.coefficients))


def fixed_lambda_model(data, gamma, lam):
    """The weighted ridge fit at one given penalty, on the unit box: the
    solution c of the normal equations (Phi^T W Phi + lam I) c = Phi^T W y."""
    phi = _kernels.multiquadric_matrix(data.X, data.X)
    w = response_weights(data.y, gamma)
    gram = phi.T @ (w[:, None] * phi) + lam * np.eye(len(data))
    coef = np.linalg.solve(gram, phi.T @ (w * data.y))
    unit_box = BoxDomain(np.zeros(data.dim), np.ones(data.dim))
    return RbfSurrogate(data.X, coef, gamma, lam, unit_box)


def gcv_scores(phi, w, y, lambdas):
    """Weighted GCV score n |(I - H) b|^2 / tr(I - H)^2 per penalty, from the
    explicit hat matrix H = A (A^T A + lam I)^-1 A^T with A = W^(1/2) Phi and
    b = W^(1/2) y."""
    n = len(y)
    a = np.sqrt(w)[:, None] * phi
    b = np.sqrt(w) * y
    out = []
    for lam in lambdas:
        hat = a @ np.linalg.solve(a.T @ a + lam * np.eye(n), a.T)
        resid = b - hat @ b
        out.append(n * float(resid @ resid) / float(np.trace(np.eye(n) - hat)) ** 2)
    return np.array(out)


def latin_hypercube_maximin_loop(m, domain, rng, n_restarts=100):
    """Best of ``n_restarts`` cell-centred Latin hypercubes, drawn one restart
    and one axis at a time with ``rng.permutation`` and scored by scipy's
    ``pdist`` (the first best wins; one point scores +inf)."""
    best, best_value = None, -np.inf
    for _ in range(n_restarts):
        u = np.empty((m, domain.dim))
        for j in range(domain.dim):
            u[:, j] = (rng.permutation(m) + 0.5) / m
        points = domain.from_unit(u)
        value = pdist(points).min() if m > 1 else np.inf
        if value > best_value:
            best, best_value = points, value
    return best


def relative_l2_error_dense(model, true_mean, domain, n_mc, rng):
    """The Monte-Carlo relative L2 error in one pass: the whole (n_mc, d)
    sample drawn at once, predicted at once and handed to ``true_mean`` in one
    call, both norms taken of the values scaled by the same power of two."""
    X = domain.sample_uniform(n_mc, rng)
    g = predict_batch(model, X)
    f = np.asarray(true_mean(X), dtype=float)
    k = int(np.frexp(max(np.max(np.abs(f)), np.max(np.abs(g))))[1])
    f, g = np.ldexp(f, -k), np.ldexp(g, -k)
    return float(np.sqrt(np.mean((g - f) ** 2)) / np.sqrt(np.mean(f**2)))
