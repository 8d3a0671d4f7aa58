"""Plain references that tests check the library against.

Each is restated from its definition with dense numpy, independent of the
library's fast paths; none has a caller in the library itself.
"""

import math

import numpy as np

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
