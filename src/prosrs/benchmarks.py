"""Noisy optimization benchmark suite.

Twelve standard global-optimization test functions with their usual domains,
each wrapped with additive Gaussian noise of a fixed standard deviation. The
trailing number in a problem name is its dimension. The deterministic part is
exposed as ``true_mean`` for scoring against the noise-free landscape.

Each landscape body maps a row-stacked batch (n, d) to its n values; the
``_landscape`` decorator lets it also take a single point (d,), which gives a
float, and checks the dimension of a fixed-d landscape. The problems are one
table, ``_TABLE``; ``make_benchmark`` builds a problem from its row. Noise has
one path: ``NoisyBatchEvaluator`` draws it from one seed, and
``benchmark_objective`` evaluates through that evaluator, so both give the
same run for a seed.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .problem import BoxDomain, Objective, stream_seedseq


def _batch(x, d=None):
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if d is not None and X.shape[1] != d:
        raise ValueError(f"expected points of dimension {d}, got {X.shape[1]}")
    return X, np.asarray(x).ndim == 1


def _landscape(d=None):
    """Let a batch landscape take one point (d,) too, returning a float.

    A given ``d`` is the only dimension the landscape accepts.
    """

    def wrap(f):
        @functools.wraps(f)
        def landscape(x):
            X, scalar = _batch(x, d)
            values = f(X)
            return float(values[0]) if scalar else values

        return landscape

    return wrap


@_landscape()
def ackley(X):
    """Ackley function; global minimum 0 at the origin."""
    d = X.shape[1]
    s1 = np.sqrt(np.sum(X**2, axis=1) / d)
    s2 = np.sum(np.cos(2.0 * np.pi * X), axis=1) / d
    return -20.0 * np.exp(-0.2 * s1) - np.exp(s2) + 20.0 + np.e


@_landscape()
def alpine(X):
    """Alpine function sum |x sin x + 0.1 x|; global minimum 0 at the origin."""
    return np.sum(np.abs(X * np.sin(X) + 0.1 * X), axis=1)


@_landscape()
def griewank(X):
    """Griewank function; global minimum 0 at the origin."""
    d = X.shape[1]
    i = np.sqrt(np.arange(1, d + 1, dtype=float))
    return 1.0 + np.sum(X**2, axis=1) / 4000.0 - np.prod(np.cos(X / i), axis=1)


@_landscape()
def levy(X):
    """Levy function; global minimum 0 at (1, ..., 1)."""
    w = 1.0 + (X - 1.0) / 4.0
    head = np.sin(np.pi * w[:, 0]) ** 2
    mid = np.sum(
        (w[:, :-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * w[:, :-1] + 1.0) ** 2),
        axis=1,
    )
    tail = (w[:, -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w[:, -1]) ** 2)
    return head + mid + tail


@_landscape()
def sum_power(X):
    """Sum of increasing powers sum |x_i|^(i+1); global minimum 0 at the origin."""
    d = X.shape[1]
    exps = np.arange(2, d + 2, dtype=float)
    return np.sum(np.abs(X) ** exps, axis=1)


@_landscape(2)
def six_hump_camel(X):
    """Six-hump camel function; global minimum about -1.0316 (two minimizers)."""
    x1, x2 = X[:, 0], X[:, 1]
    return (
        (4.0 - 2.1 * x1**2 + x1**4 / 3.0) * x1**2
        + x1 * x2
        + (-4.0 + 4.0 * x2**2) * x2**2
    )


@_landscape(2)
def schaffer_n2(X):
    """Schaffer function N.2; global minimum 0 at the origin."""
    x1, x2 = X[:, 0], X[:, 1]
    ssq = x1**2 + x2**2
    return 0.5 + (np.sin(x1**2 - x2**2) ** 2 - 0.5) / (1.0 + 0.001 * ssq) ** 2


@_landscape(2)
def dropwave(X):
    """Drop-wave function; global minimum -1 at the origin."""
    ssq = np.sum(X**2, axis=1)
    return -(1.0 + np.cos(12.0 * np.sqrt(ssq))) / (0.5 * ssq + 2.0)


@_landscape(2)
def goldstein_price(X):
    """Goldstein-Price function; global minimum 3 at (0, -1)."""
    x1, x2 = X[:, 0], X[:, 1]
    a = 1.0 + (x1 + x2 + 1.0) ** 2 * (
        19.0 - 14.0 * x1 + 3.0 * x1**2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2**2
    )
    b = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
        18.0 - 32.0 * x1 + 12.0 * x1**2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2**2
    )
    return a * b


@_landscape()
def rastrigin(X):
    """Rastrigin function; global minimum 0 at the origin."""
    d = X.shape[1]
    return 10.0 * d + np.sum(X**2 - 10.0 * np.cos(2.0 * np.pi * X), axis=1)


_HARTMANN6_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMANN6_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
_HARTMANN6_P = np.array(
    [
        [0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.5886],
        [0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991],
        [0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.6650],
        [0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381],
    ]
)


@_landscape(6)
def hartmann6(X):
    """Hartmann 6-D function; global minimum about -3.32237."""
    # inner[i, j] = sum_k A[j, k] * (x_i[k] - P[j, k])^2
    diff = X[:, None, :] - _HARTMANN6_P[None, :, :]
    inner = np.sum(_HARTMANN6_A[None, :, :] * diff**2, axis=2)
    return -np.sum(_HARTMANN6_ALPHA * np.exp(-inner), axis=1)


_POWER_SUM_B = np.array([8.0, 18.0, 44.0, 114.0])


@_landscape(4)
def power_sum(X):
    """Power-sum function in 4-D; global minimum 0 at permutations of (1,2,2,3)."""
    powers = np.stack([np.sum(X ** (k + 1), axis=1) for k in range(4)], axis=1)
    return np.sum((powers - _POWER_SUM_B) ** 2, axis=1)


@dataclass(frozen=True)
class BenchmarkProblem:
    """A noisy benchmark: deterministic landscape plus Gaussian noise level.

    ``true_mean`` maps a batch (n, d) to its n noise-free values, and a single
    point (d,) to a float.
    """

    name: str
    dimension: int
    domain: BoxDomain
    noise_std: float
    true_mean: object
    known_min_value: float | None = None
    known_minimizer: np.ndarray | None = None


def _cube(lo, hi, d):
    return BoxDomain(np.full(d, float(lo)), np.full(d, float(hi)))


# name: (true_mean, domain, noise_std, known_min_value, known_minimizer). A
# domain is frozen, so every problem may share it; make_benchmark copies the
# minimizer.
_TABLE = {
    "Ackley10": (ackley, _cube(-32.768, 32.768, 10), 1.0, 0.0, np.zeros(10)),
    "Alpine10": (alpine, _cube(-10, 10, 10), 1.0, 0.0, np.zeros(10)),
    "Griewank10": (griewank, _cube(-600, 600, 10), 2.0, 0.0, np.zeros(10)),
    "Levy10": (levy, _cube(-10, 10, 10), 1.0, 0.0, np.ones(10)),
    "SumPower10": (sum_power, _cube(-1, 1, 10), 0.05, 0.0, np.zeros(10)),
    "SixHumpCamel2": (
        six_hump_camel, BoxDomain(np.array([-3.0, -2.0]), np.array([3.0, 2.0])), 0.1,
        -1.0316284534898774, None,  # two symmetric global minimizers
    ),
    "Schaffer2": (schaffer_n2, _cube(-100, 100, 2), 0.02, 0.0, np.zeros(2)),
    "Dropwave2": (dropwave, _cube(-5.12, 5.12, 2), 0.02, -1.0, np.zeros(2)),
    "GoldsteinPrice2": (goldstein_price, _cube(-2, 2, 2), 2.0, 3.0, np.array([0.0, -1.0])),
    "Rastrigin2": (rastrigin, _cube(-5.12, 5.12, 2), 0.5, 0.0, np.zeros(2)),
    "Hartmann6": (
        hartmann6, _cube(0, 1, 6), 0.05, -3.322368011415511,
        np.array([0.20168952, 0.15001069, 0.47687398, 0.27533243, 0.31165162, 0.65730054]),
    ),
    "PowerSum4": (power_sum, _cube(0, 4, 4), 1.0, 0.0, np.array([1.0, 2.0, 2.0, 3.0])),
}

BENCHMARK_NAMES = tuple(_TABLE)


def make_benchmark(name: str) -> BenchmarkProblem:
    """Build one of the named benchmark problems, with its own minimizer array."""
    try:
        true_mean, domain, noise_std, min_value, minimizer = _TABLE[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; valid names: {', '.join(BENCHMARK_NAMES)}"
        ) from None
    return BenchmarkProblem(
        name, domain.dim, domain, noise_std, true_mean, min_value,
        None if minimizer is None else minimizer.copy(),
    )


class NoisyBatchEvaluator:
    """Batch evaluator: one ``true_mean`` call per batch plus per-point noise.

    A point's noise is ``noise_std`` times the first normal draw of its own
    child of ``seed``, spawned in submission order; spawning k children one at
    a time gives the same k, so the values do not depend on the batch sizes.
    """

    def __init__(self, problem: BenchmarkProblem, seed):
        self.problem = problem
        self._seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)

    def __call__(self, X) -> np.ndarray:
        problem = self.problem
        X, _ = _batch(X, problem.dimension)
        outside = ~problem.domain.contains(X)
        if outside.any():
            raise ValueError(f"point {X[outside][0]} lies outside the domain of {problem.name}")
        mean = np.asarray(problem.true_mean(X), dtype=float)
        if mean.shape != (len(X),):
            raise ValueError(f"true_mean must map (n, d) to (n,), got {mean.shape} for n={len(X)}")
        noise = [np.random.default_rng(s).standard_normal() for s in self._seq.spawn(len(X))]
        return mean + problem.noise_std * np.array(noise)


def benchmark_objective(problem: BenchmarkProblem, seed: int) -> Objective:
    """Wrap a benchmark as an Objective that evaluates one point at a time.

    Its noise is the run's "noise" stream for ``seed``, drawn through one
    locked ``NoisyBatchEvaluator``: a run through this objective alone gives
    the same values as a run through ``NoisyBatchEvaluator(problem,
    stream_seedseq(seed, "noise"))``.
    """
    evaluator = NoisyBatchEvaluator(problem, stream_seedseq(seed, "noise"))
    lock = threading.Lock()

    def evaluate(x):
        with lock:
            return float(evaluator(x)[0])

    return Objective(problem.dimension, problem.domain, evaluate)
