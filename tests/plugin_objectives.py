"""Plug-in objective factories used by the CLI tests."""

import numpy as np

from prosrs.problem import BoxDomain, Objective


def quadratic(seed):
    dom = BoxDomain(np.array([-1.0]), np.array([1.0]))
    rng = np.random.default_rng(seed)

    def noisy(x):
        return float((x[0] - 0.3) ** 2 + 0.01 * rng.standard_normal())

    return Objective(1, dom, noisy)


def broken(seed):
    dom = BoxDomain(np.array([-1.0]), np.array([1.0]))
    calls = {"n": 0}

    def evaluate(x):
        calls["n"] += 1
        if calls["n"] > 6:
            return float("nan")
        return float(x[0] ** 2)

    return Objective(1, dom, evaluate)


def unevaluable(seed):
    dom = BoxDomain(np.array([-1.0]), np.array([1.0]))

    def evaluate(x):
        raise RuntimeError("this objective must not be evaluated")

    return Objective(1, dom, evaluate)


def broken_at_seed_1(seed):
    """``broken`` for seed 1 and ``quadratic`` for every other seed."""
    return broken(seed) if seed == 1 else quadratic(seed)


def raises_type_error(seed):
    """A factory that takes the seed, but whose body raises a TypeError."""
    raise TypeError("raised inside the factory")
