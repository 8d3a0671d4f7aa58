"""Plug-in objective factories used by the CLI tests."""

from functools import partial

import numpy as np

from prosrs.problem import BoxDomain, Objective

DOMAIN = BoxDomain(np.array([-1.0]), np.array([1.0]))


def noisy_quadratic(rng, x):
    """(x - 0.3)^2 plus noise from ``rng``, drawn in call order."""
    return float((x[0] - 0.3) ** 2 + 0.01 * rng.standard_normal())


def quadratic(seed):
    """A plug-in that pickles: its point function is a module-level one."""
    return Objective.pointwise(DOMAIN, partial(noisy_quadratic, np.random.default_rng(seed)))


def broken(seed):
    calls = {"n": 0}

    def evaluate(x):
        calls["n"] += 1
        if calls["n"] > 6:
            return float("nan")
        return float(x[0] ** 2)

    return Objective.pointwise(DOMAIN, evaluate)


def unevaluable(seed):
    def evaluate(x):
        raise RuntimeError("this objective must not be evaluated")

    return Objective.pointwise(DOMAIN, evaluate)


def broken_at_seed_1(seed):
    """``broken`` for seed 1 and ``quadratic`` for every other seed."""
    return broken(seed) if seed == 1 else quadratic(seed)


def raises_type_error(seed):
    """A factory that takes the seed, but whose body raises a TypeError."""
    raise TypeError("raised inside the factory")
