"""Core problem definitions: box domains, evaluation data, run configuration.

Points are kept in original (unnormalized) coordinates throughout; mapping to
the unit cube happens only inside the surrogate fit. All types here are
immutable value objects and safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np


class EvaluationError(RuntimeError):
    """An objective evaluation produced an unusable result (run-fatal).

    Carries the iteration logs collected up to the failure so callers can
    flush partial results.
    """

    def __init__(self, message, logs=None):
        super().__init__(message)
        self.logs = logs if logs is not None else []


# A box is refused unless this many times its squared diagonal D^2 is finite.
# Candidate spread and the surrogate live in unit-cube coordinates; what a run
# still forms in original coordinates is at most a squared distance between
# two points of the box, D^2 plus its rounding: the design's maximin score and
# the zoom tree's distance from the zoom centre to a child's centre. The tests'
# exact reference _kernels.min_dists forms only such squared distances too.
# 4 D^2 covers them with room to spare.
_SQUARED_DIAGONAL_MARGIN = 4.0


def _frozen_array(values):
    """A read-only float copy of ``values``, which stay the caller's and
    writable."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box ``[lower[i], upper[i]]`` in R^d with positive sides,
    short enough that squared distances between its points stay finite (see
    ``_SQUARED_DIAGONAL_MARGIN``)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _frozen_array(np.atleast_1d(self.lower))
        hi = _frozen_array(np.atleast_1d(self.upper))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if lo.size < 1:
            raise ValueError("domain must have at least one dimension")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("every dimension must have strictly positive length")
        with np.errstate(over="ignore"):
            sides = hi - lo
            reach = _SQUARED_DIAGONAL_MARGIN * np.sum(np.square(sides))
        if not np.all(np.isfinite(sides)):
            raise ValueError("every side length must be finite")
        if not np.isfinite(reach):
            raise ValueError(
                f"side lengths {sides.tolist()} are too long: squared distances "
                "between points of the box would overflow"
            )
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return int(self.lower.size)

    @property
    def side_lengths(self) -> np.ndarray:
        return self.upper - self.lower

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x) -> bool | np.ndarray:
        """Whether a point lies in the closed box; for row-stacked points, a
        boolean mask over the rows."""
        x = np.asarray(x, dtype=float)
        inside = np.all((x >= self.lower) & (x <= self.upper), axis=-1)
        return bool(inside) if inside.ndim == 0 else inside

    def contains_box(self, other: "BoxDomain") -> bool:
        return bool(np.all(other.lower >= self.lower) and np.all(other.upper <= self.upper))

    def to_unit(self, x, out=None) -> np.ndarray:
        """Affine map of a point (or row-stacked points) onto the unit cube,
        into ``out`` if given."""
        u = np.subtract(np.asarray(x, dtype=float), self.lower, out=out)
        u /= self.side_lengths
        return u

    def from_unit(self, u) -> np.ndarray:
        return self.lower + np.asarray(u, dtype=float) * self.side_lengths

    def sample_uniform(self, n: int, rng: np.random.Generator, out=None) -> np.ndarray:
        """Draw ``n`` points uniformly from the box, shape (n, d), into ``out``
        if given.

        Each point is lower + side * u from the generator's doubles u in row
        order, the arithmetic and draws of ``rng.uniform(lower, upper)``.
        """
        x = rng.random((n, self.dim), out=out)
        x *= self.side_lengths
        x += self.lower
        return x


def clip_to_domain(x, domain: BoxDomain, out=None) -> np.ndarray:
    """Componentwise clamp of ``x`` into the box, into ``out`` if given (which
    may be ``x`` itself).

    For a box this is the nearest domain point in Euclidean distance.
    Accepts a single point (d,) or a stack (n, d). A maximum and then a
    minimum give ``np.clip``'s result bit for bit, in less time.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != domain.dim:
        raise ValueError(
            f"point dimension {x.shape[-1]} does not match domain dimension {domain.dim}"
        )
    out = np.maximum(x, domain.lower, out=out)
    return np.minimum(out, domain.upper, out=out)


@dataclass(frozen=True)
class EvalDataset:
    """Ordered collection of evaluated pairs ``(x_j, y_j)``.

    Insertion order is preserved so iteration provenance is recoverable.
    ``X`` and ``y`` are the dataset's own read-only copies of the arrays it
    is built from, which stay the caller's and writable.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = _frozen_array(np.atleast_2d(self.X))
        y = _frozen_array(np.atleast_1d(self.y))
        if X.ndim != 2:
            raise ValueError("X must be a 2-D array of shape (n, d)")
        if y.shape != (X.shape[0],):
            raise ValueError("y must have one value per row of X")
        if X.size and not np.all(np.isfinite(X)):
            raise ValueError("points must be finite")
        if y.size and not np.all(np.isfinite(y)):
            raise ValueError("responses must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return int(self.X.shape[0])

    @property
    def dim(self) -> int:
        return int(self.X.shape[1])

    def with_batch(self, X_new, y_new) -> "EvalDataset":
        """New dataset with the batch appended (order preserved)."""
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.atleast_1d(np.asarray(y_new, dtype=float))
        return EvalDataset(np.vstack([self.X, X_new]), np.concatenate([self.y, y_new]))

    def restrict_to(self, domain: BoxDomain) -> "EvalDataset":
        """Subset of records inside ``domain``, original order preserved."""
        inside = domain.contains(self.X)
        return EvalDataset(self.X[inside], self.y[inside])


def _check_field_types(obj):
    """Reject a field of ``obj`` whose value is not of its annotated int or
    float type (a bool is neither), so a config-file "0.5" or 4.5 fails when
    the object is built and not mid-run."""
    for f in fields(obj):
        want = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
        v = getattr(obj, f.name)
        if want is not None and (isinstance(v, bool) or not isinstance(v, want)):
            kind = "an integer" if f.type == "int" else "a number"
            raise ValueError(f"{f.name} must be {kind}, got {v!r}")


@dataclass(frozen=True)
class ExploitState:
    """Exploitation-strength tuple (regression weight exponent, uniform-candidate
    fraction, perturbation spread). Decreasing any component exploits harder."""

    gamma: float
    p: float
    sigma: float

    def __post_init__(self):
        _check_field_types(self)
        if self.gamma > 0:
            raise ValueError("gamma must be non-positive")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Run parameters. Each field's default is the standard one; ``dim``,
    ``n_par``, ``m_doe`` and ``c_fail`` have none, since ``default_config``
    derives them from the dimension and batch size."""

    dim: int
    n_par: int
    n_iterations: int = 100
    m_doe: int
    s_init: ExploitState = ExploitState(gamma=0.0, p=1.0, sigma=0.1)
    sigma_crit: float = 0.025
    beta_init: float = 0.02
    beta_min: float = 0.01
    rho: float = 0.4
    r_resolution: float = 0.01
    c_fail: int
    delta_gamma: float = 2.0
    n_candidates_per_dim: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.n_par < 1:
            raise ValueError("n_par must be >= 1")
        if self.n_iterations < 0:
            raise ValueError("n_iterations must be >= 0")
        if self.m_doe < 2:
            raise ValueError("m_doe must be >= 2: the first fit needs two points")
        if not isinstance(self.s_init, ExploitState):
            raise ValueError("s_init must be an ExploitState")
        for name in ("sigma_crit", "beta_init", "beta_min", "rho", "r_resolution"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.beta_min > self.beta_init:
            raise ValueError("beta_min must not exceed beta_init")
        if self.c_fail < 1:
            raise ValueError("c_fail must be >= 1")
        if self.delta_gamma <= 0:
            raise ValueError("delta_gamma must be positive")
        if self.n_candidates_per_dim < 1:
            raise ValueError("n_candidates_per_dim must be >= 1")
        if self.n_candidates_per_dim * self.dim < self.n_par:
            raise ValueError(
                f"n_candidates_per_dim * dim = {self.n_candidates_per_dim * self.dim} "
                f"candidates cannot fill n_par = {self.n_par} slots"
            )


def default_config(d: int, n_par: int, **overrides) -> RunConfig:
    """Build a RunConfig for dimension ``d`` and batch size ``n_par``.

    Only two fields derive from them: m_doe = ceil(3/n_par)*n_par and
    c_fail = max(ceil(d/n_par), 2). Every other field takes its ``RunConfig``
    default. Any field can be overridden by keyword, a derived one too, and
    the config is validated once, as built.
    """
    if d < 1 or n_par < 1:
        raise ValueError("d and n_par must be positive")
    derived = dict(
        dim=d,
        n_par=n_par,
        m_doe=math.ceil(3 / n_par) * n_par,
        c_fail=max(math.ceil(d / n_par), 2),
    )
    return RunConfig(**{**derived, **overrides})


@dataclass(frozen=True)
class Objective:
    """A noisy black-box objective over a box domain.

    ``eval`` maps a point inside ``domain`` to a noisy response and must
    tolerate concurrent invocation for distinct points. Behavior outside the
    domain is unspecified and never exercised by the engine.
    """

    dimension: int
    domain: BoxDomain
    eval: Callable[[np.ndarray], float]

    def __post_init__(self):
        if self.dimension != self.domain.dim:
            raise ValueError("objective dimension does not match its domain")


# Names of the independent generator streams one master seed fans out into.
# A name's position is its spawn index, so the order is fixed across versions.
# "cv" is a reserved slot that nothing draws from; it stays so that "noise"
# keeps its spawn index and therefore its draws.
STREAM_NAMES = ("doe", "candidates", "zoomout", "cv", "noise")


def stream_seedseq(seed: int, name: str) -> np.random.SeedSequence:
    """The seed sequence behind one named stream: the child that
    ``SeedSequence(seed).spawn`` makes at the name's position in
    ``STREAM_NAMES``, built directly from that spawn key."""
    return np.random.SeedSequence(seed, spawn_key=(STREAM_NAMES.index(name),))


def derive_streams(seed: int) -> dict[str, np.random.Generator]:
    """Split one master seed into the named independent generator streams,
    one ``stream_seedseq`` each.

    Every source of randomness in a run (DOE designs, candidate draws,
    zoom-out coin flips, benchmark noise) pulls from one of these, so a run is
    bit-reproducible given the seed and a deterministic evaluator. The "cv"
    stream is derived but unused.
    """
    return {name: np.random.default_rng(stream_seedseq(seed, name)) for name in STREAM_NAMES}
