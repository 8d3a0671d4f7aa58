"""Parallel surrogate optimization toolkit.

Minimizes expensive noisy black-box functions over box domains using weighted
multiquadric surrogates, stochastic-response-surface batch proposals, and a
tree of progressively zoomed domains, plus a noisy benchmark suite and a CLI
for running experiments.
"""

from . import _kernels
from .benchmarks import (
    BENCHMARK_NAMES,
    BenchmarkProblem,
    NoisyBatchEvaluator,
    benchmark_objective,
    make_benchmark,
)
from .doe import latin_hypercube_maximin
from .engine import (
    IterationLog,
    RunResult,
    run_prosrs,
    run_random_search,
)
from .problem import (
    BoxDomain,
    EvalDataset,
    EvaluationError,
    ExploitState,
    Objective,
    RunConfig,
    clip_to_domain,
    default_config,
    derive_streams,
)
from .srs import (
    generate_candidates,
    select_batch,
    weight_pattern,
)
from .surrogate import (
    RbfSurrogate,
    fit_rbf,
    predict_batch,
    relative_l2_error,
)
from .zoomtree import ZoomNode, ZoomTree

__version__ = "0.1.0"

__all__ = [
    "BENCHMARK_NAMES",
    "BenchmarkProblem",
    "BoxDomain",
    "EvalDataset",
    "EvaluationError",
    "ExploitState",
    "IterationLog",
    "NoisyBatchEvaluator",
    "Objective",
    "RbfSurrogate",
    "RunConfig",
    "RunResult",
    "ZoomNode",
    "ZoomTree",
    "benchmark_objective",
    "clip_to_domain",
    "default_config",
    "derive_streams",
    "fit_rbf",
    "generate_candidates",
    "latin_hypercube_maximin",
    "make_benchmark",
    "predict_batch",
    "relative_l2_error",
    "run_prosrs",
    "run_random_search",
    "select_batch",
    "weight_pattern",
]
