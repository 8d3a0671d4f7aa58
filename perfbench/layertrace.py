"""Outside-in tracing of prosrs' layers, with no edit to the package.

Each target is a public function or method of one package module (a layer).
``Tracer.install`` replaces the target wherever a caller looks it up: in every
``prosrs`` module whose globals hold the original function object, or on the
class for a method. The wrapper records a span on a stack, so a layer's self
time is its spans' time minus the time of the spans they called. A target
that no longer exists, because a refactor moved or renamed it, is reported as
absent and the rest of the trace still runs. ``uninstall`` restores every
original.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = (
    "engine", "surrogate", "srs", "_kernels", "zoomtree", "doe", "problem",
    "benchmarks", "cli",
)

# (module, qualified name) of every traced target.
TARGETS = (
    ("_kernels", "multiquadric_matrix"),
    ("_kernels", "min_dists"),
    ("_kernels", "update_min_dists"),
    ("surrogate", "fit_rbf"),
    ("surrogate", "predict_batch"),
    ("surrogate", "relative_l2_error"),
    ("srs", "select_batch"),
    ("srs", "generate_candidates"),
    ("srs", "best_fit_index"),
    ("srs", "weight_pattern"),
    ("zoomtree", "ZoomTree.__init__"),
    ("zoomtree", "ZoomTree.record_batch"),
    ("zoomtree", "ZoomTree.zoom_in"),
    ("zoomtree", "ZoomTree.maybe_zoom_out"),
    ("zoomtree", "effective_n"),
    ("zoomtree", "update_state"),
    ("zoomtree", "restart_condition"),
    ("doe", "latin_hypercube_maximin"),
    ("problem", "BoxDomain.to_unit"),
    ("problem", "BoxDomain.from_unit"),
    ("problem", "BoxDomain.sample_uniform"),
    ("problem", "EvalDataset.with_batch"),
    ("problem", "EvalDataset.restrict_to"),
    ("problem", "clip_to_domain"),
    ("problem", "derive_streams"),
    ("benchmarks", "NoisyBatchEvaluator.__call__"),
    ("cli", "model_error_trial"),
)

# Peak traced allocation is measured inside these when ``track_alloc`` is
# set; they never nest. tracemalloc triples select_batch's time, so a unit
# that tracks allocation is never timed.
ALLOC_TARGETS = ("srs.select_batch", "surrogate.relative_l2_error")


def _rows(a) -> int:
    return int(np.atleast_2d(a).shape[0])


# Work counted at a target, from its arguments and result: matrix cells,
# point pairs, predicted rows, candidate points.
WORK = {
    "_kernels.multiquadric_matrix": lambda args, out: int(np.size(out)),
    "_kernels.min_dists": lambda args, out: _rows(args[0]) * _rows(args[1]),
    "surrogate.predict_batch": lambda args, out: int(np.size(out)),
    "srs.generate_candidates": lambda args, out: len(out),
}


def targets(prosrs) -> list:
    """Every target, plus the landscape functions of the benchmark problems."""
    out = list(TARGETS)
    for name in prosrs.BENCHMARK_NAMES:
        out.append(("benchmarks", prosrs.make_benchmark(name).true_mean.__name__))
    return list(dict.fromkeys(out))


class Tracer:
    """Span stack, per-target self time, call and work counts."""

    def __init__(self):
        self._saved = []
        self._stack = []
        self.absent = []
        self.track_alloc = False
        self.reset()

    def reset(self):
        """Forget every span and count; installed wrappers stay in place."""
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.fit_sizes = []
        self.peak_alloc = defaultdict(int)
        self._stack.clear()

    def _wrap(self, key: str, fn):
        work = WORK.get(key)
        alloc = key in ALLOC_TARGETS
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            tracing_alloc = alloc and self.track_alloc and not tracemalloc.is_tracing()
            if tracing_alloc:
                tracemalloc.start()
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                if tracing_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc[key] = max(self.peak_alloc[key], peak)
                stack.pop()
                self.self_ns[key] += dt - frame[0]
                self.calls[key] += 1
                if stack:
                    stack[-1][0] += dt
            if work is not None:
                self.work[key] += work(args, out)
            if key == "surrogate.fit_rbf":
                self.fit_sizes.append(len(out.coefficients))
            return out

        return span

    def install(self, prosrs):
        """Wrap every target that exists; record the rest as absent."""
        self.absent = []
        modules = [m for n, m in sys.modules.items() if n == "prosrs" or n.startswith("prosrs.")]
        for layer, qualname in targets(prosrs):
            key = f"{layer}.{qualname}"
            try:
                module = importlib.import_module(f"prosrs.{layer}")
            except ImportError:
                self.absent.append(key)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(key)
                continue
            wrapped = self._wrap(key, original)
            if owner_name:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            # A function is patched in every module that imported it by name.
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def layer_self_ms(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, ns in self.self_ns.items():
            out[key.split(".", 1)[0]] += ns / 1e6
        return out

    def covered_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9
