"""Benchmark of prosrs: end-to-end metrics per workload, or a traced run per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite10d --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py                 # every workload, one process each

The package is imported from ``src/`` of the checkout. One run repeats the
workload's unit (its fixed task list, made from ``--seed``) for ``--seconds``
seconds, at least twice, and checks every task's output, including that each
repetition reproduces the first. The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count tasks, and ``metrics``
holds the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). The lines before it record the environment and print every
metric by name with its unit. The exit code is 1 when a check failed and 2
when the checkout holds no ``src/prosrs``.

BLAS threading is left at the machine's default on purpose: pinning it is a
change to the program, and this benchmark has to be able to show its effect.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layertrace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = tuple(workloads.WHY)
SETUP_REPEATS = 5

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import prosrs
for name in sys.argv[1:]:
    prosrs.make_benchmark(name)
print(time.perf_counter() - t0, prosrs.__file__)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def import_prosrs():
    sys.path.insert(0, str(SRC))
    import prosrs

    if Path(prosrs.__file__).resolve().parent != SRC / "prosrs":
        raise ImportError(f"prosrs was imported from {prosrs.__file__}, not from {SRC}")
    return prosrs


def measure_setup(workload: str) -> list:
    """Seconds to import prosrs and build the workload's problems, each in a
    fresh interpreter, so the import is really paid every time."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *workloads.problem_names(workload)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
            check=True,
        ).stdout.split()
        if Path(out[1]).resolve().parent != SRC / "prosrs":
            raise ImportError(f"set-up imported prosrs from {out[1]}, not from {SRC}")
        times.append(float(out[0]))
    return times


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    paths = set()
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                if "openblas" in line.lower():
                    paths.add(line.split()[-1])
    except OSError:
        return {}
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def cpu_ticks():
    """Machine-wide (all, stolen) CPU ticks, or None where /proc/stat is missing.

    Stolen ticks are time the hypervisor ran something else on this VM's
    CPUs; every timing taken while they grow is inflated by them."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except OSError:
        return None
    return sum(fields[:8]), fields[7]


def environment() -> dict:
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": _blas_threads(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "numba": importlib.util.find_spec("numba") is not None,
    }


@dataclass
class Run:
    """Everything one run measured.

    ``traced[i]`` is the per-layer snapshot of ``units[i]``, or None for an
    untraced unit. ``untimed`` holds results that were checked but not
    timed; ``peak_alloc`` maps a target to its peak allocation in bytes."""

    units: list
    traced: list
    untimed: list
    steal_frac: float | None
    peak_alloc: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)


def run_units(prosrs, tasks, seconds: float, trace: bool) -> Run:
    """Repeat the unit until ``seconds`` would be overrun, at least twice.

    The unit's first task runs once before them to warm up: the first call
    in a process runs up to twice as slow as later ones. Untraced, every unit
    is measured. Traced, untraced and traced units alternate, so the traced
    run can report its own overhead, and one more traced unit then measures
    peak allocations. The warm-up and that unit are checked but not timed.
    """
    tracer = layertrace.Tracer()
    t_begin = time.perf_counter()
    untimed = [workloads.run_task(prosrs, tasks[0])]
    units, traced = [], []
    ticks0 = cpu_ticks()
    while True:
        traced_unit = trace and len(units) % 2 == 1
        tracer.reset()
        if traced_unit:
            tracer.install(prosrs)
        t0 = time.perf_counter()
        try:
            results = workloads.run_unit(prosrs, tasks)
        finally:
            tracer.uninstall()
        units.append(results)
        traced.append(snapshot(tracer, results) if traced_unit else None)
        last = time.perf_counter() - t0
        if len(units) >= 2 and time.perf_counter() - t_begin + last > seconds:
            break
    ticks1 = cpu_ticks()
    steal = None
    if ticks0 and ticks1 and ticks1[0] > ticks0[0]:
        steal = (ticks1[1] - ticks0[1]) / (ticks1[0] - ticks0[0])
    if not trace:
        return Run(units, traced, untimed, steal)
    tracer.reset()
    tracer.track_alloc = True
    tracer.install(prosrs)
    try:
        untimed.extend(workloads.run_unit(prosrs, tasks))
    finally:
        tracer.uninstall()
    return Run(units, traced, untimed, steal, dict(tracer.peak_alloc), tracer.absent)


def snapshot(tracer, results) -> dict:
    """Per-layer figures of one traced unit."""
    work_s = sum(r.call_s for r in results)
    layer_ms = tracer.layer_self_ms()
    sizes = tracer.fit_sizes
    events = {}
    for r in results:
        for k, v in r.events.items():
            events[k] = events.get(k, 0) + v
    loop_batches = sum(r.loop_batches for r in results)

    def ms(key):
        return tracer.self_ns.get(key, 0) / 1e6

    return {
        "kernels.multiquadric_matrix.cells": tracer.work["_kernels.multiquadric_matrix"],
        "kernels.multiquadric_matrix.self_ms": ms("_kernels.multiquadric_matrix"),
        "kernels.min_dists.pairs": tracer.work["_kernels.min_dists"],
        "kernels.min_dists.self_ms": ms("_kernels.min_dists"),
        "kernels.update_min_dists.calls": tracer.calls["_kernels.update_min_dists"],
        "kernels.update_min_dists.self_ms": ms("_kernels.update_min_dists"),
        "surrogate.predict_batch.rows": tracer.work["surrogate.predict_batch"],
        "surrogate.predict_batch.self_ms": ms("surrogate.predict_batch"),
        "surrogate.fit_rbf.calls": tracer.calls["surrogate.fit_rbf"],
        "surrogate.fit_rbf.self_ms": ms("surrogate.fit_rbf"),
        "surrogate.fit_rbf.n.p50": float(np.median(sizes)) if sizes else 0.0,
        "surrogate.fit_rbf.n.max": max(sizes, default=0),
        "surrogate.relative_l2_error.self_ms": ms("surrogate.relative_l2_error"),
        "srs.select_batch.calls": tracer.calls["srs.select_batch"],
        "srs.select_batch.self_ms": ms("srs.select_batch"),
        "srs.generate_candidates.points": tracer.work["srs.generate_candidates"],
        "srs.generate_candidates.self_ms": ms("srs.generate_candidates"),
        "doe.latin_hypercube_maximin.calls": tracer.calls["doe.latin_hypercube_maximin"],
        "doe.latin_hypercube_maximin.self_ms": ms("doe.latin_hypercube_maximin"),
        "engine.events.zoom_in": events.get("zoom_in", 0),
        "engine.events.zoom_out": events.get("zoom_out", 0),
        "engine.events.restart": events.get("restart", 0),
        "engine.eval_barrier_ms": 1e3 * sum(r.barrier_s for r in results),
        # Time inside the package calls that no span covers.
        "engine.self_ms": 1e3 * (work_s - tracer.covered_s()),
        "engine.improving_batch_frac": (
            sum(r.improving_batches for r in results) / loop_batches if loop_batches else 0.0
        ),
        **{
            f"{layer.lstrip('_')}.self_ms": layer_ms[layer]
            for layer in layertrace.LAYERS
            if layer != "engine"
        },
        "trace.coverage_frac": tracer.covered_s() / work_s if work_s else 0.0,
        "trace.absent_targets": len(tracer.absent),
    }


def percentile_with_tail(values, q: float):
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    value = float(np.percentile(values, q))
    beyond = sum(v > value for v in values)
    return (value, beyond) if beyond >= 10 else (None, beyond)


def check_run(workload: str, run: Run):
    """Failed-task flags of every task run, with the reasons.

    A task fails when it raised, failed an output check, or did not
    reproduce the digest of its run in unit 0.
    """
    reference = {r.label: r.digest for r in run.units[0]}
    flags, reasons = [], []
    for r in [r for u in run.units for r in u] + run.untimed:
        bad = list(r.problems)
        if not workloads.same_digest(workload, reference[r.label], r.digest):
            bad.append(f"{r.label}: a repeated run does not reproduce the first")
        flags.append(bool(bad))
        reasons.extend(bad)
    return flags, reasons


def report(name: str, value, unit: str, note: str = ""):
    print(f"  {name:<40} {value!r:>24} {unit:<6} {note}".rstrip())


def unit_median(units, attr: str) -> float:
    """Sum over the unit's tasks of each task's median across units.

    Contention on a shared machine comes in bursts shorter than a unit; a
    per-task median drops the tasks a burst hit, where a median of unit sums
    would not."""
    return sum(
        statistics.median(getattr(u[j], attr) for u in units) for j in range(len(units[0]))
    )


def end_to_end(workload, units, setup_times) -> dict:
    wall = unit_median(units, "call_s")
    steps_ms = [1e3 * s for u in units for r in u for s in r.steps_s]
    steps_per_unit = sum(len(r.steps_s) for r in units[0])
    p95, beyond = percentile_with_tail(steps_ms, 95)
    note = f"sum of per-task medians over {len(units)} units"
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} fresh imports"),
        "wall_s": (wall, "s", note),
        "cpu_s": (unit_median(units, "call_cpu_s"), "s", note),
        "steps_per_s": (steps_per_unit / wall, "1/s", f"{steps_per_unit} steps per unit / wall_s"),
        "step_ms.p50": (float(np.median(steps_ms)), "ms", f"{len(steps_ms)} steps"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss",
        ),
    }
    for name, (value, unit, note) in metrics.items():
        report(name, value, unit, note)
    if p95 is None:
        print(f"  step_ms.p95 omitted: {len(steps_ms)} steps, only {beyond} beyond the 95th percentile")
    else:
        report("step_ms.p95", p95, "ms", f"{len(steps_ms)} steps, {beyond} beyond")
    quality = [r.quality for r in units[0]]
    if workload == "model-error":
        report("rel_l2.mean", float(np.mean(quality)), "1", f"over {len(quality)} trials")
    else:
        report("regret.median", float(np.median(quality)), "1", f"over {len(quality)} runs")
    return {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()}


PER_LAYER_UNITS = {
    "cells": "count", "pairs": "count", "calls": "count", "rows": "count",
    "points": "count", "p50": "count", "max": "count", "self_ms": "ms",
    "peak_alloc_mb": "MB", "eval_barrier_ms": "ms", "zoom_in": "count",
    "zoom_out": "count", "restart": "count", "improving_batch_frac": "frac",
    "overhead_frac": "frac", "coverage_frac": "frac", "absent_targets": "count",
}


def per_layer(run: Run) -> dict:
    plain = [u for u, t in zip(run.units, run.traced) if t is None]
    with_spans = [u for u, t in zip(run.units, run.traced) if t is not None]
    snaps = [t for t in run.traced if t is not None]
    metrics = {key: float(statistics.median(s[key] for s in snaps)) for key in snaps[0]}
    for key in layertrace.ALLOC_TARGETS:
        metrics[f"{key}.peak_alloc_mb"] = run.peak_alloc.get(key, 0) / 2**20
    metrics["trace.overhead_frac"] = (
        unit_median(with_spans, "call_s") / unit_median(plain, "call_s") - 1.0
    )
    for name in run.absent:
        print(f"  absent target: {name}")
    out = {}
    for key, value in metrics.items():
        unit = PER_LAYER_UNITS[key.rsplit(".", 1)[-1]]
        report(key, value, unit)
        out[key] = {"value": value, "unit": unit}
    print(f"  ({len(snaps)} traced and {len(plain)} untraced units)")
    return out


def run_workload(args) -> int:
    prosrs = import_prosrs()
    print("env " + json.dumps(environment(), sort_keys=True))
    setup_times = [] if args.trace else measure_setup(args.workload)
    tasks = workloads.plan(args.workload, args.seed)
    run = run_units(prosrs, tasks, args.seconds, bool(args.trace))
    flags, reasons = check_run(args.workload, run)
    attempted, failed = len(flags), sum(flags)
    print(
        f"{args.workload} seed {args.seed}: {len(run.units)} units of {len(tasks)} tasks, "
        f"{attempted} attempted, {failed} failed"
    )
    for reason in reasons:
        print(f"  check failed: {reason}")
    walls = [round(sum(r.call_s for r in u), 3) for u in run.units]
    kind = " (odd units traced)" if args.trace else ""
    print(f"  wall_s of each unit{kind}: {walls}, after a {run.untimed[0].call_s:.3f} s warm-up task")
    if run.steal_frac is not None:
        print(f"  CPU time stolen by the hypervisor during the units: {100 * run.steal_frac:.1f}%")
    metrics = per_layer(run) if args.trace else end_to_end(args.workload, run.units, setup_times)
    report("failed.frac", failed / attempted, "frac", f"{failed}/{attempted}")
    correct = failed == 0
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process: ru_maxrss never falls within one."""
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        )
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prosrs" / "__init__.py").is_file():
        print(f"error: no prosrs package under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
