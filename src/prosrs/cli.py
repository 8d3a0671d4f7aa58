"""Command-line front end.

Subcommands:

* ``optimize``     — run the optimizer (or the random-search baseline) on a
                     benchmark or plug-in objective, one run per repeat, and
                     write per-run CSV logs, per-run JSON summaries, and an
                     aggregate mean/std curve.
* ``bench-suite``  — ``optimize`` across a list of benchmarks (default: all),
                     with timing columns written as 0.0 so outputs are
                     byte-reproducible.
* ``model-error``  — the surrogate regression study: fit unweighted models on
                     Latin hypercube samples of varying size and report the
                     Monte-Carlo relative L2 error against the true mean.
* ``cost-profile`` — an ``optimize`` run with per-iteration timing rows and a
                     late/early cost-ratio summary.

A JSON config file may supply any flag (keys: problem, algo, repeats, seed,
out, and a nested "config" object with run-parameter overrides such as n_par,
n_iterations, or s_init). Command-line flags win over file values. Exit codes:
0 success, 2 configuration error, 3 evaluator failure (partial logs are
flushed).
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import sys
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .benchmarks import (
    BENCHMARK_NAMES,
    BenchmarkProblem,
    NoisyBatchEvaluator,
    benchmark_objective,
    make_benchmark,
)
from .doe import latin_hypercube_maximin
from .engine import best_trajectory, run_prosrs, run_random_search, serial_evaluator
from .problem import (
    EvalDataset,
    EvaluationError,
    ExploitState,
    Objective,
    RunConfig,
    default_config,
    stream_seedseq,
)
from .surrogate import fit_rbf, relative_l2_error

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVALUATOR = 3

RUN_CSV_COMMON = ("iteration", "event", "zoom_level", "best_y")
RUN_CSV_TAIL = ("algo_time_s", "eval_time_s")


@dataclass
class ExperimentSpec:
    """Resolved settings for one CLI invocation."""

    command: str
    problem: str
    algo: str = "prosrs"
    n_par: int = 4
    n_iterations: int = 50
    n_repeats: int = 1
    seed: int = 0
    out: str = "results"
    config_overrides: dict = field(default_factory=dict)
    real_timing: bool = True
    n_values: tuple = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
    n_mc: int = 100_000


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def _load_problem(name: str, seed: int):
    """A benchmark name, or ``package.module:factory`` for plug-ins.

    The factory is called with the repeat's master seed and must return an
    Objective; an Objective instance is used as-is.
    """
    if ":" in name:
        mod_name, _, attr = name.partition(":")
        obj = getattr(importlib.import_module(mod_name), attr)
        if isinstance(obj, Objective):
            return obj
        made = obj(seed)
        if not isinstance(made, Objective):
            raise ValueError(f"plug-in {name!r} did not produce an Objective")
        return made
    return make_benchmark(name)


def _run_once(problem, spec: ExperimentSpec, seed: int):
    """Run one repeat of the experiment and return its RunResult."""
    if isinstance(problem, BenchmarkProblem):
        objective = benchmark_objective(problem, seed)
        evaluator = NoisyBatchEvaluator(problem, stream_seedseq(seed, "noise"))
    else:
        objective = problem
        evaluator = serial_evaluator(objective)
    config = default_config(
        objective.dimension,
        spec.n_par,
        n_iterations=spec.n_iterations,
        seed=seed,
        **spec.config_overrides,
    )
    runner = run_prosrs if spec.algo == "prosrs" else run_random_search
    return runner(objective, config, evaluator)


def _objective_column(problem) -> str:
    return "true_f_best" if isinstance(problem, BenchmarkProblem) else "noisy_y_best"


def _run_rows(logs, problem, real_timing: bool):
    """CSV rows for a run: one per logged batch."""
    xs, ys = best_trajectory(logs)
    rows = []
    for log, x_best, y_best in zip(logs, xs, ys):
        if isinstance(problem, BenchmarkProblem):
            objective_value = float(problem.true_mean(x_best))
        else:
            objective_value = float(y_best)
        rows.append(
            [
                log.iteration,
                log.event,
                log.zoom_level,
                float(log.best_y_so_far),
                objective_value,
                float(log.algo_time_s) if real_timing else 0.0,
                float(log.eval_time_s) if real_timing else 0.0,
            ]
        )
    return rows


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_summary(path: Path, result, spec: ExperimentSpec, seed: int, problem_name: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    summary = {
        "problem": problem_name,
        "algo": spec.algo,
        "seed": seed,
        "x_best": [float(v) for v in np.atleast_1d(result.x_best)],
        "y_best": float(result.y_best),
        "n_evaluations": int(result.n_evaluations),
        "config": asdict(result.config_echo),
    }
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")


def _aggregate_rows(per_run_rows):
    """Mean/std of the objective column per iteration (last row per iteration)."""
    per_run_curves = []
    iterations = None
    for rows in per_run_rows:
        curve = {}
        for row in rows:
            curve[int(row[0])] = float(row[4])
        per_run_curves.append(curve)
        its = sorted(curve)
        iterations = its if iterations is None else sorted(set(iterations) & set(its))
    out = []
    for it in iterations or []:
        vals = np.array([curve[it] for curve in per_run_curves])
        out.append([it, float(vals.mean()), float(vals.std())])
    return out


def _optimize_into(spec: ExperimentSpec, out_dir: Path, problem_name: str):
    """Run all repeats of one problem, write per-run and aggregate files.

    Returns the per-run row lists (for suite summaries). On evaluator failure
    the partial log of the failing run is still written before re-raising.
    """
    per_run_rows = []
    for rep in range(spec.n_repeats):
        seed = spec.seed + rep
        problem = _load_problem(problem_name, seed)
        full_header = [*RUN_CSV_COMMON, _objective_column(problem), *RUN_CSV_TAIL]
        base = out_dir / f"{_slug(problem_name)}_{spec.algo}_seed{seed}"
        try:
            result = _run_once(problem, spec, seed)
        except EvaluationError as exc:
            rows = _run_rows(exc.logs, problem, spec.real_timing)
            _write_csv(base.with_suffix(".csv"), full_header, rows)
            raise
        rows = _run_rows(result.logs, problem, spec.real_timing)
        _write_csv(base.with_suffix(".csv"), full_header, rows)
        _write_summary(base.with_suffix(".json"), result, spec, seed, problem_name)
        per_run_rows.append(rows)
    agg = _aggregate_rows(per_run_rows)
    _write_csv(
        out_dir / f"{_slug(problem_name)}_{spec.algo}_aggregate.csv",
        ["iteration", "mean_objective", "std_objective"],
        agg,
    )
    return per_run_rows


def _slug(name: str) -> str:
    return name.replace(":", "_").replace("/", "_").replace(".", "_")


def cmd_optimize(spec: ExperimentSpec) -> int:
    out_dir = Path(spec.out)
    _optimize_into(spec, out_dir, spec.problem)
    return EXIT_OK


def cmd_bench_suite(spec: ExperimentSpec) -> int:
    names = spec.problem.split(",") if spec.problem else list(BENCHMARK_NAMES)
    out_dir = Path(spec.out)
    summary_rows = []
    for name in names:
        per_run_rows = _optimize_into(spec, out_dir / _slug(name), name)
        finals = np.array([rows[-1][4] for rows in per_run_rows])
        summary_rows.append(
            [name, spec.algo, spec.n_repeats, float(np.median(finals)),
             float(finals.mean()), float(finals.std())]
        )
    _write_csv(
        out_dir / "suite_summary.csv",
        ["problem", "algo", "repeats", "median_final", "mean_final", "std_final"],
        summary_rows,
    )
    return EXIT_OK


def model_error_trial(
    problem: BenchmarkProblem, n: int, base_seed: int, repeat: int, n_mc: int = 100_000
) -> float:
    """One cell of the regression study: sample, fit unweighted, score.

    Draws an n-point Latin hypercube design, evaluates it with the problem's
    noise, fits the GCV-penalized model with weighting disabled, and returns
    the Monte-Carlo relative L2 error against the true mean.
    """
    name_key = zlib.crc32(problem.name.encode())
    seq = np.random.SeedSequence([base_seed, name_key, n, repeat])
    design_seq, noise_seq, mc_seq = seq.spawn(3)
    design_rng = np.random.default_rng(design_seq)
    X = latin_hypercube_maximin(n, problem.domain, design_rng, n_restarts=1)
    noise_rng = np.random.default_rng(noise_seq)
    y = np.asarray(problem.true_mean(X)) + problem.noise_std * noise_rng.standard_normal(n)
    model = fit_rbf(EvalDataset(X, y), problem.domain, gamma=0.0)
    return relative_l2_error(
        model, problem.true_mean, problem.domain, n_mc, np.random.default_rng(mc_seq)
    )


def cmd_model_error(spec: ExperimentSpec) -> int:
    names = spec.problem.split(",") if spec.problem else list(BENCHMARK_NAMES)
    rows = []
    for name in names:
        problem = make_benchmark(name)
        for n in spec.n_values:
            errs = [
                model_error_trial(problem, n, spec.seed, rep, spec.n_mc)
                for rep in range(spec.n_repeats)
            ]
            errs = np.array(errs)
            rows.append([name, n, float(errs.mean()), float(errs.std())])
    out_dir = Path(spec.out)
    _write_csv(
        out_dir / "model_error.csv",
        ["function", "n", "mean_rel_l2_error", "std_rel_l2_error"],
        rows,
    )
    return EXIT_OK


def cost_ratio(algo_times) -> float:
    """Median algorithm time of the last 50 rows over the median of rows 20-70."""
    algo_times = np.asarray(algo_times, dtype=float)
    late = algo_times[-50:]
    early = algo_times[19:70]
    early_med = float(np.median(early))
    if early_med == 0.0:
        return float("nan")
    return float(np.median(late)) / early_med


def cmd_cost_profile(spec: ExperimentSpec) -> int:
    problem = _load_problem(spec.problem, spec.seed)
    result = _run_once(problem, spec, spec.seed)
    loop_logs = [log for log in result.logs if log.iteration >= 1]
    rows = [
        [log.iteration, log.event, float(log.algo_time_s), float(log.eval_time_s)]
        for log in loop_logs
    ]
    out_dir = Path(spec.out)
    base = out_dir / f"{_slug(spec.problem)}_{spec.algo}_seed{spec.seed}"
    _write_csv(
        Path(str(base) + "_timing.csv"),
        ["iteration", "event", "algo_time_s", "eval_time_s"],
        rows,
    )
    algo_times = [r[2] for r in rows]
    summary = {
        "problem": spec.problem,
        "algo": spec.algo,
        "seed": spec.seed,
        "n_rows": len(rows),
        "late_over_early_median_ratio": cost_ratio(algo_times) if len(rows) >= 70 else None,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(str(base) + "_cost_summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prosrs", description="Parallel surrogate optimization toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--problem", help="benchmark name or package.module:factory")
        p.add_argument("--n-par", type=int, help="points evaluated per iteration")
        p.add_argument("--iterations", type=int, help="iteration budget N")
        p.add_argument("--repeats", type=int, help="independent repeats")
        p.add_argument("--seed", type=int, help="base seed; repeat r uses seed+r")
        p.add_argument("--algo", choices=("prosrs", "random"), help="optimizer")
        p.add_argument("--out", help="output directory")
        p.add_argument("--config", help="JSON config file")

    p_opt = sub.add_parser("optimize", help="run an optimization experiment")
    add_common(p_opt)
    p_opt.add_argument(
        "--deterministic-timing",
        action="store_true",
        help="write timing columns as 0.0 for byte-reproducible output",
    )

    p_suite = sub.add_parser("bench-suite", help="optimize across benchmarks")
    add_common(p_suite)
    p_suite.add_argument(
        "--real-timing",
        action="store_true",
        help="write wall times instead of the default deterministic 0.0",
    )

    p_err = sub.add_parser("model-error", help="surrogate regression study")
    add_common(p_err)
    p_err.add_argument("--n-values", help="comma-separated training sizes")
    p_err.add_argument("--n-mc", type=int, help="Monte-Carlo samples for the error")

    p_cost = sub.add_parser("cost-profile", help="per-iteration timing profile")
    add_common(p_cost)
    return parser


def _spec_from_args(args) -> ExperimentSpec:
    file_values = {}
    if args.config:
        with open(args.config) as f:
            file_values = json.load(f)
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")

    def pick(flag, key, default):
        v = getattr(args, flag, None)
        if v is not None:
            return v
        return file_values.get(key, default)

    overrides = dict(file_values.get("config", {}))
    unknown = sorted(set(overrides) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValueError(f"unknown run parameters in config: {', '.join(unknown)}")
    if "s_init" in overrides:
        s_init = overrides["s_init"]
        if not isinstance(s_init, dict) or set(s_init) != {"gamma", "p", "sigma"}:
            raise ValueError("config s_init must be an object with exactly gamma, p and sigma")
        overrides["s_init"] = ExploitState(**s_init)

    def pick_run_field(flag, key, default):
        # Run parameters may come from a flag or the file's config block;
        # flags win, and resolved values must not reach default_config twice.
        v = getattr(args, flag, None)
        if v is not None:
            overrides.pop(key, None)
            return v
        if key in overrides:
            return overrides.pop(key)
        return file_values.get(key, default)

    default_repeats = {"model-error": 10}.get(args.command, 1)
    spec = ExperimentSpec(
        command=args.command,
        problem=pick("problem", "problem", None),
        algo=pick("algo", "algo", "prosrs"),
        n_par=int(pick_run_field("n_par", "n_par", 4)),
        n_iterations=int(pick_run_field("iterations", "n_iterations", 50)),
        n_repeats=int(pick("repeats", "repeats", default_repeats)),
        seed=int(pick_run_field("seed", "seed", 0)),
        out=pick("out", "out", "results"),
        config_overrides=overrides,
    )
    if spec.command in ("optimize", "cost-profile") and not spec.problem:
        raise ValueError("--problem is required")
    if spec.n_repeats < 1:
        raise ValueError("repeats must be >= 1")
    if spec.algo not in ("prosrs", "random"):
        raise ValueError("algo must be 'prosrs' or 'random'")

    if spec.command == "optimize" and getattr(args, "deterministic_timing", False):
        spec.real_timing = False
    if spec.command == "bench-suite":
        spec.real_timing = bool(getattr(args, "real_timing", False))
    if spec.command == "model-error":
        n_values = pick("n_values", "n_values", None)
        if isinstance(n_values, str):
            spec.n_values = tuple(int(v) for v in n_values.split(","))
        elif n_values is not None:
            spec.n_values = tuple(int(v) for v in n_values)
        n_mc = pick("n_mc", "n_mc", None)
        if n_mc is not None:
            spec.n_mc = int(n_mc)
    return spec


_DISPATCH = {
    "optimize": cmd_optimize,
    "bench-suite": cmd_bench_suite,
    "model-error": cmd_model_error,
    "cost-profile": cmd_cost_profile,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _DISPATCH[spec.command](spec)
    except EvaluationError as exc:
        print(f"error: evaluation failed: {exc}", file=sys.stderr)
        return EXIT_EVALUATOR
    except (ValueError, OSError, ImportError, AttributeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
