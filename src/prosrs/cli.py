"""Command-line front end.

Subcommands:

* ``optimize``    — run the optimizer (or the random-search baseline) on a
                    benchmark or plug-in objective, one run per repeat, and
                    write per-run CSV logs, per-run JSON summaries, and an
                    aggregate mean/std curve. With wall times (``--timing
                    real``, the default) each summary also holds the run's
                    late/early cost ratio of its loop rows' algorithm times.
* ``bench-suite`` — ``optimize`` across a list of benchmarks (default: all),
                    with timing columns written as 0.0 unless ``--timing
                    real``, so outputs are byte-reproducible.
* ``model-error`` — the surrogate regression study: fit unweighted models on
                    Latin hypercube samples of varying size and report the
                    Monte-Carlo relative L2 error against the true mean.

``optimize`` and ``bench-suite`` take ``--jobs K`` (default 1): the (problem,
seed) repeats then run on K spawned worker processes, and this process writes
every file in the order and with the bytes that ``--jobs 1`` writes. Each run
holds OpenBLAS to one thread, so K workers use about K cores.

``SETTINGS`` (each setting's flag, type, default and help) and ``COMMANDS``
(the settings each command reads, and its own defaults) build the parser, the
config-file reader and ``ExperimentSpec``, the resolved settings of one
invocation. A JSON config file may give any setting a command reads, by name;
commands that build a RunConfig also take a nested "config" object of run
parameters (n_par, n_iterations, rho, s_init, ...). File values are
type-checked, never cast; an unread key is an error. Flags win over file
values, and the "config" object over a top-level key. Exit codes: 0 success,
2 configuration error, 3 evaluator failure (partial logs are flushed: the
runs before the failing one, and its own log up to the failure).
"""

from __future__ import annotations

import argparse
import csv
import importlib
import inspect
import json
import multiprocessing
import sys
import zlib
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from ._kernels import one_blas_thread
from .benchmarks import BENCHMARK_NAMES, BenchmarkProblem, benchmark_objective, make_benchmark
from .doe import latin_hypercube_maximin
from .engine import run_prosrs, run_random_search
from .problem import (
    EvalDataset,
    EvaluationError,
    ExploitState,
    Objective,
    RunConfig,
    default_config,
)
from .surrogate import fit_rbf, relative_l2_error

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVALUATOR = 3

RUN_CSV_COMMON = ("iteration", "event", "zoom_level", "best_y")
RUN_CSV_TAIL = ("algo_time_s", "eval_time_s")


# One CLI setting. ``type`` is int, str or list (of integers, comma-separated
# on the command line). ``minimum`` bounds an int, or each item of a list,
# which must then hold at least one.
Setting = namedtuple("Setting", "flag type default help choices minimum", defaults=(None, None))


SETTINGS = {
    "problem": Setting("--problem", str, None, "benchmark name or package.module:factory"),
    "algo": Setting("--algo", str, "prosrs", "optimizer", choices=("prosrs", "random")),
    "n_par": Setting("--n-par", int, 4, "points evaluated per iteration"),
    "n_iterations": Setting("--iterations", int, 50, "iteration budget N"),
    "repeats": Setting("--repeats", int, 1, "independent repeats", minimum=1),
    "jobs": Setting("--jobs", int, 1, "worker processes for the repeats (default 1: run "
                    "them in this process)", minimum=1),
    "seed": Setting("--seed", int, 0, "base seed; repeat r uses seed+r", minimum=0),
    "out": Setting("--out", str, "results", "output directory"),
    "timing": Setting("--timing", str, "real", "timing columns: wall times (real), or 0.0 "
                      "for byte-reproducible output (zero; bench-suite's default)",
                      choices=("real", "zero")),
    "n_values": Setting("--n-values", list, [10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
                        "comma-separated training sizes (a fit needs 2 points)", minimum=2),
    "n_mc": Setting("--n-mc", int, 100_000, "Monte-Carlo samples for the error", minimum=1),
}

_KINDS = {int: "an integer", str: "a string", list: "a list of integers"}


# Resolved settings for one CLI invocation: the run-parameter overrides of the
# config file's "config" block, then one field per SETTINGS entry.
ExperimentSpec = namedtuple("ExperimentSpec", ("config_overrides", *SETTINGS))


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def _problem_source(name: str):
    """What a ``--problem`` name stands for: a benchmark problem, or for
    ``package.module:attr`` the plug-in Objective or factory it imports.

    A factory is checked, not called: one whose signature does not take the
    seed is a ValueError, so a TypeError from inside a factory's body still
    propagates when it is called. An unknown benchmark, an import that fails
    and any other attribute are errors too.
    """
    if ":" not in name:
        return make_benchmark(name)
    mod_name, _, attr = name.partition(":")
    obj = getattr(importlib.import_module(mod_name), attr)
    if isinstance(obj, Objective):
        return obj
    if not callable(obj):
        raise ValueError(f"plug-in {name!r} is neither an Objective nor a factory")
    try:
        inspect.signature(obj).bind(0)  # the seed, an int
    except ValueError:  # no inspectable signature: call it as it is
        pass
    except TypeError as exc:
        raise ValueError(f"plug-in factory {name!r} cannot be called with the seed ({exc})")
    return obj


def _load_problem(name: str, seed: int):
    """The problem ``name`` stands for in the repeat with master seed ``seed``:
    a benchmark problem, a plug-in Objective as it is, or what a plug-in
    factory makes of the seed, which must be an Objective."""
    source = _problem_source(name)
    if isinstance(source, (BenchmarkProblem, Objective)):
        return source
    made = source(seed)
    if not isinstance(made, Objective):
        raise ValueError(f"plug-in {name!r} did not produce an Objective")
    return made


def cost_ratio(algo_times) -> float:
    """Median algorithm time of the last 50 rows over the median of rows 20-70;
    NaN below 70 rows, or for an early median of 0."""
    algo_times = np.asarray(algo_times, dtype=float)
    if algo_times.size < 70:
        return float("nan")
    late = algo_times[-50:]
    early = algo_times[19:70]
    early_med = float(np.median(early))
    if early_med == 0.0:
        return float("nan")
    return float(np.median(late)) / early_med


def _run_rows(logs, true_mean, real_timing: bool):
    """CSV rows for a run: one per logged batch, each read from its row's best
    pair. With a benchmark's ``true_mean``, the objective column is the true
    mean of the best point so far, from one call; otherwise it is the best
    noisy response."""
    ys = [log.best_y_so_far for log in logs]
    if true_mean is not None and logs:
        ys = true_mean(np.array([log.best_x_so_far for log in logs]))
    return [
        [
            log.iteration,
            log.event,
            log.zoom_level,
            float(log.best_y_so_far),
            float(objective_value),
            float(log.algo_time_s) if real_timing else 0.0,
            float(log.eval_time_s) if real_timing else 0.0,
        ]
        for log, objective_value in zip(logs, ys)
    ]


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def _aggregate_rows(per_run_rows):
    """Mean/std of the objective column per iteration (last row per iteration).
    Every run of one problem logs the same iterations."""
    curves = [{int(row[0]): float(row[4]) for row in rows} for rows in per_run_rows]
    out = []
    for it in sorted(curves[0]):
        vals = np.array([curve[it] for curve in curves])
        out.append([it, float(vals.mean()), float(vals.std())])
    return out


def _run_repeat(spec: ExperimentSpec, problem_name: str, seed: int):
    """Run one (problem, seed) repeat and return what its files hold.

    The run evaluates each batch through the problem's Objective alone: for a
    benchmark that is ``benchmark_objective(problem, seed)``, one
    ``true_mean`` call a batch, with noise from the seed's "noise" stream,
    and its objective column is the true mean of the best point so far; a
    plug-in is its own Objective, and its objective column is the best noisy
    response.

    With wall times (``spec.timing`` "real") the summary holds
    ``late_over_early_median_ratio``, the ``cost_ratio`` of the loop rows'
    (iteration >= 1) algorithm times, null where that is NaN.

    Returns ``(header, rows, summary, error)``. When the evaluator fails, the
    rows are the partial log, ``summary`` is None and ``error`` is the
    EvaluationError's message; otherwise ``error`` is None. A module-level
    function of plain results, so a worker process can run it.
    """
    problem = _load_problem(problem_name, seed)
    if isinstance(problem, BenchmarkProblem):
        objective = benchmark_objective(problem, seed)
        column, true_mean = "true_f_best", problem.true_mean
    else:
        objective, column, true_mean = problem, "noisy_y_best", None
    header = [*RUN_CSV_COMMON, column, *RUN_CSV_TAIL]
    real_timing = spec.timing == "real"
    config = default_config(
        objective.dimension, spec.n_par, n_iterations=spec.n_iterations, seed=seed,
        **spec.config_overrides,
    )
    runner = run_prosrs if spec.algo == "prosrs" else run_random_search
    try:
        result = runner(objective, config)
    except EvaluationError as exc:
        return header, _run_rows(exc.logs, true_mean, real_timing), None, str(exc)
    summary = {
        "problem": problem_name,
        "algo": spec.algo,
        "seed": seed,
        "x_best": [float(v) for v in np.atleast_1d(result.x_best)],
        "y_best": float(result.y_best),
        "n_evaluations": int(result.n_evaluations),
        "config": asdict(config),
    }
    if real_timing:
        ratio = cost_ratio([log.algo_time_s for log in result.logs if log.iteration >= 1])
        summary["late_over_early_median_ratio"] = ratio if np.isfinite(ratio) else None
    return header, _run_rows(result.logs, true_mean, real_timing), summary, None


@contextmanager
def _repeat_outputs(spec: ExperimentSpec, tasks):
    """The ``_run_repeat`` output of each (problem, seed) task, in task order.

    With one worker (``spec.jobs`` 1, or a single task) each task runs in
    this process when its output is taken. Otherwise the tasks run ahead on
    that many spawned worker processes; leaving the block cancels the ones
    not yet started.
    """
    names, seeds = zip(*tasks)
    workers = min(spec.jobs, len(tasks))
    if workers == 1:
        yield map(partial(_run_repeat, spec), names, seeds)
        return
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        yield pool.map(partial(_run_repeat, spec), names, seeds)
    finally:
        pool.shutdown(cancel_futures=True)


def _optimize_into(spec: ExperimentSpec, problems) -> list:
    """Run all repeats of each problem and write its per-run and aggregate files.

    ``problems`` lists (problem name, output directory) pairs. Returns the
    per-run row lists of each problem, in order (for suite summaries). Files
    are written in problem, then seed order, whatever ``spec.jobs`` is. On an
    evaluator failure the partial log of the failing run is written, nothing
    after it, and the failure is raised as an EvaluationError.
    """
    for name, _ in problems:
        _problem_source(name)  # every name is checked before the first run
    tasks = [(i, spec.seed + rep) for i in range(len(problems)) for rep in range(spec.repeats)]
    per_run_rows = [[] for _ in problems]
    with _repeat_outputs(spec, [(problems[i][0], seed) for i, seed in tasks]) as outputs:
        for (i, seed), (header, rows, summary, error) in zip(tasks, outputs):
            name, out_dir = problems[i]
            base = _run_stem(out_dir, name, spec, seed)
            _write_csv(base.with_suffix(".csv"), header, rows)
            if error is not None:
                raise EvaluationError(error)
            _write_json(base.with_suffix(".json"), summary)
            per_run_rows[i].append(rows)
            if len(per_run_rows[i]) == spec.repeats:
                _write_csv(
                    out_dir / f"{_slug(name)}_{spec.algo}_aggregate.csv",
                    ["iteration", "mean_objective", "std_objective"],
                    _aggregate_rows(per_run_rows[i]),
                )
    return per_run_rows


def _slug(name: str) -> str:
    return name.replace(":", "_").replace("/", "_").replace(".", "_")


def _run_stem(out_dir: Path, name: str, spec: ExperimentSpec, seed: int) -> Path:
    """A run's file path without its suffix: ``<slug>_<algo>_seed<seed>``."""
    return out_dir / f"{_slug(name)}_{spec.algo}_seed{seed}"


def _problem_names(spec: ExperimentSpec) -> list:
    """The comma-separated ``--problem`` list, or every benchmark."""
    return spec.problem.split(",") if spec.problem else list(BENCHMARK_NAMES)


def cmd_optimize(spec: ExperimentSpec) -> int:
    _optimize_into(spec, [(spec.problem, Path(spec.out))])
    return EXIT_OK


def cmd_bench_suite(spec: ExperimentSpec) -> int:
    names = _problem_names(spec)
    out_dir = Path(spec.out)
    per_problem = _optimize_into(spec, [(name, out_dir / _slug(name)) for name in names])
    summary_rows = []
    for name, per_run_rows in zip(names, per_problem):
        finals = np.array([rows[-1][4] for rows in per_run_rows])
        summary_rows.append(
            [name, spec.algo, spec.repeats, float(np.median(finals)),
             float(finals.mean()), float(finals.std())]
        )
    _write_csv(
        out_dir / "suite_summary.csv",
        ["problem", "algo", "repeats", "median_final", "mean_final", "std_final"],
        summary_rows,
    )
    return EXIT_OK


@one_blas_thread()
def model_error_trial(
    problem: BenchmarkProblem, n: int, base_seed: int, repeat: int, n_mc: int = 100_000
) -> float:
    """One cell of the regression study: sample, fit unweighted, score.

    Draws an n-point Latin hypercube design, evaluates it with the problem's
    noise, fits the GCV-penalized model with weighting disabled, and returns
    the Monte-Carlo relative L2 error against the true mean over ``n_mc``
    uniform points, scored in chunks of rows (see ``relative_l2_error``), so
    that memory grows by 16 bytes a point beyond one chunk. OpenBLAS runs on
    one thread until the call returns or raises, which makes the chunked
    error equal that of one pass over the whole sample bit for bit.
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
    rows = []
    # Every name is checked before the first trial.
    problems = [make_benchmark(name) for name in _problem_names(spec)]
    for problem in problems:
        for n in spec.n_values:
            errs = [
                model_error_trial(problem, n, spec.seed, rep, spec.n_mc)
                for rep in range(spec.repeats)
            ]
            errs = np.array(errs)
            rows.append([problem.name, n, float(errs.mean()), float(errs.std())])
    out_dir = Path(spec.out)
    _write_csv(
        out_dir / "model_error.csv",
        ["function", "n", "mean_rel_l2_error", "std_rel_l2_error"],
        rows,
    )
    return EXIT_OK


_RUN_SETTINGS = (
    "problem", "algo", "n_par", "n_iterations", "seed", "out", "repeats", "jobs", "timing",
)

# Each command: its handler, its help, the SETTINGS it reads, and its own
# defaults for them. bench-suite writes timing columns as 0.0, so identically
# seeded suites are byte-identical; model-error averages ten repeats.
COMMANDS = {
    "optimize": (cmd_optimize, "run an optimization experiment", _RUN_SETTINGS, {}),
    "bench-suite": (cmd_bench_suite, "optimize across benchmarks", _RUN_SETTINGS,
                    {"timing": "zero"}),
    "model-error": (cmd_model_error, "surrogate regression study",
                    ("problem", "repeats", "seed", "out", "n_values", "n_mc"), {"repeats": 10}),
}


def _int_list(text: str) -> list:
    """``--n-values 10,20,50`` as [10, 20, 50]; the empty string gives []."""
    return [int(v) for v in text.split(",")] if text else []


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prosrs", description="Parallel surrogate optimization toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names:
            setting = SETTINGS[name]
            p.add_argument(
                setting.flag, dest=name, choices=setting.choices, help=setting.help,
                default=argparse.SUPPRESS,
                type=_int_list if setting.type is list else setting.type,
            )
        p.add_argument("--config", help="JSON config file")
    return parser


def _checked(name: str, value):
    """``value`` for SETTINGS[name], from a flag or the config file; never cast."""
    setting = SETTINGS[name]
    label = f"{name} ({setting.flag})"
    items = value if type(value) is list else [value]
    item_type = int if setting.type is list else setting.type
    if type(value) is not setting.type or any(type(v) is not item_type for v in items):
        raise ValueError(f"{label} must be {_KINDS[setting.type]}, got {value!r}")
    if setting.choices and value not in setting.choices:
        raise ValueError(f"{label} must be one of {', '.join(setting.choices)}, got {value!r}")
    if setting.minimum is not None and (not items or min(items) < setting.minimum):
        what = "one or more integers, each" if setting.type is list else "an integer"
        raise ValueError(f"{label} must be {what} >= {setting.minimum}, got {value!r}")
    return value


def _spec_from_args(args) -> ExperimentSpec:
    """Resolve each setting the command reads, once: its flag, then the config
    file's "config" block (run parameters only), then the file's top-level
    key, then the default."""
    _, _, names, command_defaults = COMMANDS[args.command]
    file_values = {}
    if args.config:
        with open(args.config) as f:
            file_values = json.load(f)
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
    # A command that builds a RunConfig (it reads n_par) also takes the block
    # of further run parameters.
    unread = sorted(set(file_values) - set(names) - ({"config"} if "n_par" in names else set()))
    if unread:
        raise ValueError(f"{args.command} does not read config file keys: {', '.join(unread)}")

    overrides = file_values.get("config", {})
    if not isinstance(overrides, dict):
        raise ValueError("the config block must be a JSON object")
    unknown = sorted(set(overrides) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValueError(f"unknown run parameters in config: {', '.join(unknown)}")
    if "s_init" in overrides:
        s_init = overrides["s_init"]
        if not isinstance(s_init, dict) or set(s_init) != {"gamma", "p", "sigma"}:
            raise ValueError("config s_init must be an object with exactly gamma, p and sigma")
        overrides["s_init"] = ExploitState(**s_init)

    values = {name: setting.default for name, setting in SETTINGS.items()}
    values.update(command_defaults)
    # An absent flag sets no attribute, so a given value is a present key, and
    # a file's null is a given value.
    sources = (vars(args), overrides, file_values)
    for name in names:
        # Every given value is checked, a losing one too. A run parameter
        # leaves the block, so default_config does not get it twice.
        given = [_checked(name, source.pop(name)) for source in sources if name in source]
        if given:
            values[name] = given[0]
    if args.command == "optimize" and not values["problem"]:
        raise ValueError("--problem is required")
    return ExperimentSpec(config_overrides=overrides, **values)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command][0](spec)
    except EvaluationError as exc:
        print(f"error: evaluation failed: {exc}", file=sys.stderr)
        return EXIT_EVALUATOR
    except (ValueError, OSError, ImportError, AttributeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
