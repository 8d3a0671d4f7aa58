"""Behaviour lock: seeded runs must reproduce a committed fingerprint exactly.

``tests/golden/fingerprint.json`` records, for a few short seeded runs and
one shorter run per benchmark problem, the event, node-id and zoom-level
sequences, the ridge parameter lambda of every surrogate fit and the exact
``repr`` of every proposed point and response; a
digest of the first design of every problem at several batch sizes over ten
seeds; and the relative L2 error of three model-error trials.
``tests/golden/cli_tree.json`` records the SHA-256 of every file that a short
``bench-suite`` over all twelve problems and a small ``model-error`` study
write: CSV formatting, the per-run summaries, the aggregates and the suite
summary, which the fingerprint does not hold. A refactor that claims to keep
behaviour must keep both files byte-identical; a change that alters the
numbers on purpose rewrites both with

    PYTHONPATH=src python tests/test_golden.py

and says why in its change notes.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

import prosrs
from prosrs import cli, engine
from prosrs.benchmarks import BENCHMARK_NAMES
from prosrs.problem import default_config, derive_streams

GOLDEN = Path(__file__).parent / "golden" / "fingerprint.json"
CLI_TREE = Path(__file__).parent / "golden" / "cli_tree.json"

ITERATIONS = 15
SEEDS = (0, 1)
# (problem, n_par, config overrides). Ackley10 scores a 10 000-point pool;
# Rastrigin2 runs n_par = 1; SixHumpCamel2 has an anisotropic domain; the
# Dropwave2 overrides make it restart within the budget; the GoldsteinPrice2
# overrides make it zoom in and out; the Schaffer2 overrides make it zoom in,
# zoom out and then restart, on both seeds; at n_par 3 with c_fail 1,
# GoldsteinPrice2 zooms into children clipped at the root's wall and proposes
# there on both seeds, so candidate spread is measured in the unit coordinates
# of a non-cubic child.
RUNS = (
    ("Ackley10", 4, {}),
    ("Rastrigin2", 1, {}),
    ("SixHumpCamel2", 4, {}),
    ("Dropwave2", 2, {"c_fail": 1, "r_resolution": 0.2}),
    ("GoldsteinPrice2", 2, {"c_fail": 1, "r_resolution": 0.1, "beta_init": 0.5, "beta_min": 0.25}),
    ("GoldsteinPrice2", 3, {"c_fail": 1}),
    ("Schaffer2", 2, {"c_fail": 1, "r_resolution": 0.1, "beta_init": 0.5, "beta_min": 0.25}),
)
# (problem, n, seed, repeat, n_mc) of cli.model_error_trial. 5000 Monte-Carlo
# points span several prediction blocks; 66 472 span eight of
# relative_l2_error's 8192-row chunks and a 936-row remainder.
TRIALS = (
    ("Ackley10", 50, 0, 0, 5000),
    ("Hartmann6", 100, 0, 1, 5000),
    ("Hartmann6", 400, 0, 0, 66_472),
)
# The first design of a run, latin_hypercube_maximin(m_doe, domain,
# derive_streams(seed)["doe"]), of every problem at each of these n_par (m_doe
# 3, 4, 4 and 12) over these seeds, digested per (problem, n_par): a maximin
# tie broken another way changes the digest.
DESIGN_N_PARS = (1, 2, 4, 12)
DESIGN_SEEDS = range(10)
# (n_par, iterations, seed) of one short run per problem, so that candidate
# scoring runs on every domain shape.
SHORT_RUN = (4, 5, 9)
# The CLI invocations whose output trees cli_tree.json locks, each writing
# into its own subdirectory: 37 files from the suite and one from model-error.
CLI_RUNS = {
    "bench-suite": ("bench-suite", "--iterations", "10", "--repeats", "1", "--timing", "zero"),
    "model-error": (
        "model-error", "--problem", "Rastrigin2,Hartmann6", "--n-values", "10,50",
        "--repeats", "2", "--n-mc", "2000",
    ),
}


def _reprs(a) -> str:
    return " ".join(repr(float(v)) for v in np.ravel(a))


def run_fingerprint(
    name: str, n_par: int, seed: int, overrides: dict, iterations: int = ITERATIONS
) -> dict:
    problem = prosrs.make_benchmark(name)
    objective = prosrs.benchmark_objective(problem, seed)
    config = prosrs.default_config(
        objective.dimension, n_par, n_iterations=iterations, seed=seed, **overrides
    )
    lams = []

    def recording_fit(*args, **kwargs):
        model = fit_rbf(*args, **kwargs)
        lams.append(float(model.lam))
        return model

    fit_rbf = engine.fit_rbf
    engine.fit_rbf = recording_fit
    try:
        logs = prosrs.run_prosrs(objective, config).logs
    finally:
        engine.fit_rbf = fit_rbf
    return {
        "events": [log.event for log in logs],
        "node_ids": [log.node_id for log in logs],
        "zoom_levels": [log.zoom_level for log in logs],
        "proposed_x": [_reprs(log.proposed_x) for log in logs],
        "proposed_y": [_reprs(log.proposed_y) for log in logs],
        "lams": lams,
    }


def design_digest(name: str, n_par: int) -> str:
    problem = prosrs.make_benchmark(name)
    m = default_config(problem.dimension, n_par).m_doe
    digest = hashlib.sha256()
    for seed in DESIGN_SEEDS:
        design = prosrs.latin_hypercube_maximin(m, problem.domain, derive_streams(seed)["doe"])
        digest.update((_reprs(design) + "\n").encode())
    return digest.hexdigest()


def fingerprint() -> dict:
    runs = {}
    for name, n_par, overrides in RUNS:
        for seed in SEEDS:
            runs[f"{name}/n_par{n_par}/seed{seed}"] = run_fingerprint(
                name, n_par, seed, overrides
            )
    trials = {
        f"{name}/n{n}/seed{seed}/rep{rep}": repr(
            cli.model_error_trial(prosrs.make_benchmark(name), n, seed, rep, n_mc)
        )
        for name, n, seed, rep, n_mc in TRIALS
    }
    n_par, iterations, seed = SHORT_RUN
    short_runs = {
        f"{name}/n_par{n_par}/seed{seed}/it{iterations}": run_fingerprint(
            name, n_par, seed, {}, iterations
        )
        for name in BENCHMARK_NAMES
    }
    designs = {
        f"{name}/n_par{n_par}": design_digest(name, n_par)
        for name in BENCHMARK_NAMES
        for n_par in DESIGN_N_PARS
    }
    return {
        "runs": runs,
        "model_error_rel_l2": trials,
        "short_runs": short_runs,
        "first_designs": designs,
    }


def cli_tree(out: Path) -> dict:
    """Run CLI_RUNS into ``out`` and return the SHA-256 of every file they
    wrote, keyed by its path relative to ``out``."""
    for sub, argv in CLI_RUNS.items():
        assert cli.main([*argv, "--out", str(out / sub)]) == 0
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_golden_fingerprint_is_unchanged():
    expected = json.loads(GOLDEN.read_text())
    actual = fingerprint()
    assert actual.keys() == expected.keys()
    assert actual["model_error_rel_l2"] == expected["model_error_rel_l2"]
    assert actual["first_designs"] == expected["first_designs"]
    for section in ("runs", "short_runs"):
        assert actual[section].keys() == expected[section].keys()
        for key, run in expected[section].items():
            for field, values in run.items():
                assert actual[section][key][field] == values, f"{key}: {field} changed"


def test_cli_output_trees_are_unchanged(tmp_path):
    assert cli_tree(tmp_path) == json.loads(CLI_TREE.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(fingerprint(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    with tempfile.TemporaryDirectory() as out:
        CLI_TREE.write_text(json.dumps(cli_tree(Path(out)), indent=1) + "\n")
    print(f"wrote {CLI_TREE}")
