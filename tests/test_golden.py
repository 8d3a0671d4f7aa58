"""Behaviour lock: seeded runs must reproduce a committed fingerprint exactly.

``tests/golden/fingerprint.json`` records, for a few short seeded runs, the
event, node-id and zoom-level sequences and the exact ``repr`` of every
proposed point and response, plus the relative L2 error of two model-error
trials. A refactor that claims to keep behaviour must keep this file
byte-identical; a change that alters the numbers on purpose rewrites it with

    PYTHONPATH=src python tests/test_golden.py

and says why in its change notes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import prosrs
from prosrs import cli
from prosrs.problem import stream_seedseq

GOLDEN = Path(__file__).parent / "golden" / "fingerprint.json"

ITERATIONS = 15
SEEDS = (0, 1)
# (problem, n_par, config overrides). Ackley10 scores a 10 000-point pool;
# Rastrigin2 runs n_par = 1; SixHumpCamel2 has an anisotropic domain; the
# Dropwave2 overrides make it zoom in and restart within the budget; the
# GoldsteinPrice2 overrides make it zoom out too, and restart after that.
RUNS = (
    ("Ackley10", 4, {}),
    ("Rastrigin2", 1, {}),
    ("SixHumpCamel2", 4, {}),
    ("Dropwave2", 2, {"c_fail": 1, "r_resolution": 0.2}),
    ("GoldsteinPrice2", 2, {"c_fail": 1, "r_resolution": 0.1, "beta_init": 0.5, "beta_min": 0.25}),
)
# (problem, n, seed, repeat) of cli.model_error_trial; n_mc spans several
# prediction blocks.
TRIALS = (("Ackley10", 50, 0, 0), ("Hartmann6", 100, 0, 1))
TRIAL_N_MC = 5000


def _reprs(a) -> str:
    return " ".join(repr(float(v)) for v in np.ravel(a))


def run_fingerprint(name: str, n_par: int, seed: int, overrides: dict) -> dict:
    problem = prosrs.make_benchmark(name)
    objective = prosrs.benchmark_objective(problem, seed)
    evaluator = prosrs.NoisyBatchEvaluator(problem, stream_seedseq(seed, "noise"))
    config = prosrs.default_config(
        objective.dimension, n_par, n_iterations=ITERATIONS, seed=seed, **overrides
    )
    logs = prosrs.run_prosrs(objective, config, evaluator).logs
    return {
        "events": [log.event for log in logs],
        "node_ids": [log.node_id for log in logs],
        "zoom_levels": [log.zoom_level for log in logs],
        "proposed_x": [_reprs(log.proposed_x) for log in logs],
        "proposed_y": [_reprs(log.proposed_y) for log in logs],
    }


def fingerprint() -> dict:
    runs = {}
    for name, n_par, overrides in RUNS:
        for seed in SEEDS:
            runs[f"{name}/n_par{n_par}/seed{seed}"] = run_fingerprint(
                name, n_par, seed, overrides
            )
    trials = {
        f"{name}/n{n}/seed{seed}/rep{rep}": repr(
            cli.model_error_trial(prosrs.make_benchmark(name), n, seed, rep, TRIAL_N_MC)
        )
        for name, n, seed, rep in TRIALS
    }
    return {"runs": runs, "model_error_rel_l2": trials}


def test_golden_fingerprint_is_unchanged():
    expected = json.loads(GOLDEN.read_text())
    actual = fingerprint()
    assert actual["model_error_rel_l2"] == expected["model_error_rel_l2"]
    assert actual["runs"].keys() == expected["runs"].keys()
    for key, run in expected["runs"].items():
        for field, values in run.items():
            assert actual["runs"][key][field] == values, f"{key}: {field} changed"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(fingerprint(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
