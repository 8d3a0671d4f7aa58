"""The runtime needs numpy alone: scipy serves the tests as an oracle only.

A fresh interpreter imports prosrs, runs a short seeded 10-D optimization, a
maximin design and a model-error trial, and must not have loaded any scipy
module by the end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CODE = """
import sys

import numpy as np

import prosrs
from prosrs import cli
problem = prosrs.make_benchmark("Ackley10")
config = prosrs.default_config(10, 4, n_iterations=3, seed=1)
logs = prosrs.run_prosrs(prosrs.benchmark_objective(problem, 1), config).logs
assert len(logs) == 4, len(logs)
design = prosrs.latin_hypercube_maximin(12, problem.domain, np.random.default_rng(0))
assert design.shape == (12, 10), design.shape
cli.model_error_trial(prosrs.make_benchmark("Hartmann6"), 20, 0, 0, 2000)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_a_run_loads_no_scipy():
    out = subprocess.run(
        [sys.executable, "-c", CODE],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not [dep for dep in project["dependencies"] if dep.startswith("scipy")]
    test_deps = project["optional-dependencies"]["test"]
    assert any(dep.startswith("scipy") for dep in test_deps)
    assert any(dep.startswith("hypothesis") for dep in test_deps)
