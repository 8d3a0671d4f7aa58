"""The benchmark's workloads still run on the package.

``perfbench/workloads.py`` builds its tasks from the package's public names
(``make_benchmark``, ``benchmark_objective``, ``NoisyBatchEvaluator``,
``default_config``, ``run_prosrs``, ``Objective.dimension``,
``cli.model_error_trial``) and records an exception a task raises as a
failed output check instead of failing. A refactor that renames one of them
would therefore show only in a benchmark run; this test makes it fail here.
It runs the first task of each workload, as the benchmark plans it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import prosrs

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_first_task_of_each_workload_runs_and_passes_its_checks(workload):
    task = workloads.plan(workload, 0)[0]
    result = workloads.run_task(prosrs, task)
    assert result.problems == []
    assert result.digest is not None
