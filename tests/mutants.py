"""Mutation check: each listed mutant of the package must fail its named tests.

Run from anywhere: ``python tests/mutants.py``. pytest does not collect this
file. Each entry names a file of the checkout, an exact old text that occurs
in it once, the new text, and the test ids that must catch the change. For
each entry the script copies the checkout (``src``, ``tests``, ``perfbench``
and ``pyproject.toml``) to a fresh temporary directory, applies the one
mutant there and runs only the named tests, under the checkout's pytest
settings (warnings are errors). Before that it runs every named test on an
unmutated copy. It exits 1 if the unmutated copy fails them, if an old text
no longer occurs exactly once (a refactor must update the list), or if a
mutant survives, that is, if its tests pass; a mutant is killed when pytest
reports a failed test (exit status 1).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")

Mutant = namedtuple("Mutant", "name path old new tests")

ENGINE = "src/prosrs/engine.py"
SRS = "src/prosrs/srs.py"
SURROGATE = "src/prosrs/surrogate.py"
ZOOMTREE = "src/prosrs/zoomtree.py"

GOLDEN = "tests/test_golden.py::test_golden_fingerprint_is_unchanged"
INVARIANTS = "tests/test_invariants.py"

MUTANTS = [
    # The symmetric fit: the eigenvalues keep their signs, and only a fit
    # whose weights are all 1 is symmetric.
    Mutant(
        "eigh fit takes |s|", SURROGATE,
        "        s, left = np.linalg.eigh(a)\n",
        "        s, left = np.linalg.eigh(a)\n        s = np.abs(s)\n",
        ["tests/test_surrogate.py::TestFit"],
    ),
    Mutant(
        "eigh for every fit", SURROGATE,
        "    if np.all(sqrt_w == 1.0):\n",
        "    if True:\n",
        ["tests/test_surrogate.py::TestFit"],
    ),
    # Pool scoring off the basis: r = sqrt(b^2 - 1), the pool's unit
    # coordinates, and the per-pick refresh in those coordinates.
    Mutant(
        "nearest distance without - 1", SURROGATE,
        "            b -= 1.0\n",
        "",
        ["tests/test_surrogate.py::TestPredict", "tests/test_srs.py"],
    ),
    Mutant(
        "unit coordinates not written", SURROGATE,
        "u = norm.to_unit(X[block], out=u_buf[:k] if unit is None else unit[block])",
        "u = norm.to_unit(X[block], out=u_buf[:k] if unit is None else None)",
        ["tests/test_surrogate.py::TestPredict", "tests/test_srs.py"],
    ),
    Mutant(
        "refresh in original coordinates", SRS,
        "dmin = _kernels.update_min_dists(dmin, unit, unit[picked[-1]])",
        "dmin = _kernels.update_min_dists(dmin, points, points[picked[-1]])",
        ["tests/test_srs.py", GOLDEN],
    ),
    # The benchmark's definition: clipped proposals and seeded candidates.
    Mutant(
        "clip_to_domain clips nothing", "src/prosrs/problem.py",
        "    out = np.maximum(x, domain.lower, out=out)\n"
        "    return np.minimum(out, domain.upper, out=out)\n",
        "    return x\n",
        ["tests/test_problem.py::TestClipToDomain", INVARIANTS],
    ),
    Mutant(
        "unseeded candidate draws", ENGINE,
        '                rec.rngs["candidates"],\n',
        "                np.random.default_rng(),\n",
        ["tests/test_engine.py::TestRunProsrs::test_determinism", GOLDEN],
    ),
    # One per invariant of ROADMAP aim 3.
    Mutant(
        "proposals in the domain: no clip in generate_candidates", SRS,
        "    clip_to_domain(gauss, omega, out=gauss)\n",
        "",
        ["tests/test_srs.py", INVARIANTS],
    ),
    Mutant(
        "node data in its box: the archive as the node's data", ZOOMTREE,
        "        self.data = self.archive.restrict_to(node.omega)\n",
        "        self.data = self.archive\n",
        ["tests/test_zoomtree.py", INVARIANTS],
    ),
    Mutant(
        "bounded zoom depth: no resolution restart", ZOOMTREE,
        "            if child is None or n < 2 or restart_condition(\n",
        "            if child is None or n < 2 or False and restart_condition(\n",
        ["tests/test_zoomtree.py::TestAdvance", "tests/test_acceptance.py::"
         "test_criterion_01_zoom_level_bound"],
    ),
    Mutant(
        "best never rises: each batch's own minimum", ENGINE,
        "        if y[i] < self.best_y:\n",
        "        if True:\n",
        ["tests/test_engine.py::test_rows_carry_the_running_best_point", INVARIANTS],
    ),
    Mutant(
        "a fit has two points: no n < 2 restart trigger", ZOOMTREE,
        "            if child is None or n < 2 or restart_condition(\n",
        "            if child is None or restart_condition(\n",
        ["tests/test_zoomtree.py::TestAdvance", INVARIANTS],
    ),
    Mutant(
        "> for >= in advance's failure test", ZOOMTREE,
        "        failed = bool(y.min() >= self.data.y.min())\n",
        "        failed = bool(y.min() > self.data.y.min())\n",
        ["tests/test_zoomtree.py::TestAdvance"],
    ),
    # A run is set up in one place.
    Mutant(
        "derived values win over overrides", "src/prosrs/problem.py",
        "    return RunConfig(**{**derived, **overrides})\n",
        "    return RunConfig(**{**overrides, **derived})\n",
        ["tests/test_problem.py::TestDefaultConfig"],
    ),
    Mutant(
        "a falsy evaluator is replaced", ENGINE,
        "serial_evaluator(objective) if evaluator is None else evaluator",
        "evaluator or serial_evaluator(objective)",
        ["tests/test_engine.py::test_a_given_evaluator_is_called_even_when_it_is_falsy"],
    ),
    Mutant(
        "no up-front --problem check (optimize, bench-suite)", "src/prosrs/cli.py",
        "        _problem_source(name)  # every name is checked before the first run\n",
        "        pass\n",
        ["tests/test_cli.py::TestBenchSuite::test_every_problem_name_is_checked_before_the_first_run"],
    ),
    Mutant(
        "no up-front --problem check (model-error)", "src/prosrs/cli.py",
        "    problems = [make_benchmark(name) for name in _problem_names(spec)]\n"
        "    for problem in problems:\n",
        "    for problem in map(make_benchmark, _problem_names(spec)):\n",
        ["tests/test_cli.py::TestModelError::test_every_problem_name_is_checked_before_any_trial"],
    ),
    # Freezing copies: the evaluator's batch, the logged responses, and a
    # model's arrays are read-only copies, and the caller's stay writable.
    Mutant(
        "batch left unfrozen before the barrier", ENGINE,
        "        X = _frozen_array(np.atleast_2d(X))\n",
        "        X = np.atleast_2d(np.asarray(X, dtype=float))\n",
        ["tests/test_engine.py::test_an_evaluator_that_writes_to_its_batch_fails_and_changes_nothing"],
    ),
    Mutant(
        "responses left unfrozen", ENGINE,
        "        y = _frozen_array(np.atleast_1d(y))\n",
        "        y = np.atleast_1d(np.asarray(y, dtype=float))\n",
        ["tests/test_engine.py::test_a_reused_output_buffer_logs_each_batch_as_evaluated"],
    ),
    Mutant(
        "RbfSurrogate freezes the caller's centres in place", SURROGATE,
        "        centers = _frozen_array(np.atleast_2d(self.centers))\n",
        "        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))\n"
        "        centers.setflags(write=False)\n",
        ["tests/test_surrogate.py::TestPredict::"
         "test_holds_read_only_copies_and_leaves_the_callers_arrays_writable"],
    ),
]


def checkout_copy(into: Path) -> Path:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=IGNORED)
        else:
            shutil.copy2(source, into / name)
    return into


def run_tests(copy: Path, tests) -> int:
    """pytest's exit status for ``tests`` in ``copy``, its output discarded."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=copy, env=env, capture_output=True)
    return done.returncode


def main() -> int:
    start = time.perf_counter()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = checkout_copy(Path(tmp) / "clean")
        named = list(dict.fromkeys(test for m in MUTANTS for test in m.tests))
        status = run_tests(clean, named)
        if status != 0:
            problems.append(f"the unmutated checkout fails the named tests (pytest exit {status})")
        for i, mutant in enumerate(MUTANTS):
            copy = checkout_copy(Path(tmp) / f"mutant{i}")
            target = copy / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                problems.append(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                                f"times in {mutant.path}, not once")
                continue
            target.write_text(text.replace(mutant.old, mutant.new))
            status = run_tests(copy, mutant.tests)
            verdict = "killed" if status == 1 else f"SURVIVED (pytest exit {status})"
            print(f"{verdict:<28} {mutant.name}", flush=True)
            if status != 1:
                problems.append(f"{mutant.name}: survived (pytest exit {status})")
            shutil.rmtree(copy)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
