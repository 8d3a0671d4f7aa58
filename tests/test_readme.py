"""README's code runs, and its thread-pool evaluator gives the default run.

Every ```python block of README.md runs, in order, as one script in a fresh
interpreter with ``PYTHONPATH=src``. A check appended to the script runs a
noiseless objective once through its own ``evaluate`` and once through the
README's ``thread_pool_evaluator``, and compares every logged row bit for bit.

The script needs numpy alone. ``python tests/test_readme.py`` runs it
outside pytest and exits with its status.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
def sphere(x):
    return float(x @ x)

noiseless = Objective.pointwise(BoxDomain(np.full(2, -1.0), np.ones(2)), sphere)
config = default_config(2, 4, n_iterations=8, seed=11)
default = run_prosrs(noiseless, config)
pooled = run_prosrs(noiseless, config, thread_pool_evaluator(sphere))
assert pooled.y_best == default.y_best
for a, b in zip(default.logs, pooled.logs, strict=True):
    assert (a.iteration, a.event, a.node_id, a.zoom_level) == (
        b.iteration, b.event, b.node_id, b.zoom_level)
    assert a.proposed_x.tobytes() == b.proposed_x.tobytes()
    assert a.proposed_y.tobytes() == b.proposed_y.tobytes()
print("readme ok")
"""


def readme_script() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks, "README.md has no python block"
    return "\n".join(blocks) + CHECK


def run_readme_script() -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", readme_script()],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )


def test_readme_code_runs_and_its_thread_pool_evaluator_matches_the_default_run():
    out = run_readme_script()
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "readme ok"


if __name__ == "__main__":
    done = run_readme_script()
    print(done.stdout, end="")
    print(done.stderr, end="", file=sys.stderr)
    sys.exit(done.returncode)
