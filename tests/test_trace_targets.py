"""The benchmark's per-layer trace finds every function it times.

``perfbench/layertrace.py`` wraps package functions by module and name, and
reports a target it cannot find as absent instead of failing. A refactor that
moves or renames a traced function would therefore blank that layer's figures
without any error; this test makes it fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import prosrs

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_layertrace().targets(prosrs)


@pytest.mark.parametrize("layer,qualname", TARGETS, ids=[f"{l}.{q}" for l, q in TARGETS])
def test_target_resolves_to_a_function_of_its_layer(layer, qualname):
    module = importlib.import_module(f"prosrs.{layer}")
    target = module
    for attr in qualname.split("."):
        target = getattr(target, attr, None)
    assert callable(target), f"prosrs.{layer}.{qualname} is gone"
    # Defined in that module, so its time is charged to the right layer.
    assert target.__module__ == module.__name__
