"""The benchmark's tracer wraps fisherctl functions by module attribute; every
name it lists must exist, or traced benchmark runs break."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()
FUNCTIONS = sorted(set(spans.SPANNED_FUNCTIONS) | set(spans.COUNTED_FUNCTIONS))


@pytest.mark.parametrize("mod, attr", FUNCTIONS)
def test_wrapped_function_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(f"fisherctl.{mod}"), attr))


@pytest.mark.parametrize("mod, cls, attr", sorted(spans.SPANNED_METHODS))
def test_wrapped_method_resolves(mod, cls, attr):
    owner = getattr(importlib.import_module(f"fisherctl.{mod}"), cls)
    # the tracer patches the class's own attribute, not an inherited one
    assert callable(owner.__dict__[attr])
