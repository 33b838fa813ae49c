"""The functions the benchmark's tracer wraps must exist in the program, so
that a rename fails here instead of breaking `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, fn) for mod, fn, _, _ in tracer.LAYERS]


@pytest.mark.parametrize("mod,fn", _layers())
def test_traced_function_resolves(mod, fn):
    home = importlib.import_module(f"weylcheb.{mod}")
    assert callable(getattr(home, fn, None)), f"weylcheb.{mod}.{fn}"
