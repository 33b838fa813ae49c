"""The functions the benchmark's tracer wraps must exist in the program, so
that a rename fails here instead of breaking `perfbench/run.py --trace 1`."""

import contextlib
import importlib
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _layers():
    return [(mod, fn) for mod, fn, _, _ in _tracer().LAYERS]


@pytest.mark.parametrize("mod,fn", _layers())
def test_traced_function_resolves(mod, fn):
    home = importlib.import_module(f"weylcheb.{mod}")
    assert callable(getattr(home, fn, None)), f"weylcheb.{mod}.{fn}"


@pytest.mark.parametrize("verb,expect", [
    ("verify-postcritical", lambda rep: {
        "critical.post_critical_check.draw_yield":
            rep["samples"] / (rep["samples"] + rep["skipped"]),
        "critical.post_critical_check.det_margin_decades":
            math.log10(rep["tol"] / 1e-300)}),
    ("verify-functional", lambda rep: {
        "chebmap.verify_functional_equation.margin_decades":
            math.log10(0.5 / 1e-300)}),
], ids=["verify-postcritical", "verify-functional"])
def test_hooks_read_a_real_report(verb, expect):
    # the hooks read report fields and bind arguments by name (tol,
    # det_residuals, skipped, max_residual): run one traced CLI call the
    # way `perfbench/run.py --trace 1` does, and reduce its spans
    tracer = _tracer()
    from weylcheb import cli
    trace = tracer.Tracer()
    out = io.StringIO()
    trace.install()
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main([verb, "A2", "2", "--samples", "5"]) == 0
    finally:
        trace.uninstall()
    rep = json.loads(out.getvalue())
    metrics = tracer.layer_metrics(trace.spans, len(out.getvalue()))
    for name, value in expect(rep).items():
        assert metrics[name] == pytest.approx(value), name
