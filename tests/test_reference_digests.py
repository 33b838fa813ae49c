"""Every exact case of the benchmark, run through `cli.main` at seed 0, gives
the output digest recorded in `perfbench/reference.json`, so a change to an
exact output (a permutation, a group order, a map, an automaton) fails here
and not only in a benchmark run.  Every floating-point case (the `verify`
workload) passes its check at seed 0.  The benchmark's files are only
read."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from weylcheb import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    from cases import WORKLOADS, case_key
    from passrun import FLOAT_VERBS, digest
finally:
    sys.path.remove(str(PERFBENCH))

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["digests"]
EXACT_CASES = [argv for cases in WORKLOADS.values() for argv in cases
               if argv[0] not in FLOAT_VERBS]
FLOAT_CASES = [argv for cases in WORKLOADS.values() for argv in cases
               if argv[0] in FLOAT_VERBS]


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--seed", "0"]) == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", EXACT_CASES, ids=case_key)
def test_exact_case_matches_reference(argv):
    assert digest(argv[0], _run(argv)) == REFERENCE[case_key(argv)]


@pytest.mark.parametrize("argv", FLOAT_CASES, ids=case_key)
def test_float_case_passes(argv):
    assert json.loads(_run(argv))["pass"] is True
