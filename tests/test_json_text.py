"""`cli.json_text` writes exactly the text of json.dumps(obj, indent=2,
sort_keys=True): on every payload the CLI emits for the benchmark's case
lists, and on the edge cases of the json module's own encoder.  What it
cannot match byte for byte raises TypeError."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from weylcheb import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    from cases import WORKLOADS, case_key
finally:
    sys.path.remove(str(PERFBENCH))


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def first_difference(got: str, want: str):
    """None when the texts agree, else the first offset where they differ
    and both texts around it: pytest's own diff of two long texts can run
    for minutes."""
    if got == want:
        return None
    i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
             min(len(got), len(want)))
    lo = max(i - 40, 0)
    return i, got[lo:i + 40], want[lo:i + 40]


@pytest.mark.parametrize(
    "argv", [a for w in ("synth", "img", "verify") for a in WORKLOADS[w]],
    ids=case_key)
def test_matches_stdlib_on_every_cli_payload(argv, monkeypatch, capsys):
    payloads = []
    emit = cli._emit

    def spy(args, payload):
        payloads.append(payload)
        emit(args, payload)
    monkeypatch.setattr(cli, "_emit", spy)
    cli.main([*argv, "--seed", "0"])
    capsys.readouterr()
    payloads = [p for p in payloads if not isinstance(p, str)]
    assert payloads or argv[0] == "act"
    for payload in payloads:
        assert first_difference(cli.json_text(payload), stdlib(payload)) \
            is None


EDGE_CASES = [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[]], {}, [{"b": []}]],
    [True, 0, False, 1, None], {"t": True, "f": False, "z": 0, "o": 1},
    None, True, 0, -7, 2 ** 70, "", "x",
    [-0.0, 0.0, 1e-7, 1e16, 1.5, float("nan"), float("inf"), float("-inf")],
    (1, (2, 3), ()), {"k": (1, "a")},
    ['say "hi"', "back\\slash", "ctl\x00\x01\n\t\x1f", "café",
     "☃ snow", "\U0001f600"],
    {"z": 1, "a": {"y": [1, {"b": None}], "é": "é"}, "B": [0.1]},
]


@pytest.mark.parametrize("obj", EDGE_CASES, ids=repr)
def test_matches_stdlib_on_edge_cases(obj):
    assert cli.json_text(obj) == stdlib(obj)


@pytest.mark.parametrize("obj", [{1: 2}, {"a": 1, 2: 3}, {None: 0},
                                 np.int64(3), [np.int64(3)],
                                 {"a": np.int64(3)}, {1, 2}])
def test_refuses_what_it_cannot_match(obj):
    with pytest.raises(TypeError):
        cli.json_text(obj)
