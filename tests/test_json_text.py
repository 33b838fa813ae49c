"""`cli.json_text` writes exactly the text of json.dumps(obj, indent=2,
sort_keys=True), an integer ndarray as its tolist(): on every payload the
CLI emits for the benchmark's case lists, on the edge cases of the json
module's own encoder and on integer arrays of every rank and edge shape.
What it cannot match byte for byte raises TypeError."""

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


def plain(obj):
    """obj with every ndarray in it replaced by its tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    return obj


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
        assert first_difference(cli.json_text(payload),
                                stdlib(plain(payload))) is None


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


I64 = np.iinfo(np.int64)
INT_ARRAYS = [
    np.zeros(0, dtype=np.int64), np.zeros((0, 3), dtype=np.int64),
    np.zeros((3, 0), dtype=np.int64), np.zeros((2, 0, 3), dtype=np.int64),
    np.zeros((2, 3, 0), dtype=np.int64), np.array([7]),
    np.array([-3, 0, 12, I64.min, I64.max]),
    np.arange(-6, 6).reshape(3, 4),
    np.array([[I64.min, I64.max], [-1, 1]]),
    np.arange(-12, 12).reshape(2, 3, 4),
    np.arange(24, dtype=np.int32).reshape(1, 2, 3, 4),
    np.array([[0, 2 ** 64 - 1]], dtype=np.uint64),
]


@pytest.mark.parametrize("arr", INT_ARRAYS, ids=lambda a: f"{a.dtype}"
                         f"{'x'.join(map(str, a.shape))}")
def test_integer_arrays_match_their_lists(arr):
    assert cli.json_text(arr) == json.dumps(arr.tolist(), indent=2)
    # nested in a payload, at a deeper indent
    payload = {"b": [arr, {"a": arr}], "a": 1}
    assert cli.json_text(payload) == stdlib(plain(payload))


def test_a_weyl_group_array_matches_its_list():
    from weylcheb.rootsys import build_root_system, weyl_group_elements
    arr = weyl_group_elements(build_root_system("B3"))
    payload = {"elements": arr, "order": len(arr)}
    assert cli.json_text(payload) == stdlib(plain(payload))


@pytest.mark.parametrize("obj", [{1: 2}, {"a": 1, 2: 3}, {None: 0},
                                 np.int64(3), [np.int64(3)],
                                 {"a": np.int64(3)}, {1, 2},
                                 np.array([True, False]),
                                 np.array([1.5, 2.0]), np.zeros((2, 2)),
                                 np.array(3), np.array([[1, None]]),
                                 {"a": np.array(7)}, [np.array([0.5])]])
def test_refuses_what_it_cannot_match(obj):
    with pytest.raises(TypeError):
        cli.json_text(obj)
