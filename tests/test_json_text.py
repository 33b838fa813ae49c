"""`cli.json_text` writes one line of JSON, keys sorted, by the json
module's own encoder, with an integer ndarray written as its tolist(): every
payload the CLI emits for the benchmark's case lists reaches stdout as one
line that reads back as the payload, leaf types included, and so do the
edge cases of the json module and integer arrays of every rank and edge
shape.  What it cannot write raises TypeError."""

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


def plain(obj):
    """obj with every ndarray in it replaced by its tolist() and every
    tuple by a list: the value its JSON text stands for."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    return obj


def same(a, b) -> bool:
    """a == b with the leaves' types compared too, so True is not 1 and
    1.0 is not 1, and floats compared by repr, so NaN is NaN and -0.0 is
    not 0.0.  A plain == on two long payloads makes pytest diff them."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(map(same, a, b)))
    return type(a) is type(b) and repr(a) == repr(b)


def sorted_keys(value) -> bool:
    """Every object in value has its keys in sorted order."""
    if isinstance(value, dict):
        return (list(value) == sorted(value)
                and all(map(sorted_keys, value.values())))
    if isinstance(value, list):
        return all(map(sorted_keys, value))
    return True


def reads_back(text: str, obj) -> bool:
    """text is one line, with its keys in sorted order, and json.loads
    reads it as obj's value."""
    value = json.loads(text)
    return "\n" not in text and same(value, plain(obj)) and sorted_keys(value)


@pytest.mark.parametrize(
    "argv", [a for w in ("synth", "img", "verify") for a in WORKLOADS[w]],
    ids=case_key)
def test_matches_stdlib_on_every_cli_payload(argv, monkeypatch, capsys):
    # stdout is one line of JSON and its newline, and reads back as the
    # payload the verb emitted
    payloads = []
    emit = cli._emit

    def spy(args, payload):
        payloads.append(payload)
        emit(args, payload)
    monkeypatch.setattr(cli, "_emit", spy)
    cli.main([*argv, "--seed", "0"])
    out = capsys.readouterr().out
    payloads = [p for p in payloads if not isinstance(p, str)]
    if argv[0] == "act":
        assert not payloads
        return
    [payload] = payloads
    assert out.endswith("\n") and reads_back(out[:-1], payload)


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
    assert reads_back(cli.json_text(obj), obj)


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
    assert cli.json_text(arr) == json.dumps(arr.tolist())
    # nested in a payload
    payload = {"b": [arr, {"a": arr}], "a": 1}
    assert reads_back(cli.json_text(payload), payload)


def test_a_weyl_group_array_matches_its_list():
    from weylcheb.rootsys import build_root_system, weyl_group_elements
    arr = weyl_group_elements(build_root_system("B3"))
    payload = {"elements": arr, "order": len(arr)}
    assert reads_back(cli.json_text(payload), payload)


@pytest.mark.parametrize("obj", [[{1, 2}], {"a": 1, 2: 3},
                                 {"a": np.array([True, False])},
                                 np.int64(3), [np.int64(3)],
                                 {"a": np.int64(3)}, {1, 2},
                                 np.array([True, False]),
                                 np.array([1.5, 2.0]), np.zeros((2, 2)),
                                 np.array(3), np.array([[1, None]]),
                                 {"a": np.array(7)}, [np.array([0.5])],
                                 {"a": [np.array([[1, None]])]}])
def test_refuses_what_it_cannot_match(obj):
    with pytest.raises(TypeError):
        cli.json_text(obj)
