"""End-to-end CLI behavior: JSON schemas, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylcheb
from weylcheb.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_import_leaves_mpmath_out():
    # every CLI process pays for its imports, and no check needs mpmath
    src = str(Path(weylcheb.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, weylcheb.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# --- roots -----------------------------------------------------------------------

def test_roots_a2(capsys):
    code, out, _ = run_cli(capsys, "roots", "A2")
    payload = json.loads(out)
    assert code == 0 and payload["pass"]
    assert len(payload["roots"]) == 6
    assert payload["cartan"] == [[2, -1], [-1, 2]]


def test_roots_bad_spec(capsys):
    code, _, err = run_cli(capsys, "roots", "Z9")
    assert code == 2
    assert "Z9" in err


def test_roots_reducible_block_cartan(capsys):
    code, out, _ = run_cli(capsys, "roots", "A1xA1")
    payload = json.loads(out)
    assert code == 0
    assert payload["cartan"] == [[2, 0], [0, 2]]


def test_roots_gram_is_rational_strings(capsys):
    _, out, _ = run_cli(capsys, "roots", "G2")
    payload = json.loads(out)
    assert payload["gram"][1][1] == "2/3"


# --- weyl ------------------------------------------------------------------------

def test_weyl_order(capsys):
    code, out, _ = run_cli(capsys, "weyl", "B2")
    assert code == 0
    assert json.loads(out)["order"] == 8


def test_weyl_refuses_large_groups_by_default(capsys):
    code, _, err = run_cli(capsys, "weyl", "E6")
    assert code == 2
    assert "51840" in err and "cap" in err


# --- chebmap ----------------------------------------------------------------------

def test_chebmap_a2_exact_output(capsys):
    code, out, _ = run_cli(capsys, "chebmap", "A2", "2", "--samples", "20")
    payload = json.loads(out)
    assert code == 0
    assert payload["components"][0] == [
        {"exponents": [2, 0], "coeff": 1},
        {"exponents": [0, 1], "coeff": -2},
    ]
    assert payload["components"][1] == [
        {"exponents": [0, 2], "coeff": 1},
        {"exponents": [1, 0], "coeff": -2},
    ]
    assert payload["verification"]["max_residual"] == 0
    assert payload["verification"]["witness"] is None


def test_chebmap_degree_five(capsys):
    code, out, _ = run_cli(capsys, "chebmap", "A1", "5", "--samples", "20")
    payload = json.loads(out)
    assert code == 0
    # 2 cos(5 theta) in 2 cos(theta): X^5 - 5 X^3 + 5 X
    assert payload["components"][0] == [
        {"exponents": [5], "coeff": 1},
        {"exponents": [3], "coeff": -5},
        {"exponents": [1], "coeff": 5},
    ]
    assert payload["verification"]["max_residual"] == 0


def test_chebmap_g2_integer_coefficients(capsys):
    code, out, _ = run_cli(capsys, "chebmap", "G2", "2", "--samples", "20")
    payload = json.loads(out)
    assert code == 0
    for comp in payload["components"]:
        for term in comp:
            assert isinstance(term["coeff"], int)
    assert payload["verification"]["max_residual"] == 0


# --- verification commands -----------------------------------------------------------

def test_verify_functional(capsys):
    code, out, _ = run_cli(capsys, "verify-functional", "B2", "2",
                           "--samples", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] and payload["max_residual"] == 0
    assert payload["witness"] is None
    assert 2 ** 30 <= payload["prime"] < 2 ** 31


def test_verify_functional_failure_names_its_witness(capsys, monkeypatch):
    # a +1 on X_2^d makes A2 2 fail at its first sample, in component 1
    # (counted from 0) only
    from weylcheb import chebmap

    real = chebmap.build_cheb_map

    def mutant(rsys, d):
        comps = [dict(c) for c in real(rsys, d).components]
        comps[1][(0, d)] += 1
        return chebmap.PolynomialMap(rsys.rank, tuple(comps))

    monkeypatch.setattr(chebmap, "build_cheb_map", mutant)
    code, out, _ = run_cli(capsys, "verify-functional", "A2", "2",
                           "--samples", "5")
    payload = json.loads(out)
    assert code == 1 and payload["pass"] is False
    witness = payload["witness"]
    assert witness["sample"] == 0 and witness["component"] == 1
    p = payload["prime"]
    assert len(witness["z"]) == 2 and all(1 <= v < p for v in witness["z"])
    assert 1 <= payload["max_residual"] <= p // 2


@pytest.mark.parametrize("argv", [
    ("verify-functional", "A2", "2", "--samples", "0"),
    ("chebmap", "A1", "2", "--samples", "-3"),
    ("verify-postcritical", "A2", "2", "--samples", "0"),
])
def test_sampled_verbs_refuse_no_samples(capsys, argv):
    # refused at parse time, by the same argparse type as d and levels
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "usage:" in err
    assert f"argument --samples: must be >= 1, got {argv[-1]}" in err


def test_parsed_options_do_not_leak_between_calls(capsys):
    # the parser is built once per process; a value given to one call must
    # not become the default of the next
    from weylcheb.cli import build_parser
    assert build_parser() is build_parser()
    code, out, _ = run_cli(capsys, "verify-functional", "A2", "2",
                           "--samples", "5")
    assert code == 0 and json.loads(out)["samples"] == 5
    code, out, _ = run_cli(capsys, "verify-functional", "A2", "2")
    assert code == 0 and json.loads(out)["samples"] == 100
    code, out, _ = run_cli(capsys, "verify-postcritical", "A2", "2")
    assert code == 0 and json.loads(out)["samples"] == 50


@pytest.mark.parametrize("tol", ["inf", "nan", "-1e-7"])
def test_postcritical_refuses_a_tolerance_that_is_not_one(capsys, tol):
    # the check is exact and takes no --tol: any value, bad or not, is refused
    with pytest.raises(SystemExit) as exc:
        main(["verify-postcritical", "A1", "2", f"--tol={tol}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --tol" in err


@pytest.mark.parametrize("verb", ["chebmap", "verify-functional"])
def test_exact_check_takes_no_tolerance(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        main([verb, "A2", "2", "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_verify_postcritical_a2(capsys):
    code, out, _ = run_cli(capsys, "verify-postcritical", "A2", "2",
                           "--samples", "25")
    payload = json.loads(out)
    assert code == 0 and payload["pass"]
    assert payload["witness"] is None and 2 ** 30 <= payload["prime"] < 2 ** 31
    # A2 runs the exact check only, like every type; tol is the default
    assert "deltoid_pass" not in payload and payload["tol"] == 1e-7


def test_verify_postcritical_e6_at_default_samples(capsys):
    # rank 6, 72 roots, 50 points in one batch of the prime-field kernels
    code, out, _ = run_cli(capsys, "verify-postcritical", "E6", "2")
    payload = json.loads(out)
    assert code == 0 and payload["pass"] and payload["samples"] == 50
    assert payload["max_det_residual"] == payload["max_value_residual"] == 0


def test_verify_postcritical_failure_names_its_witness(capsys, monkeypatch):
    # a +1 on X_1^2 makes A2 2 fail at its first sample, in the value check
    # of component 0; the JSON carries the library report's witness and prime, and the
    # point is the first the functional check draws at the same seed
    from weylcheb import chebmap
    from weylcheb.critical import post_critical_check
    from weylcheb.rootsys import build_root_system

    real = chebmap.build_cheb_map

    def mutant(rsys, d):
        comps = [dict(c) for c in real(rsys, d).components]
        comps[0][(d, 0)] += 1
        return chebmap.PolynomialMap(rsys.rank, tuple(comps))

    monkeypatch.setattr(chebmap, "build_cheb_map", mutant)
    code, out, _ = run_cli(capsys, "verify-postcritical", "A2", "2",
                           "--samples", "10")
    payload = json.loads(out)
    assert code == 1 and payload["pass"] is False
    a2 = build_root_system("A2")
    rep = post_critical_check(a2, 2, mutant(a2, 2), samples=10)
    p, z = chebmap.draw_points(a2, 10, 0)
    assert payload["prime"] == rep.prime == p
    assert payload["witness"] == rep.witness == {
        "sample": 0, "check": "value", "component": 0, "z": z[0].tolist()}


# --- img-verify ------------------------------------------------------------------------

def test_img_verify_a1(capsys):
    code, out, _ = run_cli(capsys, "img-verify", "A1", "2", "3")
    payload = json.loads(out)
    assert code == 0 and payload["pass"]
    orders = {o["level"]: o["algebraic"] for o in payload["group_orders"]}
    assert orders == {1: 2, 2: 8, 3: 16}


def test_img_verify_a2(capsys):
    code, out, _ = run_cli(capsys, "img-verify", "A2", "2", "2")
    payload = json.loads(out)
    assert code == 0 and payload["pass"]
    assert len(payload["generators"][0]["levels"][1]["algebraic_perm"]) == 16


def test_img_verify_ignores_seed(capsys):
    # img-verify draws nothing at random, but accepts --seed like every verb
    runs = [run_cli(capsys, "img-verify", "A1", "2", "3", "--seed", seed)
            for seed in ("7", "0")]
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("spec", ["B4", "F4"])
def test_img_verify_rank_four_passes(spec, capsys):
    # from the Coxeter basepoint every alcove wall is 1/h away; from the
    # earlier basepoint B4 lifted four loops to wrong decks and F4 stalled
    code, out, err = run_cli(capsys, "img-verify", spec, "2", "1")
    payload = json.loads(out)
    assert code == 0 and payload["pass"], err
    assert len(payload["generators"]) == 5
    assert all(g["deck_matches"] for g in payload["generators"])


def test_img_verify_a1_level_thirteen(capsys):
    # V = 8192; m = 2^13 >= 3, so the level-13 order is m * |W(A1)|
    code, out, err = run_cli(capsys, "img-verify", "A1", "2", "13")
    payload = json.loads(out)
    assert code == 0 and payload["pass"] is True, err
    assert payload["group_orders"][-1] == {"level": 13, "algebraic": 16384}


def test_img_verify_refuses_oversized(capsys):
    for case, named in ((("B3", "3", "4"),
                         ("531441 vertices", "2207520 entries", "cap 1310720")),
                        (("A1", "2", "19"),
                         ("524288 vertices", "2097148 entries", "cap 1310720")),
                        (("A1xA1xA1", "2", "6"),
                         ("262144 vertices", "1797552 entries", "cap 1310720")),
                        (("E6", "2", "1"), ("order 51840", "cap 1152"))):
        code, _, err = run_cli(capsys, "img-verify", *case)
        assert code == 2
        assert all(n in err for n in named), err


# --- act and automaton --------------------------------------------------------------------

def test_act_odometer(capsys):
    code, out, _ = run_cli(capsys, "act", "A1", "2", "t", "111")
    assert code == 0 and out.strip() == "000"


def test_act_identity(capsys):
    code, out, _ = run_cli(capsys, "act", "A2", "2", "id", "0101")
    assert code == 0 and out.strip() == "0101"


def test_act_generator_word(capsys):
    code, out, _ = run_cli(capsys, "act", "A1", "2", "s1*a0", "000")
    assert code == 0
    # s1 a0 is translation by -1: 000 encodes 0, image is 7 = 111
    assert out.strip() == "111"


def test_act_rejects_bad_word(capsys):
    code, _, err = run_cli(capsys, "act", "A1", "2", "q7", "000")
    assert code == 2 and "q7" in err


@pytest.mark.parametrize("d,treeword,bad", [
    ("2", "121", "'2'"), ("2", "1a", "'a'"), ("3", "3", "'3'"),
    ("2", "1²", "'²'")])
def test_act_rejects_bad_tree_word(capsys, d, treeword, bad):
    # a digit outside [0, d) or a character that is not a digit is a usage
    # error naming it, not a traceback
    code, out, err = run_cli(capsys, "act", "A1", d, "t", treeword)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and bad in err


def test_automaton_json(capsys):
    code, out, _ = run_cli(capsys, "automaton", "A1", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["alphabet_size"] == 2
    assert 3 <= len(payload["states"]) <= 4


def test_automaton_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "automaton", "A2", "2")
    _, out2, _ = run_cli(capsys, "automaton", "A2", "2")
    assert out1 == out2


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_automaton_stdout_and_out_file_bytes_agree(fmt, capsys, tmp_path):
    # one writer serves stdout and --out: the same bytes, one final newline
    code, out, _ = run_cli(capsys, "automaton", "A1", "2", "--format", fmt)
    assert code == 0 and out.endswith("\n") and not out.endswith("\n\n")
    path = tmp_path / "automaton.out"
    code, rest, _ = run_cli(capsys, "automaton", "A1", "2", "--format", fmt,
                            "--out", str(path))
    assert code == 0 and rest == ""
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("name", ["missing/x.json", "."],
                         ids=["missing-directory", "a-directory"])
def test_unwritable_out_is_an_error_not_a_traceback(name, capsys, tmp_path):
    # a path in a missing directory, and a directory: exit 2 with error: ...
    target = tmp_path / name
    code, out, err = run_cli(capsys, "img-verify", "A1", "2", "1", "--out",
                             str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --out {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


# --- options -------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    # the caps are constants, options of no verb
    ["chebmap", "A2", "2", "--cap-group", "5"],
    ["roots", "A2", "--cap-vertices", "5"],
    # img-verify's group order has no cap
    ["img-verify", "A2", "2", "2", "--cap-group", "5"],
    # the positionals have no --flag spellings
    ["img-verify", "--type", "A2", "--d", "2", "--levels", "1"],
    ["img-verify", "A2", "2"],
    ["weyl", "B2", "--cap-group", "4"],
    ["img-verify", "A2", "2", "2", "--cap-vertices", "15"],
    # d must be at least 2 and levels at least 1
    ["img-verify", "A2", "2", "0"],
    ["img-verify", "A2", "2", "-1"],
    ["img-verify", "A2", "1", "2"],
    ["img-verify", "A2", "0", "1"],
    ["chebmap", "A2", "0"],
    ["automaton", "A2", "0"],
    ["act", "A1", "1", "t", "000"],
])
def test_rejected_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_caps_refuse_before_any_work(capsys, monkeypatch):
    # the caps are the constants WEYL_CAP and ENTRY_CAP; a refusal comes
    # before any group element is built or any loop is made
    from weylcheb import monodromy, rootsys

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the cap refused it")

    monkeypatch.setattr(rootsys.RootSystem, "simple_reflection", no_work)
    monkeypatch.setattr(monodromy, "make_generator_loop", no_work)
    monkeypatch.setattr(monodromy, "weyl_group_elements", no_work)
    code, out, err = run_cli(capsys, "weyl", "E6")
    assert code == 2 and out == ""
    assert "order 51840" in err and "cap 1152" in err
    code, out, err = run_cli(capsys, "img-verify", "A1", "2", "19")
    assert code == 2 and out == ""
    assert "524288 vertices" in err and "cap 1310720" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out, _ = run_cli(capsys, "roots", "A1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["rank"] == 1
