"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from cases import WORKLOADS, case_key  # noqa: E402
from tracer import CASE, METRICS, Tracer, self_times  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())["digests"]
ACT = ["act", "A1", "2", "t", "111"]


def _job(cases, reference, trace=False):
    return {"cases": cases, "order": list(range(len(cases))), "seed": 0,
            "trace": trace, "reference": reference}


def test_wrong_reference_digest_fails_the_case():
    env = run.child_env()
    _, good = run.run_child(_job([ACT], REFERENCE), env)
    assert good["failures"] == []
    wrong = {case_key(ACT): "0" * 64}
    _, bad = run.run_child(_job([ACT], wrong), env)
    assert [f["kind"] for f in bad["failures"]] == ["mismatch"]
    assert bad["failures"][0]["witness"]["digest"] == REFERENCE[case_key(ACT)]
    s = run.summarize([ACT], [0.1], [{**bad, "traced": False}])
    assert not s["correct"] and s["failed"] == 1


def test_known_failure_counts_but_keeps_the_run_correct():
    g2 = ["verify-postcritical", "G2", "6"]
    _, res = run.run_child(_job([g2], REFERENCE), run.child_env())
    [failure] = res["failures"]
    assert failure["kind"] == "check"
    assert failure["witness"]["max_det_residual"] > failure["witness"]["tol"]
    s = run.summarize([g2], [0.1], [{**res, "traced": False}])
    assert s["correct"] and s["failed"] == 1
    assert s["end_to_end"]["pass_frac"] == 0


def test_self_times_sum_to_the_case_span():
    from weylcheb import cli, monodromy
    tracer = Tracer()
    tracer.install()
    try:
        assert monodromy.lift_path.__wrapped__ is not None
        for i, argv in enumerate([["img-verify", "A1", "2", "2"],
                                  ["chebmap", "A2", "3", "--samples", "5"]]):
            tracer.case = i
            with contextlib.redirect_stdout(io.StringIO()):
                assert tracer.span(CASE, cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert not hasattr(monodromy.lift_path, "__wrapped__")
    own = self_times(tracer.spans)
    for case in (0, 1):
        spans = [s for s in tracer.spans if s[3] == case]
        root = [s for s in spans if s[2] == CASE]
        assert len(root) == 1 and len(spans) > 10
        total = sum(own[s[0]] for s in spans)
        assert abs(total - (root[0][5] - root[0][4])) < 1e-9
        assert all(own[s[0]] >= -1e-9 for s in spans)


def test_short_pass_of_each_workload_end_to_end():
    short = {"synth": [0, 6], "verify": [0, 1, 2, 3], "img": [0, 7, 10]}
    for name, picks in short.items():
        cases = [WORKLOADS[name][i] for i in picks]
        setups, passes = run.run_passes(cases, 0, 0, 1, REFERENCE)
        assert [p["traced"] for p in passes] == [False, True]
        s = run.summarize(cases, setups, passes)
        assert s["correct"] and s["failed"] == 0
        assert s["attempted"] == 2 * len(cases)
        assert all(s["end_to_end"][m] > 0 for m, _ in run.END_TO_END)
        assert set(s["per_layer"]) == {m for m, _, _ in METRICS}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "img", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
