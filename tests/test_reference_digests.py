"""Every exact case of the benchmark, run through `cli.main` at seed 0, gives
the output digest recorded in `perfbench/reference.json`, so a change to an
exact output (a permutation, a group order, a map, an automaton) fails here
and not only in a benchmark run.  Every case of the `verify` workload (the
verbs the benchmark calls float-only) passes its check at seed 0, and its
whole JSON output, exact since both checks run modulo a prime, has the
SHA-256 pinned in VERIFY_DIGESTS.  The benchmark's files are only read."""

import contextlib
import hashlib
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

# SHA-256 of each `verify` case's output at seed 0: the prime, the integer
# residuals, `skipped` and the witness.
VERIFY_DIGESTS = {
    "verify-functional A1 2":
        "a5726127672bb73d6348152fbb22b9774f6846ed873bb8aa04772a9de159a4ad",
    "verify-postcritical A1 2":
        "67d7902ec4b68b91e1603e6b5de82cb38eac5f353641aec8973817e6c1e8e442",
    "verify-functional A1 3":
        "2f835c4e4828a1f27d80e4fecb1b344168b1b1c556987aaaf58902035f309832",
    "verify-postcritical A1 3":
        "e1871332ab77c5e5b1f2521cfedc3924d58d65221db400b3169ef4efcf2ffafa",
    "verify-functional A2 2":
        "c00d40547ce41a9b02dc8499294c89010c5c3ee90ebb756b4fd04121f1c5056a",
    "verify-postcritical A2 2":
        "39d1f6bb89031c016cf5678c2802f058d0037bd6a339bebeb2c469e21eab9a14",
    "verify-functional A2 3":
        "7742f64627c6f6b893db59a198305e8964fc2de3de9e5352d873191a1f946db1",
    "verify-postcritical A2 3":
        "188a8060680f0e032d126431e0615e2abd05d02220590a6c439156bd62f711d6",
    "verify-functional B2 2":
        "62e8cd3aa1dad14ded2e9d206ae8059940be1fde87f1e6db305b3087491be628",
    "verify-postcritical B2 2":
        "0a97cabf84fed730a497b51fb049084e71c28ae08a49aa4f9ea91b0ce5b260a3",
    "verify-functional B2 3":
        "2a74750aff1d63ecd1a608eac25a17a1bb2609b644534c4a02438abe90af0235",
    "verify-postcritical B2 3":
        "8288cde6ff70705bca3f2b5f045abd3b16fcd9c7bc382f5f6b0dc4274cd6361c",
    "verify-functional G2 2":
        "c87834d6e414f1ee801ec519cff7c6c05c9235179e97711e3ac554f932b766ed",
    "verify-postcritical G2 2":
        "68e306101701df346b98afbf65c8aedfd19cf6f68cfd59ecd2a2bea48f968305",
    "verify-functional G2 3":
        "87f44aa61c28b7ed9b711da23a1432bc36379f07913c183792426131de543781",
    "verify-postcritical G2 3":
        "f048b95fdd779667b6923b4205ffa7074e5d3c3b3c33192b0181b248e068f729",
    "verify-functional A3 2":
        "353bbee4054c507c57d48b2fe142ee7d605c6aedd73f46429647da33b7beb560",
    "verify-postcritical A3 2":
        "6fba859336f05152441c208b78c502a8cabc1881a816165c56c0b709c04bfed1",
    "verify-functional A3 3":
        "ab58cab596d78a31c1897c97f49fa624bc0dfa7af495062ea7db0af404c30719",
    "verify-postcritical A3 3":
        "3a4da864495e338a04c2e25d8cf05a988b37c725bdfe1169943683555dec1b4e",
    "verify-functional A1xA1 2":
        "a8985204d8660f1a4806d20081fc9d04f91d6779370d5025fc3250d1ff765d82",
    "verify-postcritical A1xA1 2":
        "cb02a08fc9811543b3b936a807948489403a86e5aa271663b78e087951b1eae7",
    "verify-functional A1xA1 3":
        "34050eb4144490f8be093a9eda6241801745d3d2e4730f18fd9d603c68b0104e",
    "verify-postcritical A1xA1 3":
        "e83474e49d5af0533db1187b2168bb5739bd9cec58862582e968ce170978950c",
    "verify-functional B3 2":
        "76a486789e6063d9d40573f7bbbba40bcbec29bcaea9ac1bba678484fb0294a3",
    "verify-postcritical B3 2":
        "36beafe6eef4fca5f341b30e26d3ae2da2b48ee677a30c7b8c47019e612181d3",
    "verify-functional F4 2":
        "4c350da5ba5098f3ad72ed1be00b4202c4e58a97cf8218b44f36ebe66ca64af9",
    "verify-postcritical F4 2":
        "4a4889936cf06d126ea111ce25cea40c0defaea40dcdea457e8058859aa2f770",
    "verify-functional G2 6":
        "0c2a09085ffbe65bff5723082184bf40b5480086b0a79fd84b157edd72f85a3e",
    "verify-postcritical G2 6":
        "4f36ace8f812b639d8c43bc93d2a74e2a267315b822185bb781f715f614a6b47",
}


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


@pytest.mark.parametrize("argv", WORKLOADS["verify"], ids=case_key)
def test_verify_output_matches_pinned_digest(argv):
    text = _run(argv)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        VERIFY_DIGESTS[case_key(argv)]


def test_verify_digests_hold_in_any_order_and_on_repeat():
    # root systems and the parser are shared by every call in a process:
    # run the whole grid in reverse, then again, and every output must
    # still be the pinned one, so no state a call leaves behind shows
    for _ in range(2):
        for argv in reversed(WORKLOADS["verify"]):
            text = _run(argv)
            assert hashlib.sha256(text.encode()).hexdigest() == \
                VERIFY_DIGESTS[case_key(argv)], case_key(argv)
