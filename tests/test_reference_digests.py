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
        "47536c0c67e1e843ca070d8e5a27035ffe6bc9ae5834cb876695906af1b40925",
    "verify-postcritical A1 2":
        "716032e653ef506ab3d205b871508d58ab97443421491cfeb6bf8235edae2278",
    "verify-functional A1 3":
        "6aadc6fffc727a3d61da95267735bd7edc3eef724e0c7d044d39c1644a9dbed1",
    "verify-postcritical A1 3":
        "b1748433890c7122e79186f844725158d3a45b0731a6f2ef9b071b9760da32e1",
    "verify-functional A2 2":
        "1089f8284f5ef14dc61835f9182b65375c27ecf8f374cbcbe6efd61a4012e103",
    "verify-postcritical A2 2":
        "0ee9a50cffd1343145609b8d3667d5c9393a10e8b85ce0f21f21062b8c05fe4b",
    "verify-functional A2 3":
        "97405f246bb78892e97d088758de39fbe3b1f094428f368df8adaf827e745e98",
    "verify-postcritical A2 3":
        "f43cd17169b14541cee95a4bf85c8b47baa5b51ffacb4aec116827ea4dd5bdc8",
    "verify-functional B2 2":
        "82a151e9504e5a57b89c48d2a34dee89a54fc87486efcebc0553a4255b9cecbf",
    "verify-postcritical B2 2":
        "b2679fbe60ea4870e24d35d65384cc1e70e9409d266da58f53dcc3e5e56e9654",
    "verify-functional B2 3":
        "1be031cf2745fdd3466ecb6f1d1191933685148537b79c7b567c547219f55b59",
    "verify-postcritical B2 3":
        "16cb369a5689e84b24d3e930faac80da209492b4fa6366737ca639a267f29691",
    "verify-functional G2 2":
        "2b91ecd9501fb73474639498b4869c5b5951b0fbce659734c853260f5e30c6a1",
    "verify-postcritical G2 2":
        "70d9ed94178848b270ff176fcb04fbbbeef4eea3485b37a2812182fed4fd20e2",
    "verify-functional G2 3":
        "03ce816dc81f4941789357243b21f9202fcc651f5f55621ef2f639568fd9cd3b",
    "verify-postcritical G2 3":
        "123e4522721dd8996f812075f1b7c79a53a80c917aa18afa4d20490e4a951ef5",
    "verify-functional A3 2":
        "ecc6908c3423213ccfd34a5c003da78deb3a09d83f693bd3f73d1db4200b196f",
    "verify-postcritical A3 2":
        "2792bdf9e109f6a7ef677f3d71f9effa5b9295e23ca8e7baacceafdce8fc6c3b",
    "verify-functional A3 3":
        "4ae3e2b98dc721c317f5f368bf433ec0f56b0db8c598bf7557e94121fe43995f",
    "verify-postcritical A3 3":
        "a3b0b5157f71786c3eaff983688413ecb95e81150080fb4d10ff4556dcfcaf9e",
    "verify-functional A1xA1 2":
        "7c0886bdf03d93787f7b7b28d2a715d8c93af9665ddf997e11290af47dec7a1d",
    "verify-postcritical A1xA1 2":
        "03bcef846dc953e4e4cbff1e5d31e7ea5ae211ee556f921024ce7953f46dc28b",
    "verify-functional A1xA1 3":
        "2cbbcd68e796a9a3afbce9b17daded45cc7039178d173a74b17f26452388c3d8",
    "verify-postcritical A1xA1 3":
        "6d2f658f28f921fe6790241692a21513dea1278e0aeba19d8dd1c4b067a5b0f1",
    "verify-functional B3 2":
        "0c22b85aae944de7d63739d3c1dc3ce12e48bd55cb533268ca5d29d4e9610631",
    "verify-postcritical B3 2":
        "736183915d2fe164b3cffb3916aa7bf61602aa2e5adabd19fd8cc080e56d4835",
    "verify-functional F4 2":
        "f3fc98f3f949a23d265158fa40e65eb0e0092219baaf79845dd9ec4ad606f473",
    "verify-postcritical F4 2":
        "9d9c37a1caf43104ce1d75e08c405473d44e60ed16b3cf2a90f3638bf3620094",
    "verify-functional G2 6":
        "8785548af06aa50249e19094f9fba0289bf4855189c54beeb9c000800f72fb5e",
    "verify-postcritical G2 6":
        "1fc67e933f994ccc8c09c329fd3ec26ab574321f9b2e46021e3ccf6c96734e2c",
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
