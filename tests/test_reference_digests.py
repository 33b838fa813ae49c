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
# residuals, `skipped` and the witness.  Recorded before the float A2
# deltoid check left verify-postcritical, with its two keys removed.
VERIFY_DIGESTS = {
    "verify-functional A1 2":
        "47536c0c67e1e843ca070d8e5a27035ffe6bc9ae5834cb876695906af1b40925",
    "verify-postcritical A1 2":
        "602d2f57d2f638f62eda870e1a936e6e82d68d7bcb6231715947e20469d424a2",
    "verify-functional A1 3":
        "6aadc6fffc727a3d61da95267735bd7edc3eef724e0c7d044d39c1644a9dbed1",
    "verify-postcritical A1 3":
        "4104f2bead596c0ec1db4cc2c91bedd5b43cd5fdda1bbd4bd9058815002b6cb6",
    "verify-functional A2 2":
        "1089f8284f5ef14dc61835f9182b65375c27ecf8f374cbcbe6efd61a4012e103",
    "verify-postcritical A2 2":
        "c2d6d26febcb7e0286aecdb435dec501a51ab6c1e76fce6096ae3a119a7530dd",
    "verify-functional A2 3":
        "97405f246bb78892e97d088758de39fbe3b1f094428f368df8adaf827e745e98",
    "verify-postcritical A2 3":
        "87278afb052d25874242e3c3329423f2b96a6ed104ccf575fe95ec2dea805561",
    "verify-functional B2 2":
        "82a151e9504e5a57b89c48d2a34dee89a54fc87486efcebc0553a4255b9cecbf",
    "verify-postcritical B2 2":
        "a2793632a4461226bb02c77c4200991ac0e57a649c0fd6291e3d3dc37c399c5a",
    "verify-functional B2 3":
        "1be031cf2745fdd3466ecb6f1d1191933685148537b79c7b567c547219f55b59",
    "verify-postcritical B2 3":
        "e989991d5a9a28574cb1cbb2472801a1015419a18b6073a6c62923bb0ddd65e7",
    "verify-functional G2 2":
        "2b91ecd9501fb73474639498b4869c5b5951b0fbce659734c853260f5e30c6a1",
    "verify-postcritical G2 2":
        "ea7ad958383ba2dca9962a3f526a5e3a790a2e653e22bf5bc63a7f64443a5e7f",
    "verify-functional G2 3":
        "03ce816dc81f4941789357243b21f9202fcc651f5f55621ef2f639568fd9cd3b",
    "verify-postcritical G2 3":
        "878285664c34c9f2ca856f6f301dab5548eb2c162726b135a94e8471c8f932ad",
    "verify-functional A3 2":
        "ecc6908c3423213ccfd34a5c003da78deb3a09d83f693bd3f73d1db4200b196f",
    "verify-postcritical A3 2":
        "5f27eacd0a71537454410c2430c0fd3763f65edb05f4c2ffe3e3aa6a8cadd413",
    "verify-functional A3 3":
        "4ae3e2b98dc721c317f5f368bf433ec0f56b0db8c598bf7557e94121fe43995f",
    "verify-postcritical A3 3":
        "3fc56ac08eed1a5e31f4e515d1a0ddfbfe27c8e11fbb22f5fc70ca4a27466e64",
    "verify-functional A1xA1 2":
        "7c0886bdf03d93787f7b7b28d2a715d8c93af9665ddf997e11290af47dec7a1d",
    "verify-postcritical A1xA1 2":
        "046f4fbd9d8827c0d6662f900e3525296f18c03804ccd033f692a1403c7c7ed0",
    "verify-functional A1xA1 3":
        "2cbbcd68e796a9a3afbce9b17daded45cc7039178d173a74b17f26452388c3d8",
    "verify-postcritical A1xA1 3":
        "9d34cbf53c8424fffd232cae7e894d4e35bc2f5d748560bb56d7d217954e9729",
    "verify-functional B3 2":
        "0c22b85aae944de7d63739d3c1dc3ce12e48bd55cb533268ca5d29d4e9610631",
    "verify-postcritical B3 2":
        "e86e6526bb0d7ba263b6be8050d4bdaa0ebd2056c0f751feeb37dc8012097401",
    "verify-functional F4 2":
        "f3fc98f3f949a23d265158fa40e65eb0e0092219baaf79845dd9ec4ad606f473",
    "verify-postcritical F4 2":
        "eae0aa60518b5959d67353e61f45595e6b19c0a275594339ba145d2396e7d895",
    "verify-functional G2 6":
        "8785548af06aa50249e19094f9fba0289bf4855189c54beeb9c000800f72fb5e",
    "verify-postcritical G2 6":
        "a3bbc33e51fbf7011f7e42ecfe6e5cbd532422be4753c07c8367c539c88e01a3",
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
