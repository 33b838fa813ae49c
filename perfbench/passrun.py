"""One pass over a case list in a fresh process.

Usage (by run.py): python3 passrun.py <checkout root>

Imports `weylcheb.cli` from <root>/src, prints "ready" (the parent times
process start to this line as set-up), reads a job from stdin:

    {"cases": [[argv...], ...], "order": [case index, ...], "seed": n,
     "trace": bool, "reference": {case key: sha256}, "spans_out": path or null}

runs every case through `weylcheb.cli.main` in the given order (closed
loop, one client), checks each output, and prints one JSON line with the
results, case times in list order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from cases import case_key
from tracer import CASE, Tracer, case_top_layers, layer_metrics

FLOAT_VERBS = ("verify-functional", "verify-postcritical")
WITNESS_KEYS = ("max_residual", "max_det_residual", "max_value_residual",
                "deltoid_max_residual", "tol")


def exact_part(verb: str, text: str):
    """The part of a verb's output that must match the reference byte for
    byte: polynomial components, permutations and group orders, automaton
    and root/Weyl payloads, the acted word."""
    if verb == "act":
        return text.strip()
    payload = json.loads(text)
    if verb == "chebmap":
        return {k: payload[k] for k in ("type_spec", "d", "components")}
    if verb == "img-verify":
        return {
            "case": [payload[k] for k in ("type_spec", "d", "levels")],
            "perms": [[g["name"], [lv["algebraic_perm"] for lv in g["levels"]]]
                      for g in payload["generators"]],
            "orders": [[o["level"], o["algebraic"]]
                       for o in payload["group_orders"]],
        }
    return payload  # roots, weyl, automaton: exact throughout


def digest(verb: str, text: str) -> str:
    obj = exact_part(verb, text)
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()


def check(argv, rc, text, error, reference):
    """None when the case passed, else a failure record with its witness.

    Exact verbs must exit 0 and match the reference digest.  Float-only
    verbs must report pass; their residuals are the witness and are never
    compared, so a change in summation order is not a failure.
    """
    key = case_key(argv)
    if error is not None:
        return {"case": key, "kind": "exception", "witness": error}
    try:
        if argv[0] in FLOAT_VERBS:
            payload = json.loads(text)
            if rc == 0 and payload["pass"] is True:
                return None
            witness = {k: payload[k] for k in WITNESS_KEYS if k in payload}
            return {"case": key, "kind": "check", "exit": rc,
                    "witness": witness}
        got = digest(argv[0], text)
    except (ValueError, KeyError, TypeError) as exc:
        return {"case": key, "kind": "unparsable", "exit": rc,
                "witness": repr(exc)}
    if got != reference.get(key):
        return {"case": key, "kind": "mismatch", "exit": rc,
                "witness": {"digest": got, "reference": reference.get(key)}}
    if rc != 0:
        return {"case": key, "kind": "exit", "exit": rc,
                "witness": text[-400:]}
    return None


def run_pass(cli, job) -> dict:
    seed = str(job["seed"])
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    cases = job["cases"]
    times, failures = [0.0] * len(cases), []
    json_bytes = 0
    try:
        for i in job["order"]:
            argv = cases[i]
            full = [*argv, "--seed", seed]
            out, err = io.StringIO(), io.StringIO()
            rc = error = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    if tracer:
                        tracer.case = i
                        rc = tracer.span(CASE, cli.main, full)
                    else:
                        rc = cli.main(full)
            except SystemExit as exc:  # argparse rejected the arguments
                error = f"SystemExit({exc.code}): {err.getvalue()[-400:]}"
            except Exception:  # recorded as a failed case, the pass goes on
                error = traceback.format_exc(limit=4)
            times[i] = time.perf_counter() - t0
            text = out.getvalue()
            json_bytes += len(text.encode())
            failure = check(argv, rc, text, error, job["reference"])
            if failure:
                failures.append(failure)
    finally:
        if tracer:
            tracer.uninstall()
    result = {
        "times": times,
        "failures": failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer.spans, json_bytes)
        result["top"] = {case_key(job["cases"][c]): top for c, top
                         in case_top_layers(tracer.spans).items()}
        if job.get("spans_out"):
            with open(job["spans_out"], "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")
    return result


def main() -> int:
    src = (Path(sys.argv[1]) / "src").resolve()
    from weylcheb import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"weylcheb imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    print("ready", flush=True)
    job = json.loads(sys.stdin.read())
    result = run_pass(cli, job)
    import mpmath
    import numpy
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "mpmath": mpmath.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
