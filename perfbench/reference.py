"""Record the exact-output reference of every exact case.

    PYTHONPATH=src python3 perfbench/reference.py --seeds 0 1 2

runs each case whose output is exact (all but the float-only verify-*
verbs) once per seed through `weylcheb.cli.main`, requires the exact part
to be the same at every seed, and writes its sha256 to reference.json.  The
committed file was recorded from the unmodified program; re-record it only
when an output format changes on purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path

from cases import WORKLOADS, case_key
from passrun import FLOAT_VERBS, digest

REFERENCE = Path(__file__).with_name("reference.json")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args()
    from weylcheb import cli
    digests = {}
    for cases in WORKLOADS.values():
        for argv in cases:
            if argv[0] in FLOAT_VERBS:
                continue
            seen = set()
            for seed in args.seeds:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main([*argv, "--seed", str(seed)])
                if rc != 0:
                    raise SystemExit(f"{case_key(argv)} exited {rc}")
                seen.add(digest(argv[0], out.getvalue()))
            if len(seen) != 1:
                raise SystemExit(f"{case_key(argv)}: exact part depends on "
                                 f"the seed")
            digests[case_key(argv)] = seen.pop()
            print(case_key(argv), digests[case_key(argv)][:12])
    REFERENCE.write_text(json.dumps(
        {"seeds": args.seeds, "digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
