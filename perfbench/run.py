"""Benchmark of the weylcheb CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload synth --seed 0 --seconds 45 --trace 0

Run from anywhere; the program is imported from the checkout's src/.  A run
measures set-up (process start to `weylcheb.cli` ready) in several fresh
processes, then makes closed-loop passes over the workload's case list, each
pass in a fresh process and in its own order drawn from the seed and the pass
number, until the next pass would end after --seconds (at least one pass;
with --trace 1 at least one untraced and one traced pass, alternating).  It
prints every metric by name and unit, the witness of every failed case, and
as its last line one JSON object with the results.  Details go to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cases import KNOWN_FAILURES, WHY, WORKLOADS
from tracer import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS_PER_PASS = 2     # extra set-up-only processes before each pass
CHILD_TIMEOUT_S = 150   # a pass that takes longer is a broken program

END_TO_END = [("wall_s", "s"), ("case_geomean_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("pass_frac", "ratio")]


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # the warm-up process writes bytecode caches, as an installed CLI has them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # one process, no extra threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(job, env):
    """Run one pass process; returns (set-up seconds, pass result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py"), str(ROOT)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass process exceeded {CHILD_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"pass process failed (exit {proc.returncode}): "
                         f"{ready}{err[-2000:]}")
    return setup, json.loads(out.splitlines()[-1])


def run_passes(cases, seed, seconds, trace, reference, spans_out=None):
    """Set-up samples and passes for one run; see the module docstring."""
    env = child_env()
    empty = {"cases": [], "order": [], "seed": seed, "trace": False,
             "reference": {}}
    run_child(empty, env)  # warm-up: writes bytecode caches, untimed
    start = time.perf_counter()
    setups, passes = [], []
    longest = 0.0
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        # A fresh order per pass spreads each case's samples over the run,
        # so the short cases do not all meet the same moment of a shared
        # host's load; times come back in list order.
        order = list(range(len(cases)))
        random.Random(f"{seed}:{len(passes)}").shuffle(order)
        job = {"cases": cases, "order": order, "seed": seed,
               "trace": traced, "reference": reference,
               "spans_out": spans_out}
        t0 = time.perf_counter()
        # set-up samples spread over the run, like the passes
        setups += [run_child(empty, env)[0] for _ in range(SETUPS_PER_PASS)]
        setup, result = run_child(job, env)
        longest = max(longest, time.perf_counter() - t0)
        setups.append(setup)
        result["traced"] = traced
        passes.append(result)
        need_both = trace and len(passes) < 2
        if not need_both and (time.perf_counter() - start + longest
                              > seconds):
            break
    return setups, passes


def percentile_note(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100)[p - 1]


def summarize(cases, setups, passes):
    plain = [p for p in passes if not p["traced"]]
    walls = [sum(p["times"]) for p in plain]
    # Means over passes, not medians: the host's speed switches between a
    # fast and a slow state that last seconds, and over a run's three to six
    # passes a median jumps from one state to the other while the mean
    # follows the share of time spent in each (README, run-to-run spread).
    per_case = [statistics.fmean(p["times"][i] for p in plain)
                for i in range(len(cases))]
    attempted = len(cases) * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    failed_cases = {}
    for f in failures:
        failed_cases.setdefault(f["case"], {**f, "passes": 0})["passes"] += 1
    # only the known check failures may fail without making the run incorrect
    correct = all(f["case"] in KNOWN_FAILURES and f["kind"] == "check"
                  for f in failures)
    e2e = {
        "wall_s": statistics.fmean(walls),
        "case_geomean_s": statistics.geometric_mean(per_case),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        "pass_frac": 1 - len(failures) / attempted,
    }
    traced = [p for p in passes if p["traced"]]
    layers = {}
    if traced:
        for name, _, _ in METRICS[:-1]:
            layers[name] = statistics.median(p["layers"][name] for p in traced)
        traced_wall = statistics.fmean(sum(p["times"]) for p in traced)
        layers["trace_overhead_frac"] = (traced_wall - e2e["wall_s"]) \
            / e2e["wall_s"]
    return {"walls": walls, "per_case": per_case, "attempted": attempted,
            "failed": len(failures), "failed_cases": failed_cases,
            "correct": correct, "end_to_end": e2e, "per_layer": layers}


def machine_info(versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="weylcheb CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "weylcheb" / "cli.py").is_file():
        print(f"error: no weylcheb sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())["digests"]
    cases = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = str(OUT / f"{tag}-spans.jsonl") if args.trace else None
    try:
        setups, passes = run_passes(cases, args.seed, args.seconds,
                                    args.trace, reference, spans_out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    s = summarize(cases, setups, passes)
    e2e, layers = s["end_to_end"], s["per_layer"]

    print(f"workload {args.workload} (seed {args.seed}): "
          f"{WHY[args.workload]}")
    print(f"{len(passes)} passes ({len(s['walls'])} untraced) over "
          f"{len(cases)} cases, {len(setups)} set-up samples")
    for name, unit in END_TO_END:
        print(f"{name} {e2e[name]:.6g} {unit}")
    print(f"wall_s median {statistics.median(s['walls']):.6g} s "
          f"over {len(s['walls'])} passes")
    pct = percentile_note(s["walls"])
    if pct:
        print(f"wall_s p{pct[0]} {pct[1]:.6g} s")
    fail_frac = s["failed"] / s["attempted"]
    print(f"fail_frac {fail_frac:.6g} ratio "
          f"({s['failed']} of {s['attempted']} attempted)")
    for key, f in s["failed_cases"].items():
        known = "known" if key in KNOWN_FAILURES else "NEW"
        print(f"FAILED ({known}, {f['kind']}) {key} in {f['passes']} of "
              f"{len(passes)} passes: {json.dumps(f['witness'])}")
    for name, unit, _ in METRICS:
        if name in layers:
            print(f"{name} {layers[name]:.6g} {unit}")

    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_info(passes[-1]["versions"]),
        "cases": [" ".join(c) for c in cases],
        "setup_samples": setups, "pass_walls": s["walls"],
        "case_mean_s": s["per_case"],
        "passes": [{k: p[k] for k in ("traced", "times", "rss_mb")}
                   for p in passes],
        "failed_cases": s["failed_cases"], "fail_frac": fail_frac,
        "end_to_end": e2e, "per_layer": layers,
        "top_layers_per_case": next(
            (p["top"] for p in passes if p["traced"]), None),
    }
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
