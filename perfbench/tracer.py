"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each function in LAYERS by a wrapper that records
a span (id, parent id, name, case id, start, end, extra), in the module that
defines it and in every `weylcheb` module that bound it by name.  Spans stay
in memory; `layer_metrics` reduces them to per-layer counts and self times.
The per-element helpers (`is_dominant`, `dot`, `mat_mul`) are deliberately
left unwrapped: they run hundreds of thousands of times per case.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

CASE = "case"


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _margin(tol, residual):
    """Decades between a tolerance and a residual: negative when failing."""
    return math.log10(tol / max(residual, 1e-300))


# Extra facts read from a call's arguments and result.
def _decompose(fn, args, kwargs, result):
    return {"terms": len(result)}


def _functional(fn, args, kwargs, result):
    return {"margin": _margin(result.tol, result.max_residual)}


def _post_critical(fn, args, kwargs, result):
    tol = _bound(fn, args, kwargs)["tol"]
    return {"samples": len(result.det_residuals), "skipped": result.skipped,
            "margin": _margin(tol, result.max_det_residual)}


def _lift(fn, args, kwargs, result):
    return {"steps": len(result.times) - 1}


def _group_order(fn, args, kwargs, result):
    return {"elements": result}


def _states(fn, args, kwargs, result):
    return {"states": len(result.states)}


# (defining module, function name, per-layer metrics, hook for extra facts)
LAYERS = [
    ("rootsys", "build_root_system", ("calls", "self_s"), None),
    ("rootsys", "orbit", ("calls", "self_s"), None),
    ("rootsys", "weyl_group_elements", ("calls", "self_s"), None),
    ("chebmap", "orbit_sum_product", ("calls", "self_s"), None),
    ("chebmap", "monomial_expand", ("calls", "hit_ratio"), None),
    ("chebmap", "decompose_to_polynomial", ("self_s", "terms"), _decompose),
    ("chebmap", "verify_functional_equation",
     ("calls", "self_s", "margin_decades"), _functional),
    ("chebmap", "eval_poly", ("calls", "self_s"), None),
    ("critical", "post_critical_check",
     ("calls", "self_s", "draw_yield", "det_margin_decades"), _post_critical),
    ("critical", "sample_diagram_points", ("self_s",), None),
    ("critical", "deltoid_check", ("self_s",), None),
    ("gencos", "is_on_diagram", ("calls", "self_s"), None),
    ("gencos", "eval_gencos", ("calls", "self_s"), None),
    ("gencos", "gencos_jacobian", ("calls", "self_s"), None),
    ("gencos", "lift_path", ("calls", "self_s", "steps", "step_yield"), _lift),
    ("gencos", "deck_identify", ("calls", "self_s"), None),
    ("monodromy", "make_generator_loop", ("calls", "self_s"), None),
    ("monodromy", "numeric_monodromy", ("calls", "self_s"), None),
    ("monodromy", "algebraic_action", ("calls", "self_s"), None),
    ("monodromy", "generated_group_order", ("calls", "self_s", "elements"),
     _group_order),
    ("selfsim", "reachable_states", ("calls", "self_s", "states"), _states),
    ("selfsim", "export_automaton", ("self_s",), None),
    ("cli", "main", ("self_s",), None),
]

# unit and direction of each metric suffix
_KINDS = {
    "calls": ("count", "lower"), "self_s": ("s", "lower"),
    "hit_ratio": ("ratio", "higher"), "terms": ("count", "lower"),
    "margin_decades": ("decades", "higher"),
    "det_margin_decades": ("decades", "higher"),
    "draw_yield": ("ratio", "higher"), "steps": ("count", "lower"),
    "step_yield": ("ratio", "higher"), "elements": ("count", "lower"),
    "states": ("count", "lower"),
}

# Per-layer metrics as (name, unit, better), in BENCHMARK.json order.
# Metrics of functions a workload never calls read 0.
METRICS = [(f"{mod}.{fn}.{m}", *_KINDS[m])
           for mod, fn, ms, _ in LAYERS for m in ms]
METRICS += [("cli.json_bytes", "bytes", "lower"),
            ("trace_overhead_frac", "ratio", "lower")]


class Tracer:
    """Records spans for the functions in LAYERS while installed."""

    def __init__(self):
        self.spans = []   # (id, parent, name, case, start, end, extra)
        self._stack = [-1]
        self._next = 0
        self._undo = []
        self.case = -1

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            extra = hook(fn, args, kwargs, result) if hook else None
            spans.append((sid, parent, name, self.case, t0, t1, extra))
            return result

        return wrapper

    def span(self, name, fn, *args):
        """Run fn(*args) as one span that is not a wrapped layer (the case)."""
        return self._wrap(name, fn, None)(*args)

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == "weylcheb" or n.startswith("weylcheb.")]
        for mod_name, fn_name, _, hook in LAYERS:
            home = importlib.import_module(f"weylcheb.{mod_name}")
            orig = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, hook)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    child = {}
    for sid, parent, _, _, t0, t1, _ in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return {s[0]: (s[5] - s[4]) - child.get(s[0], 0.0) for s in spans}


def layer_metrics(spans, json_bytes):
    """Per-layer metrics of one traced pass (every name in METRICS except
    trace_overhead_frac, which needs an untraced pass)."""
    own = self_times(spans)
    name_of = {s[0]: s[2] for s in spans}
    parent_of = {s[0]: s[1] for s in spans}
    has_child = set(parent_of.values())
    calls, self_s = {}, {}
    extra = {}
    lift_evals = hits = 0
    for sid, parent, name, _, _, _, ex in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[sid]
        if ex:
            acc = extra.setdefault(name, {})
            for k, v in ex.items():
                if k == "margin":
                    acc[k] = min(acc.get(k, v), v)
                else:
                    acc[k] = acc.get(k, 0) + v
        if name == "chebmap.monomial_expand" and sid not in has_child:
            # returned without orbit-sum work: a memo hit (or the unit)
            hits += 1
        if name == "gencos.eval_gencos":
            p = parent
            while p != -1 and name_of.get(p) != "gencos.lift_path":
                p = parent_of.get(p, -1)
            lift_evals += p != -1

    def ex(fn, key):
        return extra.get(fn, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, _, _ in METRICS:
        fn, _, metric = name.rpartition(".")
        if metric == "calls":
            out[name] = calls.get(fn, 0)
        elif metric == "self_s":
            out[name] = self_s.get(fn, 0.0)
    out["chebmap.monomial_expand.hit_ratio"] = ratio(
        hits, calls.get("chebmap.monomial_expand", 0))
    out["chebmap.decompose_to_polynomial.terms"] = ex(
        "chebmap.decompose_to_polynomial", "terms")
    out["chebmap.verify_functional_equation.margin_decades"] = ex(
        "chebmap.verify_functional_equation", "margin")
    pc = "critical.post_critical_check"
    out[pc + ".draw_yield"] = ratio(
        ex(pc, "samples"), ex(pc, "samples") + ex(pc, "skipped"))
    out[pc + ".det_margin_decades"] = ex(pc, "margin")
    steps = ex("gencos.lift_path", "steps")
    out["gencos.lift_path.steps"] = steps
    out["gencos.lift_path.step_yield"] = ratio(steps, lift_evals)
    out["monodromy.generated_group_order.elements"] = ex(
        "monodromy.generated_group_order", "elements")
    out["selfsim.reachable_states.states"] = ex(
        "selfsim.reachable_states", "states")
    out["cli.json_bytes"] = json_bytes
    return out


def case_top_layers(spans, k=3):
    """For each case id, its k largest self times: {case: [(name, s), ...]}."""
    own = self_times(spans)
    per = {}
    for sid, _, name, case, _, _, _ in spans:
        if name == CASE:
            continue
        d = per.setdefault(case, {})
        d[name] = d.get(name, 0.0) + own[sid]
    return {c: sorted(d.items(), key=lambda kv: -kv[1])[:k]
            for c, d in per.items()}
