"""Slow, direct forms of facts the program computes another way, and
helpers that only the tests use, kept as test oracles: an orbit's rows
sliced from the stacked table, the positive roots by the signs of their
coefficients, the generalized cosine as a stabilizer-normalized sum over the
whole Weyl group, exact polynomial composition, the order of an affine
element by repeated products, loop concatenation and the rank-one standard
loops, the automaton JSON read back, and a tree word from a lattice
vector."""

from __future__ import annotations

import json

import numpy as np

from weylcheb.chebmap import PolynomialMap
from weylcheb.errors import DimensionError
from weylcheb.gencos import TWO_PI_I, PathSample
from weylcheb.monodromy import DEFAULT_LOOP_SAMPLES, Loop
from weylcheb.rootsys import (AffineElement, RootSystem, WeylElement,
                              affine_compose, fundamental_orbit_table,
                              weyl_group_elements)
from weylcheb.selfsim import Automaton, TreeWord


def orbit_matrix(rs: RootSystem, k: int) -> np.ndarray:
    """Integer matrix whose rows are the orbit of the k-th fundamental
    weight: a read-only slice of fundamental_orbit_table."""
    rows, starts = fundamental_orbit_table(rs)
    end = starts[k + 1] if k + 1 < rs.rank else len(rows)
    return rows[starts[k]:end]


def positive_roots(rs: RootSystem):
    """Roots whose simple-coroot coefficients are nonnegative: v^vee is a
    positive multiple of v, and each simple coroot of its simple root, so
    the signs are those of the simple-root coefficients."""
    return tuple(v for v in rs.roots if min(v.coroot_coords) >= 0)


def eval_gencos_fullsum(rs: RootSystem, x) -> np.ndarray:
    """Stabilizer-normalized full-Weyl-group sum; must agree with
    eval_gencos (cross-check of the two equivalent formulas)."""
    x = np.asarray(x, dtype=complex)
    elements = weyl_group_elements(rs)
    out = np.empty(rs.rank, dtype=complex)
    for k in range(rs.rank):
        wk = rs.fundamental_weight(k)
        images = np.array([w.apply_weight(wk) for w in elements], dtype=np.int64)
        total = np.exp(TWO_PI_I * (images @ x)).sum()
        stab = len(elements) // len(orbit_matrix(rs, k))
        out[k] = total / stab
    return out


def poly_mul(a: dict, b: dict, n: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def compose_poly_maps(p: PolynomialMap, q: PolynomialMap,
                      term_cap: int = 500000) -> PolynomialMap:
    """Exact polynomial composition p(q(X))."""
    if p.rank != q.rank:
        raise DimensionError("rank mismatch in composition")
    n = p.rank
    one = {tuple([0] * n): 1}
    pow_cache = [{0: dict(one)} for _ in range(n)]

    def q_power(j, k):
        cache = pow_cache[j]
        if k not in cache:
            cache[k] = poly_mul(q_power(j, k - 1), q.components[j], n)
        return cache[k]

    comps = []
    for comp in p.components:
        acc: dict = {}
        for e, c in comp.items():
            term = {tuple([0] * n): c}
            for j, ej in enumerate(e):
                if ej:
                    term = poly_mul(term, q_power(j, ej), n)
            for key, val in term.items():
                acc[key] = acc.get(key, 0) + val
            if len(acc) > term_cap:
                raise RuntimeError("composition exceeded term cap")
        comps.append({e: c for e, c in acc.items() if c != 0})
    return PolynomialMap(n, tuple(comps))


def affine_element_order(g: AffineElement, cap: int = 64):
    """Exact order of an affine Weyl element, or None when infinite."""
    acc = g
    for k in range(1, cap + 1):
        if acc.w.is_identity():
            return k if all(c == 0 for c in acc.t) else None
        acc = affine_compose(acc, g)
    return None  # pragma: no cover - Weyl parts have small order


def concat_loops(l1: Loop, l2: Loop) -> Loop:
    """The loop "first l1, then l2" (deck elements multiply left to right)."""
    if np.abs(l1.samples.points[0] - l2.samples.points[0]).max() > 1e-9:
        raise ValueError("loops are based at different points")
    t1 = l1.samples.times * 0.5
    t2 = 0.5 + l2.samples.times * 0.5
    times = np.concatenate([t1, t2[1:]])
    points = np.concatenate([l1.samples.points, l2.samples.points[1:]])
    label = None
    if l1.label is not None and l2.label is not None:
        label = affine_compose(l1.label, l2.label)
    return Loop(PathSample(times, points), label=label)


def a1_standard_loops(d: int, num_samples: int = DEFAULT_LOOP_SAMPLES):
    """The two standard generating loops of the rank-one target space
    punctured at -2 and +2, based at 0:  +-2(1 - e^{2 pi i s}).

    They are based at 0 rather than at the image of the canonical basepoint;
    lifting starts from the alcove-interior preimage 1/4 of 0, and the real
    connecting segment from the canonical basepoint conjugates the actions
    without changing any deck element, so no extra bookkeeping is needed.
    """
    ts = np.linspace(0.0, 1.0, num_samples)
    circle = 1 - np.exp(2j * np.pi * ts)
    plus = Loop(PathSample(ts, (2 * circle)[:, None]))
    minus = Loop(PathSample(ts, (-2 * circle)[:, None]))
    return plus, minus


A1_LOOP_BASEPOINT = 0.25  # the alcove-interior preimage of 0


def import_automaton(text: str) -> Automaton:
    """Rebuild an Automaton from its JSON export."""
    payload = json.loads(text)
    states = []
    for s in payload["states"]:
        w = WeylElement(tuple(tuple(r) for r in s["w_matrix"]),
                        tuple(tuple(r) for r in s["w_coroot"]))
        states.append(AffineElement(tuple(s["t"]), w))
    transitions = {}
    for si, letter, img, ci in payload["transitions"]:
        transitions[(si, tuple(letter))] = (tuple(img), ci)
    return Automaton(payload["d"], payload["n"], states, transitions,
                     list(payload["generators"]))


def tree_word_from_vector(u, length: int, d: int) -> TreeWord:
    """The depth-`length` word of the lattice vector u mod d^length, least
    significant letter first."""
    u = list(u)
    letters = []
    for _ in range(length):
        letters.append(tuple(c % d for c in u))
        u = [c // d for c in u]
    return TreeWord(tuple(letters), d, len(letters[0]) if letters else len(u))
