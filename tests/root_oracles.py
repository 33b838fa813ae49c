"""Slow, direct forms of facts the program computes another way, and
helpers that only the tests use, kept as test oracles: an orbit's rows
sliced from the stacked table, the positive roots by the signs of their
coefficients, the generalized cosine as a stabilizer-normalized sum over the
whole Weyl group, exact polynomial composition, the order of an affine
element by repeated products, a generating path's loop and the wall ratio
of its first step, loop concatenation and the rank-one standard loops, the automaton closure
one letter at a time, the automaton JSON read back, a tree word from a
lattice vector, and back."""

from __future__ import annotations

import itertools
import json
from collections import deque

import numpy as np

from weylcheb.chebmap import PolynomialMap
from weylcheb.errors import DimensionError
from weylcheb.gencos import TWO_PI_I, eval_gencos
from weylcheb.monodromy import wreath_digit_step
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


def loop_of(rs: RootSystem, path):
    """The loop t |-> gencos(path(t)) of a generating path, such as
    make_generator_loop's: the function lift_path takes."""
    return lambda t: eval_gencos(rs, path(t))


def first_step_wall_ratios(rs: RootSystem, paths, h: float) -> np.ndarray:
    """Each generating path's ratio of its move from t = 0 to t = h toward
    a wall to its distance from that wall at h, the largest over the
    positive roots: the path is its loop's lift, so this is the ratio the
    lift's step rule sees on a first step of h."""
    roots = np.array([v.weight_coords for v in positive_roots(rs)])
    out = []
    for path in paths:
        p = roots @ path(h)
        move = np.abs(roots @ (path(h) - path(0.0)))
        out.append((move / np.abs(p - np.round(p.real))).max())
    return np.array(out)


def concat_loops(l1, l2):
    """The loop "first l1, then l2" (deck elements multiply left to right),
    each loop a function of t in [0, 1]."""
    if np.abs(l1(0.0) - l2(0.0)).max() > 1e-9:
        raise ValueError("loops are based at different points")
    return lambda t: l1(2 * t) if t <= 0.5 else l2(2 * t - 1)


def a1_standard_loops(d: int):
    """The two standard generating loops of the rank-one target space
    punctured at -2 and +2, based at 0:  +-2(1 - e^{2 pi i t}).

    They are based at 0 rather than at the image of the canonical basepoint;
    lifting starts from the alcove-interior preimage 1/4 of 0, and the real
    connecting segment from the canonical basepoint conjugates the actions
    without changing any deck element, so no extra bookkeeping is needed.
    """
    def plus(t):
        return np.array([2 * (1 - np.exp(TWO_PI_I * t))])

    def minus(t):
        return -plus(t)

    return plus, minus


A1_LOOP_BASEPOINT = 0.25  # the alcove-interior preimage of 0


def reachable_states_by_letter(gens, d: int) -> Automaton:
    """The automaton closure with one `wreath_digit_step` per (state,
    letter), breadth first, children in `itertools.product` letter order."""
    if isinstance(gens, AffineElement):
        gens = [gens]
    n = gens[0].rank
    index, order = {}, []
    for g in gens:
        if g not in index:
            index[g] = len(order)
            order.append(g)
    queue = deque(order)
    transitions = {}
    while queue:
        state = queue.popleft()
        for letter in itertools.product(range(d), repeat=n):
            img, nxt = wreath_digit_step(state, d, letter)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            transitions[(index[state], letter)] = (img, index[nxt])
    return Automaton(d, n, order, transitions, [index[g] for g in gens])


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


def tree_word_vector(w: TreeWord) -> tuple:
    """The lattice vector mod d^len that the word represents."""
    out = [0] * w.n
    for pos, letter in enumerate(w.letters):
        for j, c in enumerate(letter):
            out[j] += c * w.d ** pos
    return tuple(out)
