"""Slow, direct forms of facts the program computes another way, and
helpers that only the tests use, kept as test oracles: the roots closed
under reflection matrices, the Weyl group by an element-at-a-time
breadth-first search, the Weyl group array as WeylElements, an orbit's rows
sliced from the stacked table, an orbit by closure under the simple
reflections, an orbit-sum product walked over the whole smaller orbit, the
positive roots by the signs of their coefficients, the generalized cosine
as a stabilizer-normalized sum over the whole Weyl group, exact polynomial
composition and partial derivatives (the Jacobian of a map), the order of
an affine element by repeated products, a generating path's loop and the
wall ratio of its first step, loop concatenation and the rank-one standard
loops, the generalized cosine and E modulo p with Python ints, the deck
element by a search over the whole Weyl group, the level group order by
counting the Weyl elements that are the identity mod d^k, the wreath
recursion one digit at a time, a tree word acted on and the automaton
closed one letter at a time, the automaton JSON read back, a tree word from
a lattice vector, and back."""

from __future__ import annotations

import itertools
import json
import math
from collections import deque

import numpy as np

from weylcheb.chebmap import PolynomialMap
from weylcheb.errors import DeckMatchError, DimensionError
from weylcheb.gencos import TWO_PI_I, eval_gencos
from weylcheb.rootsys import (WEYL_CAP, AffineElement, Root, RootSystem,
                              WeylElement, affine_compose, dominant_weight,
                              fundamental_orbit_table, orbit_size,
                              reflection_element, weyl_group_elements,
                              weyl_identity)
from weylcheb.selfsim import Automaton, TreeWord


def roots_by_matrix_closure(rs: RootSystem) -> tuple:
    """The roots as build_root_system closed them before it used the
    reflection formula: the simple roots, then, last found first, the
    image of each root under each simple reflection's weight and coroot
    matrices (WeylElement.apply_weight and apply_point), first occurrences
    kept."""
    simple = rs.simple_roots
    refls = [reflection_element(v, 0).w for v in simple]
    roots = list(simple)
    seen = {r.weight_coords for r in roots}
    queue = list(simple)
    while queue:
        v = queue.pop()
        for s in refls:
            wcoords = s.apply_weight(v.weight_coords)
            if wcoords not in seen:
                seen.add(wcoords)
                img = Root(wcoords, s.apply_point(v.coroot_coords),
                           v.length_sq)
                roots.append(img)
                queue.append(img)
    return tuple(roots)


def weyl_bfs(rs: RootSystem) -> tuple:
    """The Weyl group by an element-at-a-time breadth-first search:
    s.compose(w) for each frontier element w and each simple reflection s,
    first occurrences kept in that order, as WeylElements."""
    gens = [rs.simple_reflection(j) for j in range(rs.rank)]
    ident = weyl_identity(rs.rank)
    elements = {ident.weight_matrix: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                cand = s.compose(w)
                if cand.weight_matrix not in elements:
                    elements[cand.weight_matrix] = cand
                    nxt.append(cand)
        frontier = nxt
    return tuple(elements.values())


def weyl_elements(rs: RootSystem, cap: int = WEYL_CAP) -> tuple:
    """weyl_group_elements(rs, cap) as WeylElements of Python ints: each
    weight matrix M with its coroot matrix (M^T)^-1, integer because
    det M = +-1, and checked to be the exact inverse."""
    mats = weyl_group_elements(rs, cap)
    coroot = np.rint(np.linalg.inv(mats.transpose(0, 2, 1))).astype(np.int64)
    assert (mats.transpose(0, 2, 1) @ coroot == np.eye(rs.rank)).all()
    return tuple(WeylElement(tuple(map(tuple, w)), tuple(map(tuple, c)))
                 for w, c in zip(mats.tolist(), coroot.tolist()))


def orbit_matrix(rs: RootSystem, k: int) -> np.ndarray:
    """Integer matrix whose rows are the orbit of the k-th fundamental
    weight: a read-only slice of fundamental_orbit_table."""
    rows, starts = fundamental_orbit_table(rs)
    end = starts[k + 1] if k + 1 < rs.rank else len(rows)
    return rows[starts[k]:end]


def orbit_bfs(rs: RootSystem, lam) -> tuple:
    """The Weyl orbit of lam, dominant or not, as a sorted tuple of weight
    tuples: the closure of {lam} under the simple reflections s_j with
    mu_j != 0, one weight at a time."""
    lam = tuple(lam)
    cols = [tuple(rs.cartan[i][j] for i in range(rs.rank))
            for j in range(rs.rank)]
    seen = {lam}
    queue = [lam]
    while queue:
        mu = queue.pop()
        for j in range(rs.rank):
            if mu[j] == 0:
                continue
            img = tuple(m - mu[j] * c for m, c in zip(mu, cols[j]))
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return tuple(sorted(seen))


def pair_product_full_walk(rs: RootSystem, lam: tuple, mu: tuple) -> dict:
    """m_lam * m_mu by the stabilizer formula with one dominant walk from
    every element of the smaller orbit (orbit_bfs), ties broken toward the
    smaller coordinate sum: count the s landing on each nu, then the
    coefficient of m_nu is count * |W big| / |W nu|, which must divide."""
    big, small = lam, mu
    if (orbit_size(rs, lam), sum(lam)) < (orbit_size(rs, mu), sum(mu)):
        big, small = mu, lam
    counts: dict = {}
    for s in orbit_bfs(rs, small):
        nu = dominant_weight(rs, [x + y for x, y in zip(big, s)])
        counts[nu] = counts.get(nu, 0) + 1
    size = orbit_size(rs, big)
    out = {}
    for nu, k in counts.items():
        q, r = divmod(k * size, orbit_size(rs, nu))
        assert r == 0, (lam, mu, nu)
        out[nu] = q
    return out


def positive_roots(rs: RootSystem):
    """Roots whose simple-coroot coefficients are nonnegative: v^vee is a
    positive multiple of v, and each simple coroot of its simple root, so
    the signs are those of the simple-root coefficients."""
    return tuple(v for v in rs.roots if min(v.coroot_coords) >= 0)


def eval_gencos_fullsum(rs: RootSystem, x) -> np.ndarray:
    """Stabilizer-normalized full-Weyl-group sum; must agree with
    eval_gencos (cross-check of the two equivalent formulas)."""
    x = np.asarray(x, dtype=complex)
    elements = weyl_elements(rs)
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


def poly_partial(comp: dict, j: int) -> dict:
    """Exact partial derivative of a sparse polynomial."""
    out: dict = {}
    for e, c in comp.items():
        if e[j] == 0:
            continue
        de = list(e)
        de[j] -= 1
        out[tuple(de)] = out.get(tuple(de), 0) + c * e[j]
    return out


def jacobian_polys(pmap: PolynomialMap):
    """Matrix of exact partial derivatives of the map's components."""
    return [[poly_partial(comp, j) for j in range(pmap.rank)]
            for comp in pmap.components]


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


def gencos_e_mod(rs: RootSystem, point, p: int, shift: int = 0) -> tuple:
    """G(z) and E(z) modulo p at one point z of residues, from their
    definitions with Python ints: G(z)_k = sum_{lam in W omega_k} z^lam
    and E(z)_{kj} = sum_{lam in W omega_k} (lam_j + shift) z^lam, the
    orbits read from fundamental_orbit_table."""
    rows = [r.tolist() for r in fundamental_orbit_table(rs)[0]]
    starts = [*fundamental_orbit_table(rs)[1].tolist(), len(rows)]

    def power(u):
        return math.prod(pow(zj, uj, p) for zj, uj in zip(point, u)) % p

    orbits = [rows[lo:hi] for lo, hi in zip(starts, starts[1:])]
    g = [sum(map(power, lams)) % p for lams in orbits]
    e = [[sum((lam[j] + shift) * power(lam) for lam in lams) % p
          for j in range(rs.rank)] for lams in orbits]
    return g, e


def deck_by_weyl_search(rs: RootSystem, y0, y1,
                        tol: float = 1e-7) -> AffineElement:
    """The affine Weyl element g with g(y0) = y1: the first w of
    weyl_elements (refused above WEYL_CAP) for which y1 - w(y0) is
    real and rounds to an integer vector within tol."""
    y0 = np.asarray(y0, dtype=complex)
    y1 = np.asarray(y1, dtype=complex)
    for w in weyl_elements(rs):
        r = y1 - np.array(w.coroot_matrix) @ y0
        if np.abs(r.imag).max() > tol:
            continue
        t = np.round(r.real).astype(int)
        if np.abs(r - t).max() <= tol:
            return AffineElement(tuple(int(c) for c in t), w)
    raise DeckMatchError("no affine Weyl element maps y0 to y1")


def group_order_by_weyl_count(rs: RootSystem, d: int, k: int,
                              cap: int) -> int:
    """m^n |W| / #{w in W : w == I mod m}, m = d^k, the kernel counted
    over the enumerated W (refused above cap) in Python integers."""
    m = d ** k
    mats = np.array([w.coroot_matrix for w in weyl_elements(rs, cap)],
                    dtype=object)
    kernel = ((mats - np.eye(rs.rank, dtype=int)) % m == 0).all(axis=(1, 2))
    return m ** rs.rank * len(mats) // int(kernel.sum())


def wreath_digit_step(g: AffineElement, d: int, letter):
    """One digit of the action of g = (t, w): on first letter a, the integer
    vector v = w(a) + t splits as image letter (v mod d) plus d times a carry,
    and the carry becomes the child state's translation:

        g . (a, rest) = (v mod d, (carry, w) . rest)
    """
    letter = tuple(int(c) for c in letter)
    if len(letter) != g.rank:
        raise ValueError("letter has wrong number of digits")
    v = tuple(a + b for a, b in zip(g.w.apply_point(letter), g.t))
    img = tuple(c % d for c in v)
    carry = tuple((c - r) // d for c, r in zip(v, img))
    return img, AffineElement(carry, g.w)


def act_on_word_by_letter(g: AffineElement, w: TreeWord) -> TreeWord:
    """g on a tree word one `wreath_digit_step` per letter, threading the
    child states."""
    out = []
    for letter in w.letters:
        img, g = wreath_digit_step(g, w.d, letter)
        out.append(img)
    return TreeWord(tuple(out), w.d, w.n)


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
    images, children = [], []
    while queue:
        state = queue.popleft()
        images.append([])
        children.append([])
        for letter in itertools.product(range(d), repeat=n):
            img, nxt = wreath_digit_step(state, d, letter)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            images[-1].append(list(img))
            children[-1].append(index[nxt])
    return Automaton(d, n, order, images, children,
                     [index[g] for g in gens])


def import_automaton(text: str) -> Automaton:
    """Rebuild an Automaton from its JSON export: each state's transitions
    must be listed together, in alphabet order."""
    payload = json.loads(text)
    states = []
    for s in payload["states"]:
        w = WeylElement(tuple(tuple(r) for r in s["w_matrix"]),
                        tuple(tuple(r) for r in s["w_coroot"]))
        states.append(AffineElement(tuple(s["t"]), w))
    d, n = payload["d"], payload["n"]
    letters = [list(a) for a in itertools.product(range(d), repeat=n)]
    images = [[] for _ in states]
    children = [[] for _ in states]
    for si, letter, img, ci in payload["transitions"]:
        assert letter == letters[len(images[si])]
        images[si].append(img)
        children[si].append(ci)
    return Automaton(d, n, states, images, children,
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
