"""Acceptance suite: the ten exit criteria, each printing one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

import random
import time

import numpy as np
import pytest

from weylcheb.chebmap import (build_cheb_map, decompose_to_polynomial,
                              verify_functional_equation)
from weylcheb.critical import (
    deltoid_check,
    post_critical_check,
    sample_diagram_points,
)
from weylcheb.gencos import gencos_jacobian, is_on_diagram
from weylcheb.monodromy import (
    algebraic_action,
    img_verification,
    numeric_monodromy,
    perm_order,
    standard_affine_generators,
)
from weylcheb.rootsys import affine_compose, affine_identity
from weylcheb.selfsim import TreeWord, act_on_word, reachable_states

from root_oracles import (A1_LOOP_BASEPOINT, a1_standard_loops,
                          compose_poly_maps, concat_loops, wreath_digit_step)

TEST_MATRIX = [(spec, d) for spec in ("A1", "A2", "B2", "G2", "A3", "A1xA1")
               for d in (2, 3)]


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} {name:<34s} {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def test_01_a2_degree2_exact_formula(rs):
    start = time.monotonic()
    pmap = build_cheb_map(rs("A2"), 2)
    elapsed = time.monotonic() - start
    ok = pmap.components == ({(2, 0): 1, (0, 1): -2}, {(0, 2): 1, (1, 0): -2})
    ok = ok and elapsed < 1.0
    assert report(1, "A2 degree-2 exact formula", ok, f"{elapsed:.3f}s")


def test_02_functional_equation_matrix(rs):
    start = time.monotonic()
    worst = 0
    ok = True
    for spec, d in TEST_MATRIX:
        rsys = rs(spec)
        rep = verify_functional_equation(rsys, d, build_cheb_map(rsys, d),
                                         samples=100, seed=0)
        worst = max(worst, rep.max_residual)
        ok = ok and rep.passed and rep.max_residual == 0
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    assert report(2, "functional equation mod p", ok,
                  f"max residual {worst}, {elapsed:.1f}s")


def test_03_integrality(rs):
    ok = True
    for spec, d in TEST_MATRIX:
        pmap = build_cheb_map(rs(spec), d)
        for comp in pmap.components:
            for e, c in comp.items():
                ok = ok and type(c) is int and c != 0
    assert report(3, "coefficients exact integers", ok)


def test_04_semigroup(rs):
    # build_cheb_map composes T_4 from T_2 itself, so T2 o T2 is also
    # checked against direct elimination of m_{4 omega_k}
    start = time.monotonic()
    ok = True
    for spec in ("A1", "A2"):
        rsys = rs(spec)
        t2 = build_cheb_map(rsys, 2)
        t4 = compose_poly_maps(t2, t2).components
        direct = tuple(decompose_to_polynomial(
            rsys, {tuple(4 if j == k else 0 for j in range(rsys.rank)): 1})
            for k in range(rsys.rank))
        ok = ok and t4 == build_cheb_map(rsys, 4).components == direct
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    assert report(4, "T2 o T2 = T4 exactly", ok, f"{elapsed:.3f}s")


def test_05_critical_locus(rs):
    ok = True
    worst_wall, worst_generic = 0.0, float("inf")
    for spec, _ in TEST_MATRIX[::2]:  # each system once
        rsys = rs(spec)
        for s in sample_diagram_points(rsys, 50, seed=100):
            det = abs(np.linalg.det(gencos_jacobian(rsys, s.point)))
            worst_wall = max(worst_wall, det)
            ok = ok and det < 1e-8
        rng = random.Random(101)
        found = 0
        while found < 100:
            x = np.array([rng.uniform(-1, 1) for _ in range(rsys.rank)])
            if is_on_diagram(rsys, x, 1e-2)[0]:
                continue
            found += 1
            det = abs(np.linalg.det(gencos_jacobian(rsys, x)))
            worst_generic = min(worst_generic, det)
            ok = ok and det > 1e-4
    assert report(5, "critical locus = walls (sampled)", ok,
                  f"wall max {worst_wall:.1e}, generic min {worst_generic:.1e}")


def test_06_post_critical_structure(rs):
    ok = True
    worst = 0.0
    for spec in ("A2", "B2"):
        rsys = rs(spec)
        rep = post_critical_check(rsys, 2, build_cheb_map(rsys, 2),
                                  samples=50, tol=1e-7, seed=102)
        ok = ok and len(rep.det_residuals) == 50
        ok = ok and rep.passed
        worst = max(worst, rep.max_det_residual)
    assert report(6, "post-critical structure", ok, f"max |det DT| {worst:.1e}")


def test_07_deltoid_identity(rs):
    start = time.monotonic()
    residuals = deltoid_check(rs("A2"), samples=100, seed=104)
    elapsed = time.monotonic() - start
    ok = len(residuals) == 100 and max(residuals) <= 1e-7 and elapsed < 5.0
    assert report(7, "A2 deltoid identity", ok,
                  f"max residual {max(residuals):.1e}, {elapsed:.3f}s")


def test_08_a1_dihedral_example(rs):
    start = time.monotonic()
    a1 = rs("A1")
    y = np.array([A1_LOOP_BASEPOINT], dtype=complex)
    ok = True
    for d in (2, 3):
        plus, minus = a1_standard_loops(d)
        acts_plus, g_plus = numeric_monodromy(a1, d, plus, 3, y_start=y)
        acts_minus, g_minus = numeric_monodromy(a1, d, minus, 3, y_start=y)
        # each loop acts with order exactly 2 on the depth-3 tree; a level
        # restriction may be trivial (u -> -u is the identity mod 2) but
        # never of higher order
        for acts in (acts_plus, acts_minus):
            orders = [perm_order(acts[k]) for k in range(3)]
            ok = ok and all(o in (1, 2) for o in orders)
            ok = ok and max(orders) == 2
        both = concat_loops(minus, plus)
        acts_both, _ = numeric_monodromy(a1, d, both, 3, y_start=y)
        for k in range(3):
            ok = ok and perm_order(acts_both[k]) == d ** (k + 1)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    assert report(8, "A1 dihedral loop orders", ok, f"{elapsed:.1f}s")


def test_09_main_theorem_desk_scale(rs):
    start = time.monotonic()
    ok = True
    details = []
    for spec, d, k in (("A1", 2, 3), ("A1", 3, 3), ("A2", 2, 2),
                       ("B2", 2, 2), ("G2", 2, 1)):
        rep = img_verification(rs(spec), d, k)
        ok = ok and rep.passed
        ok = ok and all(g.deck_matches for g in rep.generators)
        details.append(f"{spec}/{d}/{k}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600.0
    assert report(9, "IMG = affine Weyl (deck == label)", ok,
                  f"{' '.join(details)}, {elapsed:.1f}s")


def test_10_self_similarity(rs):
    start = time.monotonic()
    ok = True
    systems = (("A1", 2), ("A1", 3), ("A2", 2), ("B2", 2))
    rng = random.Random(106)
    import itertools
    for spec, d in systems:
        rsys = rs(spec)
        gens = [g for _, g in standard_affine_generators(rsys)]
        letters = list(itertools.product(range(d), repeat=rsys.rank))
        # renormalization identity on 200 random (element, word) pairs:
        # the lattice map mod d^k against one digit of the wreath recursion
        for _ in range(200):
            g = affine_identity(rsys.rank)
            for _ in range(rng.randint(1, 5)):
                g = affine_compose(g, rng.choice(gens))
            first = rng.choice(letters)
            rest = TreeWord(tuple(rng.choice(letters) for _ in range(3)),
                            d, rsys.rank)
            whole = TreeWord((first,) + rest.letters, d, rsys.rank)
            img, state = wreath_digit_step(g, d, first)
            expected = (img,) + act_on_word(state, rest).letters
            ok = ok and act_on_word(g, whole).letters == expected
        # finite automata for every generator
        for g in gens:
            ok = ok and len(reachable_states(g, d).states) >= 1
        # faithfulness: words of length <= 5 separate by level <= 5
        elements = {affine_identity(rsys.rank)}
        frontier = [affine_identity(rsys.rank)]
        for _ in range(5):
            nxt = []
            for g in frontier:
                for s in gens:
                    h = affine_compose(g, s)
                    if h not in elements:
                        elements.add(h)
                        nxt.append(h)
            frontier = nxt
        level = 5 if rsys.rank == 1 else 3
        perms = {}
        for g in elements:
            p = tuple(algebraic_action(g, d, level).tolist())
            ok = ok and p not in perms
            perms[p] = g
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    assert report(10, "self-similar wreath recursion", ok, f"{elapsed:.1f}s")
