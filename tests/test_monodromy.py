"""Monodromy: level actions, loops, path-lifting bookkeeping, and the
verification pipeline."""

import random

import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from weylcheb import monodromy
from weylcheb import gencos
from weylcheb.errors import CapExceededError, NearSingularError
from weylcheb.gencos import deck_identify, eval_gencos, is_on_diagram, lift_path
from weylcheb.monodromy import (
    ACTION_CELL_CAP,
    ENTRY_CAP,
    Loop,
    algebraic_action,
    basepoint_array,
    check_img_caps,
    generated_group_order,
    img_verification,
    make_generator_loop,
    numeric_monodromy,
    perm_order,
    standard_affine_generators,
    wreath_digit_step,
)
from weylcheb.rootsys import (
    affine_apply,
    affine_compose,
    affine_identity,
    affine_inverse,
    build_root_system,
    dot,
    reflection_element,
    translation_element,
    weyl_group_elements,
    weyl_order,
)

from root_oracles import (A1_LOOP_BASEPOINT, a1_standard_loops,
                          affine_element_order, concat_loops, positive_roots)

# the img-verify cases of the benchmark (perfbench/cases.py)
BENCH_IMG_CASES = [("A1", 2, 4), ("A2", 2, 2), ("G2", 2, 2), ("A1xA1", 2, 3),
                   ("A3", 2, 2), ("B3", 2, 2), ("B2", 3, 3)]


# --- basepoint ------------------------------------------------------------------

def test_a1_basepoint_value(rs):
    y0 = basepoint_array(rs("A1"))
    assert y0.tolist() == [0.25]  # the Coxeter point rho^vee / h, h = 2
    assert abs(eval_gencos(rs("A1"), y0)[0]) < 1e-12  # 2 cos(pi/2)


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B2", "B3", "G2", "A1xA1"])
def test_basepoint_in_open_alcove(spec, rs):
    rsys = rs(spec)
    y0 = basepoint_array(rsys)
    for v in positive_roots(rsys):
        p = np.dot(v.weight_coords, y0.real)
        assert 0 < p < 1
    assert not is_on_diagram(rsys, y0, 1e-9)[0]


def test_basepoint_stabilizer_trivial(rs):
    rng = random.Random(40)
    for spec in ("A2", "B2"):
        rsys = rs(spec)
        y0 = basepoint_array(rsys).real
        gens = [reflection_element(v, ell)
                for v in rsys.simple_roots for ell in (0, 1)]
        for _ in range(1000):
            g = affine_identity(rsys.rank)
            for _ in range(rng.randint(1, 6)):
                g = affine_compose(g, rng.choice(gens))
            if g.is_identity():
                continue
            assert np.abs(affine_apply(g, y0) - y0).max() > 1e-9


# --- algebraic engine --------------------------------------------------------------

def _is_identity(perm):
    return np.array_equal(perm, np.arange(len(perm)))


def test_identity_action_trivial():
    act = algebraic_action(affine_identity(2), 2, 2)
    assert _is_identity(act)


def test_translation_is_odometer_cycle():
    act = algebraic_action(translation_element((1,)), 2, 2)
    assert act.tolist() == [1, 2, 3, 0]
    assert perm_order(act) == 4


def test_reflection_action_mod_four(rs):
    a1 = rs("A1")
    act = algebraic_action(reflection_element(a1.roots[0], 0), 2, 2)
    assert act.tolist() == [0, 3, 2, 1]  # fixes 0 and 2
    assert perm_order(act) == 2


def test_action_is_homomorphism(rs):
    rng = random.Random(41)
    for spec in ("A1", "A2", "B2"):
        rsys = rs(spec)
        gens = [g for _, g in standard_affine_generators(rsys)]
        for _ in range(25):
            g1, g2 = rng.choice(gens), rng.choice(gens)
            lhs = algebraic_action(affine_compose(g1, g2), 2, 2)
            assert np.array_equal(np.sort(lhs), np.arange(len(lhs)))
            # "g1 after g2" on image arrays is p[q]
            rhs = algebraic_action(g1, 2, 2)[algebraic_action(g2, 2, 2)]
            assert np.array_equal(lhs, rhs)


def _project(perm, d, level, n):
    """The permutation a level-`level` image array induces one level down
    (digit truncation); fails unless the truncation is well defined."""
    m, mm = d ** level, d ** (level - 1)

    def truncate(idx):
        out = np.zeros_like(idx)
        for j in reversed(range(n)):
            out = out * mm + (idx // m ** j) % m % mm
        return out

    src, dst = truncate(np.arange(len(perm))), truncate(perm)
    out = np.full(mm ** n, -1)
    out[src] = dst
    assert np.array_equal(out[src], dst), "action is not projection-compatible"
    return out


def test_projection_compatibility(rs):
    rng = random.Random(42)
    for spec in ("A1", "A2"):
        rsys = rs(spec)
        gens = [g for _, g in standard_affine_generators(rsys)]
        for _ in range(10):
            g = affine_compose(rng.choice(gens), rng.choice(gens))
            level = 3 if rsys.rank == 1 else 2
            deep = algebraic_action(g, 2, level)
            shallow = algebraic_action(g, 2, level - 1)
            assert np.array_equal(_project(deep, 2, level, rsys.rank), shallow)


def test_vertex_cap():
    with pytest.raises(CapExceededError):
        algebraic_action(affine_identity(3), 10, 2)


def test_action_cap_counts_the_cells_it_allocates():
    # 8192 vertices of rank one are 24576 cells, far below the cap
    odometer = algebraic_action(translation_element((1,)), 2, 13)
    assert perm_order(odometer) == 8192
    # 2^21 vertices of rank one are 3 * 2^21 cells, 48 MiB
    with pytest.raises(CapExceededError) as exc:
        algebraic_action(translation_element((1,)), 2, 21)
    msg = str(exc.value)
    assert "2097152 vertices" in msg and f"{3 * 2 ** 21} int64 cells" in msg
    assert f"({24 * 2 ** 21} bytes)" in msg
    assert f"above cap {ACTION_CELL_CAP} cells ({8 * ACTION_CELL_CAP} bytes)" in msg


# --- wreath recursion ----------------------------------------------------------------

def test_wreath_identity_step():
    e = affine_identity(2)
    img, child = wreath_digit_step(e, 2, (1, 0))
    assert img == (1, 0) and child == e


def test_wreath_odometer_step():
    img, child = wreath_digit_step(translation_element((1,)), 2, (1,))
    assert img == (0,)
    assert child == translation_element((1,))


def test_wreath_recursion_matches_action(rs):
    # acting digit-by-digit equals the one-shot lattice action mod d^k
    rng = random.Random(43)
    for spec, d in (("A1", 2), ("A2", 2), ("B2", 2), ("A1", 3)):
        rsys = rs(spec)
        gens = [g for _, g in standard_affine_generators(rsys)]
        for _ in range(100):
            g = affine_compose(rng.choice(gens), rng.choice(gens))
            k = rng.randint(1, 3 if rsys.rank == 1 else 2)
            m = d ** k
            u = tuple(rng.randrange(m) for _ in range(rsys.rank))
            digits = []
            rem = list(u)
            for _ in range(k):
                digits.append(tuple(c % d for c in rem))
                rem = [c // d for c in rem]
            state = g
            out = []
            for letter in digits:
                img, state = wreath_digit_step(state, d, letter)
                out.append(img)
            acted = [0] * rsys.rank
            for pos, letter in enumerate(out):
                for j, c in enumerate(letter):
                    acted[j] += c * d ** pos
            w = np.array(g.w.coroot_matrix)
            expected = (w @ np.array(u) + np.array(g.t)) % m
            assert tuple(acted) == tuple(int(c) for c in expected)


# --- loops ------------------------------------------------------------------------

def test_generator_loop_closes_and_avoids_walls(rs):
    for spec in ("A2", "G2"):
        rsys = rs(spec)
        g = reflection_element(rsys.simple_roots[0], 0)
        loop = make_generator_loop(rsys, g)
        pts = loop.samples.points
        assert np.abs(pts[0] - pts[-1]).max() < 1e-12
        assert loop.label == g


def test_generator_loop_rejects_identity(rs):
    with pytest.raises(ValueError):
        make_generator_loop(rs("A2"), affine_identity(2))


def _scan_clearance(rsys, loop_samples):
    """The oracle: the smallest |Im <v, y(t)>| over every root and every
    interior sample of the generating path, the per-sample wall scan that
    make_generator_loop ran before it used the closed-form bound."""
    roots = np.array([v.weight_coords for v in rsys.roots], dtype=float)
    return np.abs((loop_samples[1:-1] @ roots.T).imag).min()


def _generating_path(rsys, g, epsilon, num_samples):
    # the path make_generator_loop maps through gencos, rebuilt here
    y0 = basepoint_array(rsys)
    y1 = affine_apply(g, y0)
    u = np.array([float(c) for c in monodromy._unit_direction(rsys)[0]])
    ts = np.linspace(0.0, 1.0, num_samples)
    return ((1 - ts)[:, None] * y0 + ts[:, None] * y1
            + 1j * epsilon * np.sin(np.pi * ts)[:, None] * u)


@pytest.mark.parametrize("spec", [c[0] for c in BENCH_IMG_CASES]
                         + ["B4", "F4", "C4"])
def test_clearance_bound_equals_the_wall_scan(spec, rs):
    rsys = rs(spec)
    u, cached = monodromy._unit_direction(rsys)
    least = float(min(abs(dot(v.weight_coords, u)) for v in rsys.roots))
    assert float(cached) == least
    assert monodromy._unit_direction(rsys)[0] is u  # once per root system
    for epsilon, num in ((0.1, 257), (-0.3, 33), (0.02, 1001)):
        bound = abs(epsilon) * np.sin(np.pi / (num - 1)) * least
        for _, g in standard_affine_generators(rsys):
            ys = _generating_path(rsys, g, epsilon, num)
            assert _scan_clearance(rsys, ys) == pytest.approx(bound, rel=1e-9)
    # the rebuilt path is the one make_generator_loop maps
    for _, g in standard_affine_generators(rsys):
        ys = _generating_path(rsys, g, 0.1, 257)
        loop = make_generator_loop(rsys, g)
        assert np.array_equal(loop.samples.points,
                              [eval_gencos(rsys, y) for y in ys])
    # make_generator_loop refuses exactly the bumps whose bound is <= 1e-9,
    # and names the bound
    g = standard_affine_generators(rsys)[0][1]
    t1 = 1 / (monodromy.DEFAULT_LOOP_SAMPLES - 1)
    critical_eps = 1e-9 / (np.sin(np.pi * t1) * least)
    make_generator_loop(rsys, g, epsilon=1.001 * critical_eps)
    with pytest.raises(ValueError) as exc:
        make_generator_loop(rsys, g, epsilon=0.999 * critical_eps)
    named = float(str(exc.value).split("within ")[1].split()[0])
    assert named == pytest.approx(0.999e-9, rel=1e-3)


@pytest.mark.parametrize("spec", ["A2", "G2", "B3"])
def test_tiny_epsilon_loop_is_refused(spec, rs):
    rsys = rs(spec)
    g = standard_affine_generators(rsys)[0][1]
    with pytest.raises(ValueError, match=r"within \d\.\d+e-\d+ of a wall"):
        make_generator_loop(rsys, g, epsilon=1e-12)
    # the per-sample wall scan refused this path too: it crosses g's wall
    ys = _generating_path(rsys, g, 1e-12, 257)
    assert any(is_on_diagram(rsys, y, 1e-9)[0] for y in ys[1:-1])


def test_generator_loop_needs_a_real_basepoint(rs):
    rsys = rs("A2")
    g = standard_affine_generators(rsys)[0][1]
    with pytest.raises(ValueError, match="real"):
        make_generator_loop(rsys, g, basepoint_array(rsys) + 0.01j)


def test_lifted_generator_loop_recovers_label(rs):
    for spec in ("A1", "A2", "B2", "G2"):
        rsys = rs(spec)
        for _, g in standard_affine_generators(rsys):
            loop = make_generator_loop(rsys, g)
            _, deck = numeric_monodromy(rsys, 2, loop, 1)
            assert deck == g


# --- numeric engine ------------------------------------------------------------------

def test_constant_loop_identity_monodromy(rs):
    from weylcheb.gencos import PathSample
    a1 = rs("A1")
    y0 = basepoint_array(a1)
    x0 = eval_gencos(a1, y0)
    loop = Loop(PathSample(np.array([0.0, 1.0]), np.array([x0, x0])))
    actions, deck = numeric_monodromy(a1, 2, loop, 3)
    assert deck.is_identity()
    assert all(_is_identity(a) for a in actions)


def test_numeric_equals_algebraic_for_generators(rs):
    for spec, d, k in (("A2", 2, 2), ("A1", 2, 3)):
        rsys = rs(spec)
        y0 = basepoint_array(rsys)
        for _, g in standard_affine_generators(rsys):
            loop = make_generator_loop(rsys, g, y0)
            numeric, deck = numeric_monodromy(rsys, d, loop, k, y_start=y0)
            assert deck == g
            for lvl in range(k):
                assert np.array_equal(numeric[lvl],
                                      algebraic_action(g, d, lvl + 1))


@pytest.mark.parametrize("spec", ["A2", "B2"])
def test_lift_from_shifted_representative(spec, rs):
    # path lifting moves labels by g^{-1}: the lift from the representative
    # y0 - u of level-1 vertex u ends at ((-u, id) * g)(y0)
    import itertools
    rsys = rs(spec)
    y0 = basepoint_array(rsys)
    for _, g in standard_affine_generators(rsys):
        loop = make_generator_loop(rsys, g, y0)
        for u in itertools.product(range(2), repeat=rsys.rank):
            end = lift_path(rsys, loop.samples, y0 - np.array(u)).points[-1]
            shift = translation_element(tuple(-c for c in u))
            assert deck_identify(rsys, y0, end) == affine_compose(shift, g)


def test_concatenation_composes_deck_elements(rs):
    a2 = rs("A2")
    y0 = basepoint_array(a2)
    gens = [g for _, g in standard_affine_generators(a2)]
    l1 = make_generator_loop(a2, gens[0], y0)
    l2 = make_generator_loop(a2, gens[2], y0)
    both = concat_loops(l1, l2)
    act_both, deck = numeric_monodromy(a2, 2, both, 1, y_start=y0)
    assert deck == affine_compose(gens[0], gens[2])
    # numeric action of the concatenation = composition of the actions
    a_first, _ = numeric_monodromy(a2, 2, l1, 1, y_start=y0)
    a_second, _ = numeric_monodromy(a2, 2, l2, 1, y_start=y0)
    assert np.array_equal(act_both[0], a_first[0][a_second[0]])


# --- the A1 example loops --------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_a1_standard_loops_orders(d, rs):
    a1 = rs("A1")
    y = np.array([A1_LOOP_BASEPOINT], dtype=complex)
    plus, minus = a1_standard_loops(d)
    acts_plus, g_plus = numeric_monodromy(a1, d, plus, 3, y_start=y)
    acts_minus, g_minus = numeric_monodromy(a1, d, minus, 3, y_start=y)
    for acts in (acts_plus, acts_minus):
        orders = [perm_order(acts[k]) for k in range(3)]
        assert all(o in (1, 2) for o in orders)
        assert max(orders) == 2  # order 2 as a tree automorphism
    both = concat_loops(minus, plus)
    acts_both, g_both = numeric_monodromy(a1, d, both, 3, y_start=y)
    assert g_both == affine_compose(g_minus, g_plus)
    assert abs(g_both.t[0]) == 1 and g_both.w.is_identity()
    for k in range(3):
        assert perm_order(acts_both[k]) == d ** (k + 1)


def test_a1_standard_loop_encircles_plus_two():
    plus, _ = a1_standard_loops(2)
    pts = plus.samples.points[:, 0]
    assert abs(pts[0]) < 1e-14
    # winding number of the loop around +2 is 1
    winding = np.angle((pts[1:] - 2) / (pts[:-1] - 2)).sum() / (2 * np.pi)
    assert abs(winding - 1) < 1e-8


def test_level_one_fiber_realizes_degree(rs):
    # the d^n label representatives give d^n distinct preimages of the
    # basepoint under the synthesized polynomial map
    import itertools
    from weylcheb.chebmap import build_cheb_map, eval_poly_map
    for spec, d in (("A1", 3), ("A2", 2), ("B2", 2)):
        rsys = rs(spec)
        pmap = build_cheb_map(rsys, d)
        y0 = basepoint_array(rsys)
        x0 = eval_gencos(rsys, y0)
        fiber = []
        for u in itertools.product(range(d), repeat=rsys.rank):
            y_u = (y0 - np.array(u)) / d
            x_u = eval_gencos(rsys, y_u)
            assert np.abs(np.array(eval_poly_map(pmap, x_u)) - x0).max() < 1e-9
            fiber.append(x_u)
        for i in range(len(fiber)):
            for j in range(i + 1, len(fiber)):
                assert np.abs(fiber[i] - fiber[j]).max() > 1e-6


# --- group order ---------------------------------------------------------------------

def _bfs_order(actions):
    """The oracle: the breadth-first closure of the given level actions,
    listing every group element."""
    if not actions:
        return 1
    size = len(actions[0])
    ident = tuple(range(size))
    gens = {tuple(a.tolist()) for a in actions}
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(q[p[i]] for i in range(size))
                if r not in elements:
                    elements.add(r)
                    nxt.append(r)
        frontier = nxt
    return len(elements)


def _sympy_order(actions):
    return PermutationGroup([Permutation(a.tolist()) for a in actions]).order()


def _affine_level_actions(rsys, d, k):
    return [algebraic_action(g, d, k)
            for _, g in standard_affine_generators(rsys)]


def _assert_closed_form_matches_oracles(rsys, d, k, order=None):
    acts = _affine_level_actions(rsys, d, k)
    closed = generated_group_order(rsys, d, k)
    assert closed == _bfs_order(acts) == _sympy_order(acts)
    if order is not None:
        assert closed == order
    m = d ** k
    if m >= 3:
        # Minkowski: a finite-order integer matrix == I mod m >= 3 is I, so
        # W embeds in GL_n(Z/m); weyl_order is the orbit size of rho
        assert closed == m ** rsys.rank * weyl_order(rsys)


@pytest.mark.parametrize("spec,d,levels", BENCH_IMG_CASES)
def test_group_order_matches_oracles_on_benchmark_cases(rs, spec, d, levels):
    for k in range(1, levels + 1):
        _assert_closed_form_matches_oracles(rs(spec), d, k)


@pytest.mark.parametrize("spec,d,k,order", [
    ("A3", 3, 2, 17496), ("G2", 3, 3, 8748), ("A2", 3, 3, 4374),
    ("B2", 2, 4, 2048)])
def test_group_order_matches_oracles_on_larger_levels(rs, spec, d, k, order):
    _assert_closed_form_matches_oracles(rs(spec), d, k, order)


@pytest.mark.parametrize("spec,order,kernel", [
    ("B2", 8, 4), ("C3", 48, 8), ("D4", 1536, 2), ("F4", 9216, 2)])
def test_group_order_counts_the_kernel_mod_two(rs, spec, order, kernel):
    # W -> GL_n(Z/2) is not injective here: a closed form that drops the
    # kernel, 2^n * |W|, is off by its order
    rsys = rs(spec)
    assert _sympy_order(_affine_level_actions(rsys, 2, 1)) == order
    assert generated_group_order(rsys, 2, 1) == order
    assert 2 ** rsys.rank * weyl_order(rsys) == order * kernel


def test_group_order_past_int64(rs):
    # m = 2^70 builds no vertex set, and the kernel count stays exact
    assert generated_group_order(rs("B2"), 2, 70) == 2 ** 140 * 8


def test_group_order_dihedral_level_three(rs):
    a1 = rs("A1")
    y = np.array([A1_LOOP_BASEPOINT], dtype=complex)
    plus, minus = a1_standard_loops(2)
    acts_plus, _ = numeric_monodromy(a1, 2, plus, 3, y_start=y)
    acts_minus, _ = numeric_monodromy(a1, 2, minus, 3, y_start=y)
    assert _bfs_order([acts_plus[2], acts_minus[2]]) == 16
    assert _sympy_order([acts_plus[2], acts_minus[2]]) == 16
    assert generated_group_order(a1, 2, 3) == 16


@pytest.mark.parametrize("spec,order", [("E6", 3317760), ("E7", 185794560)])
def test_group_order_e6_e7_level_one(rs, spec, order):
    # |W| * vertices is twice the E7 order: -1 in W(E7) acts trivially mod 2.
    # The closed form counts over the enumerated W, which WEYL_CAP refuses,
    # as img-verify does
    acts = _affine_level_actions(rs(spec), 2, 1)
    assert _sympy_order(acts) == order
    weyl = {"E6": 51840, "E7": 2903040}[spec]
    with pytest.raises(CapExceededError, match=f"order {weyl}, above cap"):
        generated_group_order(rs(spec), 2, 1)


# --- relations -----------------------------------------------------------------------

@pytest.mark.parametrize("spec,d,levels", BENCH_IMG_CASES)
def test_reflection_relations_hold_in_the_actions(spec, d, levels, rs):
    # (act(g_i) o act(g_j))^m = id for every pair of standard generators, m
    # the exact order of g_i g_j: algebraic_action is a homomorphism
    gens = standard_affine_generators(rs(spec))
    checked = 0
    for k in range(1, levels + 1):
        acts = {name: algebraic_action(g, d, k) for name, g in gens}
        for i, (ni, gi) in enumerate(gens):
            for nj, gj in gens[i:]:
                m = affine_element_order(affine_compose(gi, gj))
                if m is None:  # infinite order: no relation
                    continue
                prod = acts[ni][acts[nj]]
                acc = prod
                for _ in range(m - 1):
                    acc = acc[prod]
                assert _is_identity(acc), (k, ni, nj, m)
                checked += 1
    assert checked > 0


# --- element orders -----------------------------------------------------------------

def test_affine_element_orders(rs):
    a2 = rs("A2")
    gens = [g for _, g in standard_affine_generators(a2)]
    for g in gens:
        assert affine_element_order(g) == 2
    assert affine_element_order(affine_compose(gens[0], gens[1])) == 3
    assert affine_element_order(translation_element((1, 0))) is None
    a1 = rs("A1")
    g1 = [g for _, g in standard_affine_generators(a1)]
    assert affine_element_order(affine_compose(g1[0], g1[1])) is None


# --- full pipeline -------------------------------------------------------------------

@pytest.mark.parametrize("spec,d,k", [("A1", 2, 3), ("A2", 2, 2), ("G2", 2, 1)])
def test_img_verification_passes(spec, d, k, rs):
    rep = img_verification(rs(spec), d, k)
    assert rep.passed
    assert all(g.deck_matches for g in rep.generators)
    payload = rep.as_dict()
    assert payload["pass"] is True
    assert len(payload["generators"]) == rs(spec).rank + len(rs(spec).factors)
    for gen, dumped in zip(rep.generators, payload["generators"]):
        assert [lv["level"] for lv in dumped["levels"]] == list(range(1, k + 1))
        assert [lv["algebraic_perm"] for lv in dumped["levels"]] == [
            a.tolist() for a in gen.actions]


def test_img_verification_catches_mislabeled_loop(rs, monkeypatch):
    # the loop of t*g, t a translation by d^levels e_1, acts like g on every
    # level up to `levels`; only the deck check can tell it from g's loop.
    # Its path is about four times longer than g's and passes walls near its
    # ends, so it gets a wider bump than the default to lift on one sheet.
    a2, d, levels = rs("A2"), 2, 2
    t = translation_element((d ** levels, 0))
    wrong = standard_affine_generators(a2)[0][1]
    build = monodromy.make_generator_loop

    def mislabeled(rsys, g, *args, **kwargs):
        if g != wrong:
            return build(rsys, g, *args, **kwargs)
        loop = build(rsys, affine_compose(t, g), *args, epsilon=0.5, **kwargs)
        loop.label = g
        return loop

    monkeypatch.setattr(monodromy, "make_generator_loop", mislabeled)
    rep = img_verification(a2, d, levels)
    assert rep.passed is False
    assert rep.as_dict()["pass"] is False
    assert [g.deck_matches for g in rep.generators] == [False, True, True]
    assert rep.generators[0].deck == affine_compose(t, wrong)
    for k in range(levels):
        assert np.array_equal(
            algebraic_action(affine_compose(t, wrong), d, k + 1),
            rep.generators[0].actions[k])


@pytest.mark.parametrize("spec,d,levels", [("A2", 2, 2), ("A1xA1", 2, 1),
                                           ("G2", 2, 1)])
def test_img_verification_lifts_every_loop_in_one_call(spec, d, levels, rs,
                                                       monkeypatch):
    rsys = rs(spec)
    batches = []
    real = monodromy.lift_paths

    def spy(rsys_, times, points, y_starts):
        batches.append(np.array(points))
        return real(rsys_, times, points, y_starts)

    monkeypatch.setattr(monodromy, "lift_paths", spy)
    rep = img_verification(rsys, d, levels)
    assert rep.passed
    assert len(batches) == 1
    y0 = basepoint_array(rsys)
    want = [make_generator_loop(rsys, g, y0).samples.points
            for _, g in standard_affine_generators(rsys)]
    assert np.array_equal(batches[0], np.stack(want, 1))


def test_img_verification_names_the_generator_of_a_lift_error(rs,
                                                              monkeypatch):
    # a cap of 1 refuses the first accepted step of every loop; the error
    # names the loop with the largest estimate by its generator's name
    a2 = rs("A2")
    y0 = basepoint_array(a2)
    gens = standard_affine_generators(a2)
    estimates = []
    for _, g in gens:
        first = lift_path(a2, make_generator_loop(a2, g, y0).samples, y0)
        estimates.append(gencos._condition_estimate(
            gencos.gencos_jacobian(a2, first.points[1])))
    worst = int(np.argmax(estimates))
    monkeypatch.setattr(gencos, "JACOBIAN_CONDITION_CAP", 1.0)
    with pytest.raises(NearSingularError) as err:
        img_verification(a2, 2, 1)
    assert err.value.path == worst
    assert err.value.value == pytest.approx(estimates[worst], rel=1e-12)
    assert str(err.value).startswith(
        f"generator {gens[worst][0]}: path {worst}: Jacobian condition "
        f"estimate")


def test_img_verification_a2_level2_vertex_count(rs):
    rep = img_verification(rs("A2"), 2, 2)
    assert len(rep.generators[0].actions[1]) == 16


def test_img_verification_reducible(rs):
    # product systems get one highest-root generator per factor
    rep = img_verification(rs("A1xA1"), 2, 2)
    assert rep.passed
    assert [g.name for g in rep.generators] == ["s1", "s2", "a0", "a1"]
    assert rep.group_orders[-1]["algebraic"] == 64  # square of the rank-one order


def test_img_caps_refuse_oversized(rs):
    from weylcheb.gencos import PathSample
    # entries: (rank + factors) generators times sum_k d^(k * rank); the
    # products have at most 2^18 vertices, which the old vertex cap accepted
    for spec, d, levels, vertices, entries in (
            ("B3", 3, 4, 531441, 4 * (27 + 729 + 19683 + 531441)),
            ("A3", 10, 2, 10 ** 6, 4 * (10 ** 3 + 10 ** 6)),
            ("A1", 2, 19, 524288, 2 * (2 ** 20 - 2)),
            ("A1xA1xA1", 2, 6, 2 ** 18, 6 * sum(8 ** k for k in range(1, 7))),
            ("x".join(["A1"] * 6), 2, 3, 2 ** 18, 12 * (64 + 4096 + 2 ** 18)),
            ("x".join(["A1"] * 9), 2, 2, 2 ** 18, 18 * (2 ** 9 + 2 ** 18))):
        rsys = rs(spec)
        # numeric_monodromy refuses with the same message, before any lift
        still = Loop(PathSample(np.array([0.0, 1.0]),
                                np.zeros((2, rsys.rank), dtype=complex)))
        for refuse in (lambda: check_img_caps(rsys, d, levels),
                       lambda: numeric_monodromy(rsys, d, still, levels)):
            with pytest.raises(CapExceededError) as exc:
                refuse()
            msg = str(exc.value)
            assert f"{vertices} vertices" in msg and "above cap 1310720" in msg
            assert f"hold {entries} entries" in msg
            assert entries > ENTRY_CAP


def test_img_caps_accept_a_full_size_level(rs):
    # 1048572, 1048572 and 1198368 entries: the runs measured under budget
    check_img_caps(rs("A1"), 2, 18)
    check_img_caps(rs("A2"), 2, 9)
    check_img_caps(rs("B3"), 2, 6)


def test_img_caps_count_entries_in_closed_form(rs):
    # the refusal is decided by the same entry count at every degree,
    # d = 1 included (one vertex per level)
    for spec, d in (("A1", 1), ("A1", 2), ("A2", 3), ("B3xA1", 2)):
        rsys = rs(spec)
        gens = rsys.rank + len(rsys.factors)
        for levels in range(1, 40):
            entries = gens * sum(d ** (k * rsys.rank)
                                 for k in range(1, levels + 1))
            if entries <= ENTRY_CAP:
                check_img_caps(rsys, d, levels)
            else:
                with pytest.raises(CapExceededError,
                                   match=f"hold {entries} entries"):
                    check_img_caps(rsys, d, levels)


def test_img_verification_refuses_large_weyl_group_before_lifting(
        rs, monkeypatch):
    def no_lift(*args, **kwargs):
        raise AssertionError("lift_path called")

    monkeypatch.setattr(monodromy, "lift_path", no_lift)
    monkeypatch.setattr(monodromy, "lift_paths", no_lift)
    with pytest.raises(CapExceededError, match="order 51840"):
        img_verification(rs("E6"), 2, 1)


def test_img_verification_refuses_d5_after_a_larger_cap_filled_the_cache(
        monkeypatch):
    # |W(D5)| = 1920 > WEYL_CAP: enumerating it once under a larger cap does
    # not let img_verification through
    def no_lift(*args, **kwargs):
        raise AssertionError("lift_path called")

    d5 = build_root_system("D5")
    weyl_group_elements(d5, cap=10 ** 4)
    monkeypatch.setattr(monodromy, "lift_path", no_lift)
    monkeypatch.setattr(monodromy, "lift_paths", no_lift)
    with pytest.raises(CapExceededError, match="order 1920, above cap 1152"):
        img_verification(d5, 2, 1)


def test_generator_order_two_everywhere(rs):
    for spec, d, k in (("A2", 2, 2), ("B2", 2, 2)):
        rsys = rs(spec)
        for _, g in standard_affine_generators(rsys):
            for lvl in range(1, k + 1):
                act = algebraic_action(g, d, lvl)
                assert perm_order(act) in (1, 2)
                if not _is_identity(act):
                    assert perm_order(act) == 2


def test_faithfulness_growth(rs):
    # nonidentity elements with small translations act nontrivially at depth k
    from weylcheb.rootsys import AffineElement
    rng = random.Random(44)
    for spec, d, k in (("A1", 2, 3), ("A2", 2, 2), ("B2", 2, 2)):
        rsys = rs(spec)
        for w in weyl_group_elements(rsys):
            for _ in range(5):
                t = tuple(rng.randint(-d ** (k - 1), d ** (k - 1))
                          for _ in range(rsys.rank))
                g = AffineElement(t, w)
                if g.is_identity():
                    continue
                act = algebraic_action(g, d, k)
                witness = next(
                    (i for i, j in enumerate(act.tolist()) if i != j), None)
                assert witness is not None
