"""Monodromy: level actions, loops, path-lifting bookkeeping, and the
verification pipeline."""

import random

import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from weylcheb import monodromy
from weylcheb import gencos
from weylcheb import rootsys
from weylcheb.errors import CapExceededError, ContinuationError
from weylcheb.gencos import deck_identify, eval_gencos, is_on_diagram, lift_path
from weylcheb.monodromy import (
    ACTION_CELL_CAP,
    ENTRY_CAP,
    KERNEL_CELL_CAP,
    algebraic_action,
    basepoint_array,
    check_img_caps,
    generated_group_order,
    img_verification,
    level_order,
    make_generator_loop,
    numeric_monodromy,
    standard_affine_generators,
)
from weylcheb.rootsys import (
    AffineElement,
    affine_apply,
    affine_compose,
    affine_identity,
    affine_inverse,
    build_root_system,
    dot,
    reflection_element,
    rho_vee,
    translation_element,
    weyl_order,
)

from root_oracles import (A1_LOOP_BASEPOINT, a1_standard_loops,
                          action_by_radix_loops, affine_element_order,
                          concat_loops, first_step_wall_ratios,
                          group_order_by_weyl_count, loop_of, perm_order,
                          positive_roots, weyl_elements, wreath_digit_step)

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


def _level_grid(spec, rsys):
    """The standard generators and 12 random affine elements (a random
    Weyl element, a translation in [-9, 9]), each at every degree 2, 3, 5
    and level with at most 4096 vertices."""
    rng = random.Random(sum(map(ord, spec)))
    elems = weyl_elements(rsys)
    gens = [g for _, g in standard_affine_generators(rsys)]
    gens += [AffineElement(tuple(rng.randint(-9, 9)
                                 for _ in range(rsys.rank)),
                           rng.choice(elems)) for _ in range(12)]
    for d in (2, 3, 5):
        for k in range(1, 13):
            if d ** (k * rsys.rank) > 4096:
                break
            for g in gens:
                yield g, d, k


LEVEL_GRID_TYPES = ["A1", "A2", "B2", "C3", "G2", "A3", "B3", "A1xA1",
                    "D4", "F4", "B3xA1"]


@pytest.mark.parametrize("spec", LEVEL_GRID_TYPES)
def test_action_equals_the_radix_loop_oracle(rs, spec):
    # index arithmetic gives the image array the coordinate loops gave,
    # vertex order included
    for g, d, k in _level_grid(spec, rs(spec)):
        act = algebraic_action(g, d, k)
        assert act.dtype == np.int64
        assert np.array_equal(act, action_by_radix_loops(g, d, k))


@pytest.mark.parametrize("spec", LEVEL_GRID_TYPES)
def test_level_order_equals_the_cycle_walk(rs, spec):
    # the closed form r * m / gcd(m, T) is the lcm of the printed
    # permutation's cycle lengths
    pairs = 0
    for g, d, k in _level_grid(spec, rs(spec)):
        assert level_order(g, d ** k) == perm_order(algebraic_action(g, d, k))
        pairs += 1
    assert pairs >= 3 * (rs(spec).rank + len(rs(spec).factors) + 12)


def test_level_order_one_where_a_reflection_is_trivial_mod_two(rs):
    # B2's s1 and C3's s3 are the identity mod 2 and act trivially at
    # m = 2, but not at m = 4; the affine generator a0 never does
    for spec, name in (("B2", "s1"), ("C3", "s3")):
        gens = dict(standard_affine_generators(rs(spec)))
        act = algebraic_action(gens[name], 2, 1)
        assert _is_identity(act) and level_order(gens[name], 2) == 1
        assert level_order(gens[name], 4) == 2 == perm_order(
            algebraic_action(gens[name], 2, 2))
        assert level_order(gens["a0"], 2) == 2


def test_level_order_is_exact_past_int64(rs):
    # the odometer's order is m itself, and a reflection's is 2
    m = 10 ** 30
    assert level_order(translation_element((1,)), m) == m
    assert level_order(translation_element((3, 0)), 2 ** 70) == 2 ** 70
    s1 = dict(standard_affine_generators(rs("A2")))["s1"]
    assert level_order(s1, m) == 2


def test_report_orders_are_the_printed_permutations_orders(rs):
    rep = img_verification(rs("B2"), 3, 2).as_dict()
    for gen in rep["generators"]:
        for lvl in gen["levels"]:
            assert lvl["order"] == perm_order(np.array(lvl["algebraic_perm"]))


# --- wreath recursion (the test oracle in root_oracles) -------------------------------

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
        path = make_generator_loop(rsys, g)
        y0 = basepoint_array(rsys)
        assert np.array_equal(path(0.0), y0)
        assert np.abs(path(1.0) - affine_apply(g, y0)).max() < 1e-15
        loop = loop_of(rsys, path)
        assert np.abs(loop(0.0) - loop(1.0)).max() < 1e-12
        ys = np.array([path(t) for t in np.linspace(0, 1, 65)])
        assert not any(is_on_diagram(rsys, y, 1e-3)[0] for y in ys)


def test_generator_loop_rejects_identity(rs):
    with pytest.raises(ValueError):
        make_generator_loop(rs("A2"), affine_identity(2))


def _scan_clearance(rsys, loop_samples):
    """The oracle: the smallest |Im <v, y(t)>| over every root and every
    interior sample of the generating path."""
    roots = np.array([v.weight_coords for v in rsys.roots], dtype=float)
    return np.abs((loop_samples[1:-1] @ roots.T).imag).min()


def _generating_path(rsys, g, epsilon, num_samples):
    # the path make_generator_loop builds, rebuilt here on a grid
    y0 = basepoint_array(rsys)
    y1 = affine_apply(g, y0)
    u = monodromy._unit_direction(rsys)
    ts = np.linspace(0.0, 1.0, num_samples)
    return ((1 - ts)[:, None] * y0 + ts[:, None] * y1
            + 1j * epsilon * np.sin(np.pi * ts)[:, None] * u)


@pytest.mark.parametrize("spec", [c[0] for c in BENCH_IMG_CASES]
                         + ["B4", "F4", "C4"])
def test_clearance_bound_equals_the_wall_scan(spec, rs):
    # the clearance make_generator_loop's docstring states, |epsilon| *
    # sin(pi t) * min_v |<v, u>| at time t, is the path's least distance
    # from a wall over a sample grid; u is rho^vee / (h - 1), built once
    rsys = rs(spec)
    u = monodromy._unit_direction(rsys)
    top = max(dot(v.weight_coords, rho_vee(rsys)) for v in rsys.roots)
    assert np.array_equal(u, [float(c / top) for c in rho_vee(rsys)])
    least = min(abs(dot(v.weight_coords, u)) for v in rsys.roots)
    assert least == pytest.approx(1 / top, rel=1e-12)
    assert monodromy._unit_direction(rsys) is u  # once per root system
    for epsilon, num in ((0.1, 257), (-0.3, 33), (0.02, 1001)):
        bound = abs(epsilon) * np.sin(np.pi / (num - 1)) * least
        for _, g in standard_affine_generators(rsys):
            ys = _generating_path(rsys, g, epsilon, num)
            assert _scan_clearance(rsys, ys) == pytest.approx(bound, rel=1e-9)
    # the rebuilt path is the one make_generator_loop builds
    for _, g in standard_affine_generators(rsys):
        ys = _generating_path(rsys, g, 0.1, 257)
        path = make_generator_loop(rsys, g)
        got = np.array([path(t) for t in np.linspace(0.0, 1.0, 257)])
        assert np.abs(got - ys).max() < 1e-15
    # a bump of 1e-9 is far below what a step of MIN_STEP moves near the
    # wall the path crosses, so the lift ends in ContinuationError there;
    # the default bump lifts to its label
    y0 = basepoint_array(rsys)
    g = standard_affine_generators(rsys)[0][1]
    end = lift_path(rsys, loop_of(rsys, make_generator_loop(rsys, g)),
                    y0).points[-1]
    assert deck_identify(rsys, y0, end) == g
    with pytest.raises(ContinuationError) as exc:
        lift_path(rsys, loop_of(rsys, make_generator_loop(rsys, g,
                                                          epsilon=1e-9)), y0)
    assert 0.49 < exc.value.t < 0.5
    assert exc.value.value >= gencos.WALL_RATIO
    assert f"wall ratio {exc.value.value:.3e}" in str(exc.value)


@pytest.mark.parametrize("spec", ["A2", "G2", "B3"])
def test_tiny_epsilon_loop_is_refused(spec, rs):
    rsys = rs(spec)
    y0 = basepoint_array(rsys)
    g = standard_affine_generators(rsys)[0][1]
    path = make_generator_loop(rsys, g, epsilon=1e-12)
    with pytest.raises(ContinuationError, match=r"wall ratio \d\.\d+e[+-]\d+"):
        lift_path(rsys, loop_of(rsys, path), y0)
    # the path crosses g's wall
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
            loop = loop_of(rsys, make_generator_loop(rsys, g))
            _, deck = numeric_monodromy(rsys, 2, loop, 1)
            assert deck == g


def _long_loops(rsys, k):
    """The generators t*s1 and s1*t, t the translation by (k, 0, ...)."""
    t = translation_element((k,) + (0,) * (rsys.rank - 1))
    s1 = standard_affine_generators(rsys)[0][1]
    return affine_compose(t, s1), affine_compose(s1, t)


# the A2 inputs keep their first ids
@pytest.mark.parametrize("spec,k", [
    pytest.param("A2", 4, id="4"), pytest.param("A2", 8, id="8"),
    ("B2", 4), ("B2", 8), ("G2", 4)])
def test_long_a2_loops_lift_to_their_own_decks(spec, k, rs):
    # the loops of t*s1 and s1*t, t a translation by (k, 0), pass many walls
    # close to their ends, where the step rule halves the step; on A2
    # without it each lift jumps sheets and ends on a wrong deck element
    # (test_long_a2_loops_need_the_wall_rule)
    rsys = rs(spec)
    y0 = basepoint_array(rsys)
    for g in _long_loops(rsys, k):
        lifted = lift_path(rsys, loop_of(rsys, make_generator_loop(rsys, g,
                                                                   y0)), y0)
        assert deck_identify(rsys, y0, lifted.points[-1]) == g
        assert np.diff(lifted.times).min() < gencos.INITIAL_STEP
        _, deck = numeric_monodromy(rsys, 2, loop_of(
            rsys, make_generator_loop(rsys, g, y0)), 1)
        assert deck == g


@pytest.mark.parametrize("k", [4, 8])
def test_long_a2_loops_need_the_wall_rule(k, rs, monkeypatch):
    # with a ratio bound no step can fail, every long A2 loop lifts to a
    # wrong deck element, with no error
    a2 = rs("A2")
    y0 = basepoint_array(a2)
    monkeypatch.setattr(gencos, "WALL_RATIO", 1e9)
    for g in _long_loops(a2, k):
        lifted = lift_path(a2, loop_of(a2, make_generator_loop(a2, g, y0)),
                           y0)
        assert deck_identify(a2, y0, lifted.points[-1]) != g


def test_long_a2_loop_needs_a_small_first_step(rs, monkeypatch):
    # begun at MAX_STEP, the lift of s1*t, t the translation by (4, 0),
    # raises no error and ends on the translation by (4, 0), where its
    # label is a reflection with translation part (-4, 0)
    a2 = rs("A2")
    y0 = basepoint_array(a2)
    g = _long_loops(a2, 4)[1]
    path = make_generator_loop(a2, g, y0)
    assert deck_identify(a2, y0, lift_path(a2, loop_of(a2, path),
                                           y0).points[-1]) == g
    monkeypatch.setattr(gencos, "INITIAL_STEP", gencos.MAX_STEP)
    deck = deck_identify(a2, y0, lift_path(a2, loop_of(a2, path),
                                           y0).points[-1])
    assert g.t == (-4, 0)
    assert deck == translation_element((4, 0))


# --- numeric engine ------------------------------------------------------------------

def test_constant_loop_identity_monodromy(rs):
    a1 = rs("A1")
    y0 = basepoint_array(a1)
    x0 = eval_gencos(a1, y0)
    actions, deck = numeric_monodromy(a1, 2, lambda t: x0, 3)
    assert deck.is_identity()
    assert all(_is_identity(a) for a in actions)


def test_numeric_monodromy_refuses_an_open_or_misplaced_loop(rs):
    # the endpoints check that Loop made, and the basepoint check
    a2 = rs("A2")
    y0 = basepoint_array(a2)
    g = standard_affine_generators(a2)[0][1]
    y1 = affine_apply(g, y0)
    half = loop_of(a2, lambda t: y0 + 0.25 * t * (y1 - y0) + 0.1j * np.sin(
        np.pi * t))
    with pytest.raises(ValueError, match="loop endpoints differ by"):
        numeric_monodromy(a2, 2, half, 1)
    with pytest.raises(ValueError, match="not based at the image"):
        numeric_monodromy(a2, 2, loop_of(a2, make_generator_loop(a2, g)), 1,
                          y_start=y0 + 0.05)


def test_numeric_equals_algebraic_for_generators(rs):
    for spec, d, k in (("A2", 2, 2), ("A1", 2, 3)):
        rsys = rs(spec)
        y0 = basepoint_array(rsys)
        for _, g in standard_affine_generators(rsys):
            loop = loop_of(rsys, make_generator_loop(rsys, g, y0))
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
        loop = loop_of(rsys, make_generator_loop(rsys, g, y0))
        for u in itertools.product(range(2), repeat=rsys.rank):
            end = lift_path(rsys, loop, y0 - np.array(u)).points[-1]
            shift = translation_element(tuple(-c for c in u))
            assert deck_identify(rsys, y0, end) == affine_compose(shift, g)


def test_concatenation_composes_deck_elements(rs):
    a2 = rs("A2")
    y0 = basepoint_array(a2)
    gens = [g for _, g in standard_affine_generators(a2)]
    l1 = loop_of(a2, make_generator_loop(a2, gens[0], y0))
    l2 = loop_of(a2, make_generator_loop(a2, gens[2], y0))
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
    pts = np.array([plus(t)[0] for t in np.linspace(0, 1, 257)])
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
def test_group_order_e6_e7_level_one(rs, spec, order, monkeypatch):
    # |W| * vertices is twice the E7 order: -1 in W(E7) acts trivially mod 2.
    # The closed form enumerates no Weyl group
    acts = _affine_level_actions(rs(spec), 2, 1)
    assert _sympy_order(acts) == order
    monkeypatch.setattr(rootsys, "_weyl_group_elements", _no_weyl)
    assert generated_group_order(rs(spec), 2, 1) == order


def _no_weyl(*args, **kwargs):
    raise AssertionError("the Weyl group was enumerated")


@pytest.mark.parametrize("spec", ["E6", "E7", "E8", "B5", "C5", "D5", "D6",
                                  "A5", "C2xG2"])
def test_group_order_matches_sympy_at_level_one(rs, spec):
    # the kernel mod 2 of each factor (C_r: every sign change; D5, E6, A5:
    # none; the others: -1) against sympy's order of the level-1 actions
    rsys = rs(spec)
    assert generated_group_order(rsys, 2, 1) == \
        _sympy_order(_affine_level_actions(rsys, 2, 1))


# types whose Weyl group the counting oracle enumerates (|W| <= 5040)
COUNT_SPECS = ("A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5",
               "C2", "C3", "C4", "C5", "D3", "D4", "D5", "F4", "G2", "A1xA1",
               "B3xA1", "C2xG2", "A2xG2", "C3xA2")


@pytest.mark.parametrize("spec", COUNT_SPECS)
def test_group_order_matches_the_weyl_count(rs, spec):
    # m = 1 to 4, and m = 8 and 9 at level two or three: the closed form
    # against m^n |W| / #{w == I mod m} counted over the enumerated W
    rsys = rs(spec)
    for d, k in ((1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (2, 3), (3, 2)):
        assert generated_group_order(rsys, d, k) == \
            group_order_by_weyl_count(rsys, d, k, cap=5040), (d, k)


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
    # ends, where the step rule keeps its lift on one sheet
    a2, d, levels = rs("A2"), 2, 2
    t = translation_element((d ** levels, 0))
    wrong = standard_affine_generators(a2)[0][1]
    build = monodromy.make_generator_loop

    def mislabeled(rsys, gens, *args, **kwargs):
        return build(rsys, [affine_compose(t, g) if g == wrong else g
                            for g in gens], *args, **kwargs)

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
    # one batch, whose target at each time is every generator loop's exact
    # value there
    rsys = rs(spec)
    batches = []
    real = monodromy.lift_paths

    def spy(rsys_, target, y_starts):
        batches.append(target)
        return real(rsys_, target, y_starts)

    monkeypatch.setattr(monodromy, "lift_paths", spy)
    rep = img_verification(rsys, d, levels)
    assert rep.passed
    assert len(batches) == 1
    y0 = basepoint_array(rsys)
    paths = [make_generator_loop(rsys, g, y0)
             for _, g in standard_affine_generators(rsys)]
    for t in (0.0, 1 / 64, 0.3, 0.5, 1.0):
        assert np.array_equal(batches[0](t),
                              [eval_gencos(rsys, p(t)) for p in paths])


def test_img_verification_names_the_generator_of_a_lift_error(rs,
                                                              monkeypatch):
    # a ratio bound of 1e-9 refuses every step; the error names the loop
    # with the largest ratio at the last step tried, MIN_STEP, by its
    # generator's name
    a2 = rs("A2")
    y0 = basepoint_array(a2)
    gens = standard_affine_generators(a2)
    ratios = first_step_wall_ratios(
        a2, [make_generator_loop(a2, g, y0) for _, g in gens], gencos.MIN_STEP)
    worst = int(np.argmax(ratios))
    monkeypatch.setattr(gencos, "WALL_RATIO", 1e-9)
    with pytest.raises(ContinuationError) as err:
        img_verification(a2, 2, 1)
    assert err.value.path == worst
    assert (err.value.t, err.value.step) == (0.0, gencos.MIN_STEP)
    assert err.value.value == pytest.approx(ratios[worst], rel=1e-4)
    assert str(err.value).startswith(
        f"generator {gens[worst][0]}: path {worst}: continuation stalled at "
        f"t=0.000000")
    assert f"wall ratio {err.value.value:.3e}" in str(err.value)


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
    # entries: (rank + factors) generators times d^(k * rank) at each level
    # k, counted up to the first level that passes the cap; A1^6 and A1^9
    # are refused at 2^18 vertices, which a vertex cap would accept
    for spec, d, levels, stop, vertices, entries in (
            ("B3", 3, 5, 5, 3 ** 15, 4 * sum(27 ** k for k in range(1, 6))),
            ("A3", 10, 2, 2, 10 ** 6, 4 * (10 ** 3 + 10 ** 6)),
            ("A1", 2, 20, 20, 2 ** 20, 2 * (2 ** 21 - 2)),
            ("A1", 2, 10 ** 8, 20, 2 ** 20, 2 * (2 ** 21 - 2)),
            ("A1xA1xA1", 2, 7, 7, 2 ** 21,
             6 * sum(8 ** k for k in range(1, 8))),
            ("x".join(["A1"] * 6), 2, 3, 3, 2 ** 18,
             12 * (64 + 4096 + 2 ** 18)),
            ("x".join(["A1"] * 9), 2, 2, 2, 2 ** 18,
             18 * (2 ** 9 + 2 ** 18))):
        rsys = rs(spec)
        # numeric_monodromy refuses with the same message, before any lift
        def still(t):
            return np.zeros(rsys.rank, dtype=complex)

        for refuse in (lambda: check_img_caps(rsys, d, levels),
                       lambda: numeric_monodromy(rsys, d, still, levels)):
            with pytest.raises(CapExceededError) as exc:
                refuse()
            msg = str(exc.value)
            assert msg == (
                f"level {stop} of {levels} needs {vertices} vertices; the "
                f"generators' permutations up to it hold {entries} entries, "
                "above cap 2621440")
            assert entries > ENTRY_CAP


def test_img_caps_accept_a_full_size_level(rs):
    # 1048572, 1048572 and 1198368 entries, and the runs measured under the
    # 200 MiB budget: 2097148, 2207520 and 2396736 entries
    check_img_caps(rs("A1"), 2, 18)
    check_img_caps(rs("A2"), 2, 9)
    check_img_caps(rs("B3"), 2, 6)
    check_img_caps(rs("A1"), 2, 19)
    check_img_caps(rs("B3"), 3, 4)
    check_img_caps(rs("A2xA2xA2"), 2, 3)


def test_img_caps_count_entries_in_closed_form(rs):
    # the refusal names the first level whose entries, in closed form,
    # pass the cap, at every degree, d = 1 included (one vertex per level)
    for spec, d in (("A1", 1), ("A1", 2), ("A2", 3), ("B3xA1", 2)):
        rsys = rs(spec)
        gens = rsys.rank + len(rsys.factors)

        def entries(k):
            return gens * sum(d ** (j * rsys.rank) for j in range(1, k + 1))

        for levels in range(1, 40):
            if entries(levels) <= ENTRY_CAP:
                check_img_caps(rsys, d, levels)
                continue
            stop = next(k for k in range(1, levels + 1)
                        if entries(k) > ENTRY_CAP)
            with pytest.raises(CapExceededError,
                               match=f"level {stop} of {levels} .* hold "
                                     f"{entries(stop)} entries"):
                check_img_caps(rsys, d, levels)


def test_img_caps_admit_no_run_the_action_cap_refuses(rs):
    # an admitted run prints its last level for n + #factors >= n + 1
    # generators, so that level's (2n + 1) * V action cells stay below
    # 2 * ENTRY_CAP <= ACTION_CELL_CAP at every rank
    assert ACTION_CELL_CAP >= 2 * ENTRY_CAP
    for n in range(1, 11):
        for spec in (f"A{n}", "x".join(["A1"] * n)):
            rsys = rs(spec)
            for d in (2, 3, 5, 10):
                deepest = 0
                while True:
                    try:
                        check_img_caps(rsys, d, deepest + 1)
                    except CapExceededError:
                        break
                    deepest += 1
                if deepest:
                    assert (2 * n + 1) * d ** (deepest * n) <= ACTION_CELL_CAP
    # the widest admitted actions of ranks one and three build
    assert len(algebraic_action(affine_identity(1), 2, 19)) == 2 ** 19
    assert len(algebraic_action(affine_identity(3), 3, 4)) == 3 ** 12


def test_img_caps_accept_e7_and_refuse_e8_by_kernel_cells(rs):
    # E7 2 1 lifts 8 loops over 17642 orbit rows (987952 cells); E8 2 1
    # lifts 9 over 881760, 63486720 cells, and is refused
    check_img_caps(rs("E7"), 2, 1)
    with pytest.raises(CapExceededError) as exc:
        check_img_caps(rs("E8"), 2, 1)
    assert str(exc.value) == (
        "lifting 9 loops over 881760 orbit rows in rank 8 holds 63486720 "
        f"complex kernel cells, above cap {KERNEL_CELL_CAP}")


@pytest.mark.parametrize("spec", ["A1", "G2", "B3xA1", "F4", "D5"])
def test_img_caps_count_kernel_cells_in_closed_form(rs, spec, monkeypatch):
    # the cells are (rank + #factors) * rows * rank, the rows those of the
    # enumerated fundamental orbits, and the cap refuses exactly above them
    rsys = rs(spec)
    rows = len(gencos.fundamental_orbit_table(rsys)[0])
    cells = (rsys.rank + len(rsys.factors)) * rows * rsys.rank
    monkeypatch.setattr(monodromy, "KERNEL_CELL_CAP", cells)
    check_img_caps(rsys, 2, 1)
    monkeypatch.setattr(monodromy, "KERNEL_CELL_CAP", cells - 1)
    with pytest.raises(CapExceededError, match=f"holds {cells} complex"):
        check_img_caps(rsys, 2, 1)


@pytest.mark.parametrize("spec,order", [("E6", 3317760), ("D5", 61440)])
def test_img_verification_passes_without_the_weyl_group(rs, monkeypatch,
                                                        spec, order):
    # |W(E6)| = 51840 and |W(D5)| = 1920 are above WEYL_CAP, which no
    # longer limits img-verify: every loop lifts to its label, and the
    # group order is closed-form
    monkeypatch.setattr(rootsys, "_weyl_group_elements", _no_weyl)
    rsys = rs(spec)
    rep = img_verification(rsys, 2, 1)
    assert rep.passed
    assert len(rep.generators) == rsys.rank + 1
    assert all(g.deck == g.label for g in rep.generators)
    assert rep.group_orders == [{"level": 1, "algebraic": order}]


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
        for w in weyl_elements(rsys):
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
