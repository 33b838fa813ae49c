"""Exact root system construction, reflections, orbits, and the affine group."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from weylcheb import rootsys
from weylcheb.chebmap import height_vector
from weylcheb.errors import CapExceededError, TypeSpecError
from weylcheb.rootsys import (
    WEYL_CAP,
    AffineElement,
    Root,
    RootSystem,
    affine_apply,
    affine_compose,
    affine_identity,
    affine_inverse,
    build_root_system,
    dominant_weight,
    dot,
    highest_roots,
    mat_vec,
    orbit,
    orbit_size,
    parse_type_spec,
    positive_root_rows,
    reflection_element,
    rho_vee,
    solve_fraction,
    translation_element,
    verify_axioms,
    fundamental_orbit_table,
    weyl_group_elements,
    weyl_order,
)

from root_oracles import (apply_weight, orbit_bfs, orbit_matrix,
                          positive_roots, roots_by_matrix_closure,
                          simple_reflection, weyl_bfs, weyl_elements)

ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "A4": 20,
    "B2": 8, "B3": 18, "B4": 32,
    "C3": 18, "C4": 32,
    "D4": 24,
    "G2": 12, "F4": 48,
    "E6": 72, "E7": 126, "E8": 240,
    "A1xA1": 4, "B3xA1": 20,
}

WEYL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "B4": 384,
    "C3": 48, "C4": 384,
    "D4": 192,
    "G2": 12, "F4": 1152,
    "A1xA1": 4,
}

# more literal orders, most of them beyond WEYL_CAP
MORE_WEYL_ORDERS = {
    "A5": 720, "C5": 3840, "D6": 23040,
    "E6": 51840, "E7": 2903040, "E8": 696729600,
    "B3xA1": 96, "G2xA2": 72,
}


# --- construction -----------------------------------------------------------

def test_a1_roots():
    rsys = build_root_system("A1")
    assert {v.weight_coords for v in rsys.roots} == {(2,), (-2,)}
    assert rsys.roots[0].coroot_coords == (1,)
    assert rsys.roots[0].length_sq == 2


def test_a2_cartan_and_count():
    rsys = build_root_system("A2")
    assert rsys.cartan == ((2, -1), (-1, 2))
    assert len(rsys.roots) == 6


def test_g2_two_lengths_ratio_sqrt3():
    rsys = build_root_system("G2")
    assert len(rsys.roots) == 12
    lengths = sorted({v.length_sq for v in rsys.roots})
    assert lengths == [2, 6]  # ratio sqrt(3)


@pytest.mark.parametrize("spec,count", sorted(ROOT_COUNTS.items()))
def test_root_counts(spec, count, rs):
    assert len(rs(spec).roots) == count


CLOSURE_SPECS = (
    [f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)] + [f"D{r}" for r in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "B3xA1", "C2xG2", "D4xA2xE6"])


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_roots_match_the_matrix_closure(spec):
    # the reflection formula closes the roots in the order, and with the
    # coroots and lengths, that the reflection matrices give
    rsys = build_root_system(spec)
    assert rsys.roots == roots_by_matrix_closure(rsys)


def test_reducible_block_cartan():
    rsys = build_root_system("A1xA1")
    assert rsys.cartan == ((2, 0), (0, 2))
    assert verify_axioms(rsys).all_pass


@pytest.mark.parametrize("bad", ["Z9", "A0", "B1", "E9", "F2", "G5", "", "xA1"])
def test_bad_specs_rejected(bad):
    with pytest.raises(TypeSpecError):
        build_root_system(bad)


def test_one_instance_per_spec():
    f4 = build_root_system("F4")
    assert build_root_system("F4") is f4
    # keyed on the spec string as given, which outputs echo
    assert build_root_system("B3xA1") is not build_root_system("B3 x A1")
    assert build_root_system("B3 x A1").type_spec == "B3 x A1"
    # an uncached build is a new, equal instance
    fresh = build_root_system.__wrapped__("F4")
    assert fresh is not f4 and fresh.roots == f4.roots


def test_bad_spec_raises_on_every_call():
    # exceptions are not cached: the second call parses again and raises
    for _ in range(3):
        with pytest.raises(TypeSpecError, match="cannot parse factor 'Z9'"):
            build_root_system("Z9")


def test_shared_instance_has_no_list_fields():
    rsys = build_root_system("B3xA1")
    assert rsys.factors == (("B", 3, 0), ("A", 1, 3))
    assert parse_type_spec("B3xA1") == (("B", 3), ("A", 1))
    for value in vars(rsys).values():
        assert not isinstance(value, list)


def test_gram_matches_cartan(rs):
    # C[j][k] = (length_sq[k] / 2) * G[j][k], exactly
    for spec in ("A2", "B2", "G2", "F4"):
        rsys = rs(spec)
        for j in range(rsys.rank):
            for k in range(rsys.rank):
                assert rsys.cartan[j][k] == Fraction(rsys.lengths[k], 2) * rsys.gram[j][k]


# --- axioms -----------------------------------------------------------------

@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B2", "B3", "C3", "D4",
                                  "G2", "F4", "A1xA1", "B3xA1"])
def test_axioms_pass(spec, rs):
    assert verify_axioms(rs(spec)).all_pass


def test_axioms_fail_with_deleted_root():
    rsys = build_root_system("B2")
    broken = RootSystem(rsys.type_spec, rsys.factors, rsys.cartan, rsys.gram,
                        rsys.lengths, rsys.roots[:-1])
    report = verify_axioms(broken)
    closure = next(c for c in report.checks if c.name == "closure")
    assert not closure.passed
    assert closure.witness is not None


@pytest.mark.parametrize("spec", ["B2", "G2", "F4", "B3xA1"])
def test_closure_witness_is_the_first_pair_off_the_roots(spec):
    # the first (v, w) in root order whose s_v(w) is not a root, found by
    # reflecting each pair in Python, with one root deleted or tripled
    rsys = build_root_system(spec)
    v = rsys.roots[2]
    tripled = Root(tuple(3 * c for c in v.weight_coords), v.coroot_coords,
                   v.length_sq)
    for roots in (rsys.roots[1:], rsys.roots[:-1],
                  (*rsys.roots, tripled)):
        have = {r.weight_coords for r in roots}
        want = next((a, b) for a in roots for b in roots
                    if tuple(x - dot(b.weight_coords, a.coroot_coords) * y
                             for x, y in zip(b.weight_coords,
                                             a.weight_coords)) not in have)
        closure = _check(verify_axioms(_with_roots(rsys, roots)), "closure")
        assert not closure.passed and closure.witness == want


def _with_roots(rsys, roots):
    return RootSystem(rsys.type_spec, rsys.factors, rsys.cartan, rsys.gram,
                      rsys.lengths, tuple(roots))


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_axioms_fail_with_a_doubled_root():
    rsys = build_root_system("B2")
    v = rsys.roots[1]
    double = Root(tuple(2 * c for c in v.weight_coords), v.coroot_coords,
                  v.length_sq)
    report = verify_axioms(_with_roots(rsys, [*rsys.roots, double]))
    multiples = _check(report, "multiples")
    assert not multiples.passed
    # the first pair in root order: v against its double
    assert multiples.witness == (v, double)
    assert _check(report, "span").passed


def test_axioms_fail_with_a_singular_cartan_matrix():
    # A2's roots over a Cartan matrix of rank one: the simple roots no
    # longer span, and the witness is the matrix
    rsys = build_root_system("A2")
    singular = ((2, -2), (-1, 1))
    fake = RootSystem(rsys.type_spec, rsys.factors, singular, rsys.gram,
                      rsys.lengths, rsys.roots)
    report = verify_axioms(fake)
    span = _check(report, "span")
    assert not span.passed and span.witness == singular
    assert report.as_dict()["span"] == {"pass": False,
                                        "witness": [[2, -2], [-1, 1]]}
    assert not report.all_pass


def test_axioms_fail_with_a_wrong_length():
    # <v, v^vee> is still 2, but len_v <v^vee, v^vee> is no longer 4
    rsys = build_root_system("G2")
    roots = list(rsys.roots)
    v = roots[0]
    roots[0] = Root(v.weight_coords, v.coroot_coords, v.length_sq + 2)
    report = verify_axioms(_with_roots(rsys, roots))
    integrality = _check(report, "integrality")
    assert not integrality.passed
    assert integrality.witness == (roots[0], "length_sq mismatch")
    assert _check(report, "multiples").passed
    assert _check(report, "closure").passed


def test_axioms_fail_with_a_coroot_off_its_root():
    # <v, v^vee> = 1 instead of 2: the coroot check names v
    rsys = build_root_system("A2")
    roots = list(rsys.roots)
    v = roots[0]
    roots[0] = Root(v.weight_coords, (1, 1), v.length_sq)
    integrality = _check(verify_axioms(_with_roots(rsys, roots)),
                         "integrality")
    assert not integrality.passed
    assert integrality.witness == (roots[0], "coroot mismatch")


def test_axioms_fail_with_a_pairing_off_the_other_roots():
    # v = (2, 0) of A1xA1 with coroot (1, 1) and length 1: <v, v^vee> = 2
    # and len_v <v^vee, v^vee> = 4 still hold, but the pairing with the
    # second factor's root w does not, len_w <v, w^vee> = 0 against
    # len_v <w, v^vee> = 2
    rsys = build_root_system("A1xA1")
    roots = list(rsys.roots)
    i = next(k for k, r in enumerate(roots) if r.weight_coords == (2, 0))
    roots[i] = Root((2, 0), (1, 1), 1)
    integrality = _check(verify_axioms(_with_roots(rsys, roots)),
                         "integrality")
    assert not integrality.passed
    w = integrality.witness[1]
    assert integrality.witness[0] == roots[i] and w.weight_coords[0] == 0


# --- reflections ------------------------------------------------------------

def test_reflect_fixes_wall_points():
    rsys = build_root_system("A2")
    v = rsys.roots[0]
    # x with <v, x> = ell stays fixed
    x = (Fraction(1, 2), Fraction(0))
    ell = sum(a * b for a, b in zip(v.weight_coords, x))
    assert affine_apply(reflection_element(v, ell), x) == x


def test_reflect_is_involution():
    rng = random.Random(0)
    for spec in ("A2", "B2", "G2"):
        rsys = build_root_system(spec)
        for _ in range(20):
            v = rng.choice(rsys.roots)
            ell = rng.randint(-3, 3)
            x = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                      for _ in range(rsys.rank))
            g = reflection_element(v, ell)
            assert affine_apply(g, affine_apply(g, x)) == x


def test_reflect_a1_example():
    rsys = build_root_system("A1")
    v = rsys.roots[0]
    assert (affine_apply(reflection_element(v, 0), (Fraction(1, 2),))
            == (Fraction(-1, 2),))


# --- Weyl group and orbits --------------------------------------------------

@pytest.mark.parametrize("spec,order", sorted(WEYL_ORDERS.items()))
def test_weyl_group_sizes(spec, order, rs):
    assert len(weyl_group_elements(rs(spec))) == order


@pytest.mark.parametrize("spec,order", sorted(
    {**WEYL_ORDERS, **MORE_WEYL_ORDERS}.items()))
def test_weyl_order(spec, order, rs):
    rsys = rs(spec)
    assert weyl_order(rsys) == order
    if order <= WEYL_CAP:
        assert len(weyl_group_elements(rsys)) == order


def test_weyl_cap_refuses_e6():
    rsys = build_root_system("E6")
    assert weyl_order(rsys) == 51840
    with pytest.raises(CapExceededError):
        weyl_group_elements(rsys)


def test_weyl_cap_holds_after_a_larger_cap_filled_the_cache():
    # the enumeration is cached on the RootSystem; the cap is not
    rsys = build_root_system("D5")
    assert len(weyl_group_elements(rsys, cap=10 ** 4)) == 1920
    with pytest.raises(CapExceededError, match="order 1920, above cap 1152"):
        weyl_group_elements(rsys)
    with pytest.raises(CapExceededError, match="above cap 1919"):
        weyl_group_elements(rsys, cap=1919)
    assert len(weyl_group_elements(rsys, cap=1920)) == 1920


# every irreducible type with |W| up to WEYL_CAP, D5 (1920) and products
SMALL_WEYL_SPECS = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D3",
    "D4", "D5", "F4", "G2", "A1xA1", "A1xA1xA1", "A2xB2", "B3xA1", "C2xG2",
    "G2xA2"]


@pytest.mark.parametrize("spec", SMALL_WEYL_SPECS)
def test_weyl_elements_match_element_wise_search(spec, rs):
    # the array holds the search's weight matrices in its order, and their
    # contragredients are the search's coroot matrices
    rsys = rs(spec)
    got = weyl_group_elements(rsys, cap=1920)
    want = weyl_bfs(rsys)
    assert len(got) == len(want) == weyl_order(rsys)
    assert got.dtype == np.int64 and got.shape[1:] == (rsys.rank,) * 2
    assert not got.flags.writeable
    assert weyl_group_elements(rsys, cap=1920) is got
    assert got.tolist() == [list(map(list, b.weight_matrix)) for b in want]
    for a, b in zip(weyl_elements(rsys, cap=1920), want):
        assert a.weight_matrix == b.weight_matrix
        assert a.coroot_matrix == b.coroot_matrix
        assert all(type(c) is int for row in a.coroot_matrix for c in row)


@pytest.mark.parametrize("spec", ["A1", "A3", "B3xA1", "G2", "F4"])
def test_orbit_matrix_slices_the_stacked_table(spec, rs):
    rsys = rs(spec)
    rows, starts = fundamental_orbit_table(rsys)
    assert len(starts) == rsys.rank and starts[0] == 0
    blocks = [orbit_matrix(rsys, k) for k in range(rsys.rank)]
    assert sum(len(b) for b in blocks) == len(rows)
    for k, block in enumerate(blocks):
        omega = rsys.fundamental_weight(k)
        assert block.tolist() == [list(r) for r in orbit_bfs(rsys, omega)]
        assert not block.flags.writeable
        # orbit() hands out the table's own rows, not a copy
        assert np.shares_memory(orbit(rsys, omega), rows)


def test_weyl_elements_preserve_roots(rs):
    for spec in ("A2", "B2", "G2"):
        rsys = rs(spec)
        root_set = {v.weight_coords for v in rsys.roots}
        for w in weyl_elements(rsys):
            assert {apply_weight(w, v) for v in root_set} == root_set


def test_weyl_matrices_integer_invertible(rs):
    for spec in ("A2", "B2", "G2", "F4"):
        for w in weyl_elements(rs(spec)):
            winv = w.inverse()
            assert all(isinstance(c, int) for row in winv.coroot_matrix for c in row)
            assert w.compose(winv).is_identity()


def test_orbit_sizes():
    a2 = build_root_system("A2")
    assert len(orbit(a2, (1, 0))) == 3
    assert orbit(a2, (0, 0)).tolist() == [[0, 0]]
    a1 = build_root_system("A1")
    assert orbit(a1, (1,)).tolist() == [[-1], [1]]


def _orbit_cases(rsys):
    """0, each omega_k and 2 omega_k, omega_1 + omega_n, and three weights
    that are not dominant, each with an orbit of at most 2000 rows."""
    n = rsys.rank
    cases = [(0,) * n, tuple(1 if j in (0, n - 1) else 0 for j in range(n))]
    for k in range(n):
        cases += [rsys.fundamental_weight(k),
                  tuple(2 if j == k else 0 for j in range(n))]
    rng = random.Random(3)
    while len(cases) < 2 * n + 5:
        lam = tuple(rng.randint(-2, 2) for _ in range(n))
        if (min(lam) < 0
                and orbit_size(rsys, dominant_weight(rsys, lam)) <= 2000):
            cases.append(lam)
    return cases


@pytest.mark.parametrize("spec", ["A1", "A2", "B3", "C3", "G2", "F4", "E6",
                                  "B3xA1"])
def test_orbit_matches_the_closure_oracle(spec):
    # the level walk from the dominant weight gives the sorted orbit that
    # closure under the simple reflections gives, from any weight of it; a
    # fresh instance enumerates every orbit itself
    rsys = build_root_system.__wrapped__(spec)
    for lam in _orbit_cases(rsys):
        rows = orbit(rsys, lam)
        assert rows.dtype == np.int64 and not rows.flags.writeable
        assert rows.tolist() == [list(mu) for mu in orbit_bfs(rsys, lam)], lam


def test_an_orbit_is_enumerated_once_from_any_of_its_weights():
    a2 = build_root_system.__wrapped__("A2")
    assert orbit(a2, (-2, 1)) is orbit(a2, (1, 1)) is orbit(a2, (2, -1))


def test_row_codes_tell_rows_apart_and_refuse_past_int64():
    rng = random.Random(4)
    rows = np.array([[rng.randint(-3, 3) for _ in range(4)]
                     for _ in range(300)], dtype=np.int64)
    codes = rootsys._row_codes(rows, 3)
    pairs = {(tuple(r), c) for r, c in zip(rows.tolist(), codes.tolist())}
    rows_seen, codes_seen = zip(*pairs)
    assert len(pairs) == len(set(rows_seen)) == len(set(codes_seen))
    # 7^22 < 2^64 < 7^23: entries in [-3, 3] fit 22 to a row, not 23
    assert rootsys._row_codes(np.full((1, 22), -3, dtype=np.int64), 3) == -(
        7 ** 22 - 1) // 2
    with pytest.raises(CapExceededError, match="int64"):
        rootsys._row_codes(np.zeros((1, 23), dtype=np.int64), 3)


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                  "C3", "D4", "G2", "F4"])
def test_regular_orbit_size_is_group_order(spec, rs):
    rsys = rs(spec)
    lam = tuple([1] * rsys.rank)
    assert len(orbit(rsys, lam)) == len(weyl_group_elements(rsys))


def test_orbit_size_divides_group_order(rs):
    rng = random.Random(1)
    for spec in ("A2", "B2", "G2"):
        rsys = rs(spec)
        order = len(weyl_group_elements(rsys))
        for _ in range(10):
            lam = tuple(rng.randint(0, 3) for _ in range(rsys.rank))
            assert order % len(orbit(rsys, lam)) == 0


# --- dominant representatives ------------------------------------------------

def test_dominant_weight_identity_on_dominant():
    a2 = build_root_system("A2")
    assert dominant_weight(a2, (2, 1)) == (2, 1)


def test_dominant_weight_a2_example():
    a2 = build_root_system("A2")
    assert dominant_weight(a2, (-1, 1)) == (1, 0)
    assert apply_weight(simple_reflection(a2, 0), (-1, 1)) == (1, 0)


def test_dominant_weight_property():
    # the walk ends on the one dominant weight of lam's orbit
    rng = random.Random(2)
    for spec in ("A2", "B2", "G2", "A3"):
        rsys = build_root_system(spec)
        for _ in range(100):
            lam = tuple(rng.randint(-6, 6) for _ in range(rsys.rank))
            dominant = [tuple(mu) for mu in orbit(rsys, lam).tolist()
                        if min(mu) >= 0]
            assert dominant == [dominant_weight(rsys, lam)]


@pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3", "B3", "D4", "B3xA1"])
def test_orbit_size_counts_orbit(spec, rs):
    rsys = rs(spec)
    for nu in itertools.product(range(3), repeat=rsys.rank):
        assert orbit_size(rsys, nu) == len(orbit(rsys, nu)), nu


def test_orbit_size_refuses_a_non_integer_product():
    # of A2's roots only +-(a_1 + a_2), of height 2: Macdonald's product
    # is 3/2
    a2 = build_root_system("A2")
    fake = RootSystem(a2.type_spec, a2.factors, a2.cartan, a2.gram,
                      a2.lengths, tuple(v for v in a2.roots
                                        if abs(sum(v.coroot_coords)) == 2))
    with pytest.raises(RuntimeError, match="not an integer: 3/2"):
        orbit_size(fake, (1, 1))


def test_orbit_size_refuses_non_dominant():
    with pytest.raises(ValueError):
        orbit_size(build_root_system("A2"), (1, -1))


# --- affine group ------------------------------------------------------------

def test_affine_identity_applies():
    e = affine_identity(2)
    assert affine_apply(e, (Fraction(1, 3), Fraction(2, 7))) == (Fraction(1, 3), Fraction(2, 7))


def test_reflection_factors_through_translation():
    for spec in ("A2", "B2", "G2"):
        rsys = build_root_system(spec)
        for v in rsys.roots:
            for ell in (-2, 1, 3):
                lhs = reflection_element(v, ell)
                rhs = affine_compose(
                    translation_element(tuple(ell * c for c in v.coroot_coords)),
                    reflection_element(v, 0))
                assert lhs == rhs


def test_affine_group_axioms_random_words():
    rng = random.Random(3)
    rsys = build_root_system("B2")
    gens = [reflection_element(v, ell)
            for v in rsys.simple_roots for ell in (0, 1)]
    for _ in range(100):
        g = affine_identity(rsys.rank)
        for _ in range(rng.randint(1, 6)):
            g = affine_compose(g, rng.choice(gens))
        assert affine_compose(g, affine_inverse(g)) == affine_identity(rsys.rank)
        # associativity on a random triple
        a, b, c = (rng.choice(gens) for _ in range(3))
        assert affine_compose(affine_compose(a, b), c) == affine_compose(a, affine_compose(b, c))


def test_affine_apply_matches_reflect():
    # the affine reflection is x - (<v, x> - ell) v^vee
    rng = random.Random(4)
    rsys = build_root_system("G2")
    for _ in range(50):
        v = rng.choice(rsys.roots)
        ell = rng.randint(-2, 2)
        x = tuple(Fraction(rng.randint(-9, 9), 7) for _ in range(rsys.rank))
        shift = dot(v.weight_coords, x) - ell
        assert affine_apply(reflection_element(v, ell), x) == tuple(
            a - shift * c for a, c in zip(x, v.coroot_coords))


@pytest.mark.parametrize("spec", ["A1", "A2", "B2"])
def test_affine_generators_reach_coroot_translations(spec):
    # bounded closure over {rho_{v,ell}: v simple or lowest root, ell in {0,1}}
    rsys = build_root_system(spec)
    from weylcheb.rootsys import highest_roots
    theta = highest_roots(rsys)[0]
    lowest = next(v for v in rsys.roots
                  if v.weight_coords == tuple(-c for c in theta.weight_coords))
    gens = [reflection_element(v, ell)
            for v in list(rsys.simple_roots) + [lowest] for ell in (0, 1)]
    targets = {translation_element(tuple(1 if i == k else 0 for i in range(rsys.rank)))
               for k in range(rsys.rank)}
    seen = {affine_identity(rsys.rank)}
    frontier = list(seen)
    for _ in range(8):  # word length bound
        nxt = []
        for g in frontier:
            for s in gens:
                h = affine_compose(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
        if targets <= seen:
            break
    assert targets <= seen


def test_positive_roots_half():
    for spec in ("A2", "B2", "G2", "A3"):
        rsys = build_root_system(spec)
        assert len(positive_roots(rsys)) * 2 == len(rsys.roots)


@pytest.mark.parametrize("spec", ["A1", "G2", "B3xA1", "F4", "E7"])
def test_positive_root_rows_are_the_oracle_roots(spec):
    # one read-only int64 table per root system, row i the weight
    # coordinates of the i-th positive root of the oracle
    rsys = build_root_system(spec)
    rows = positive_root_rows(rsys)
    assert rows.dtype == np.int64 and not rows.flags.writeable
    assert rows.tolist() == [list(v.weight_coords)
                             for v in positive_roots(rsys)]
    assert positive_root_rows(rsys) is rows


def invert_fraction(a):
    """Exact matrix inverse, returned as tuples of Fractions: the oracle for
    rho_vee and for the root data read off the coroot coordinates."""
    n = len(a)
    cols = [solve_fraction(a, [1 if i == j else 0 for i in range(n)])
            for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _cartan_inverse_roots(rsys):
    """The former derivation, kept as an oracle: simple-root coefficients
    C^{-1} w of each root's weight coordinates w; positive roots have them
    all nonnegative, and the highest root of a factor has the largest sum
    among the roots supported on it."""
    cinv = invert_fraction(rsys.cartan)
    coeffs = {v: mat_vec(cinv, v.weight_coords) for v in rsys.roots}
    positive = tuple(v for v in rsys.roots if min(coeffs[v]) >= 0)
    highest = []
    for _, r, off in rsys.factors:
        inside = [v for v in rsys.roots
                  if not any(c for i, c in enumerate(coeffs[v])
                             if not off <= i < off + r)]
        highest.append(max(inside, key=lambda v: sum(coeffs[v])))
    return positive, tuple(highest)


CARTAN_INVERSE_SPECS = [
    "A1", "A2", "A3", "A5", "B2", "B3", "B5", "C3", "C4", "D4", "D5", "E6",
    "E7", "E8", "F4", "G2", "A1xA1", "B3xA1", "C2xG2", "D4xA2",
    "G2xB2xA3"]


@pytest.mark.parametrize("spec", CARTAN_INVERSE_SPECS)
def test_roots_from_coroot_coords_match_cartan_inverse(spec):
    rsys = build_root_system(spec)
    positive, highest = _cartan_inverse_roots(rsys)
    assert positive_roots(rsys) == positive
    assert highest_roots(rsys) == highest
    assert len(highest) == len(rsys.factors)


def _coxeter_number(letter, r):
    """The Coxeter number of an irreducible type (Bourbaki, Plates I-IX)."""
    return {"A": r + 1, "B": 2 * r, "C": 2 * r, "D": 2 * r - 2,
            "E": {6: 12, 7: 18, 8: 30}.get(r), "F": 12, "G": 6}[letter]


@pytest.mark.parametrize("spec", CARTAN_INVERSE_SPECS)
def test_rho_vee_pairs_to_one_and_h_minus_one(spec):
    rsys = build_root_system(spec)
    rho = rho_vee(rsys)
    assert [dot(v.weight_coords, rho) for v in rsys.simple_roots] == (
        [1] * rsys.rank)
    assert [dot(theta.weight_coords, rho) for theta in highest_roots(rsys)] \
        == [_coxeter_number(letter, r) - 1 for letter, r, _ in rsys.factors]
    # the synthesis height vector is rho^vee up to a positive scale
    height = height_vector(rsys)
    scale = height[0] / rho[0]
    assert scale > 0 and height == tuple(scale * c for c in rho)
    # and rho^vee is C^{-T} 1, the column sums of C^{-1}
    cinv = invert_fraction(rsys.cartan)
    assert rho == mat_vec(tuple(zip(*cinv)), [1] * rsys.rank)
