"""Orbit-sum algebra and exact synthesis of the polynomial maps."""

import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from weylcheb import chebmap
from weylcheb.chebmap import (
    PolynomialMap,
    build_cheb_map,
    compose_maps,
    decompose_to_polynomial,
    eval_poly_map,
    eval_polys,
    height_vector,
    monomial_expand,
    orbit_sum_product,
    poly_map_as_dict,
    verify_functional_equation,
)
from weylcheb.errors import DimensionError
from weylcheb.rootsys import (build_root_system, fundamental_orbit_table,
                              orbit, rho_vee, weyl_group_elements)

import fixed_point_oracle as fpo
from root_oracles import (compose_poly_maps, gencos_e_mod, jacobian_polys,
                          orbit_matrix, pair_product_full_walk)

FULL_MATRIX = [(spec, d) for spec in ("A1", "A2", "B2", "G2", "A3", "A1xA1")
               for d in (2, 3)]


# --- orbit-sum ring -----------------------------------------------------------

def test_orbit_of_zero_is_identity(rs):
    a2 = rs("A2")
    a = {(2, 1): 3, (0, 1): -1}
    assert orbit_sum_product(a2, {(0, 0): 1}, a) == a


def test_a1_square_expansion(rs):
    a1 = rs("A1")
    assert orbit_sum_product(a1, {(1,): 1}, {(1,): 1}) == {(2,): 1, (0,): 2}


def test_product_commutes(rs):
    rng = random.Random(20)
    for spec in ("A2", "B2"):
        rsys = rs(spec)
        for _ in range(10):
            a = {tuple(rng.randint(0, 2) for _ in range(2)): rng.randint(-3, 3)
                 for _ in range(2)}
            b = {tuple(rng.randint(0, 2) for _ in range(2)): rng.randint(-3, 3)
                 for _ in range(2)}
            a = {k: v for k, v in a.items() if v}
            b = {k: v for k, v in b.items() if v}
            assert orbit_sum_product(rsys, a, b) == orbit_sum_product(rsys, b, a)


# --- the stabilizer formula against the full-orbit convolution ---------------

def _convolution_product(rsys, a, b):
    """Reference product: expand both factors over their full orbits,
    convolve the exponents, and keep the dominant terms."""
    counts = {}
    for lam, ca in a.items():
        for mu, cb in b.items():
            for r in orbit(rsys, lam).tolist():
                for s in orbit(rsys, mu).tolist():
                    key = tuple(x + y for x, y in zip(r, s))
                    counts[key] = counts.get(key, 0) + ca * cb
    return {lam: c for lam, c in counts.items() if c and min(lam) >= 0}


@pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3", "B3", "D4", "F4",
                                  "B3xA1"])
def test_product_matches_convolution_oracle(spec, rs):
    rsys = rs(spec)
    rng = random.Random(24)

    def combo():
        # up to three terms, each orbit small enough for the full convolution
        out, n = {}, rng.randint(1, 3)
        while len(out) < n:
            lam = tuple(rng.randint(0, 2) for _ in range(rsys.rank))
            if len(orbit(rsys, lam)) <= 200:
                out[lam] = rng.choice((-3, -2, -1, 1, 2, 3))
        return out

    for _ in range(8):
        a, b = combo(), combo()
        assert orbit_sum_product(rsys, a, b) == _convolution_product(rsys, a, b)


@pytest.mark.parametrize("spec,d", [("G2", 12), ("F4", 2), ("A2", 24),
                                    ("B2", 16)])
def test_map_matches_convolution_oracle(spec, d, monkeypatch):
    fast = build_cheb_map(build_root_system(spec), d)
    monkeypatch.setattr(chebmap, "orbit_sum_product", _convolution_product)
    # a fresh instance, so no memoized expansion of the fast run is reused
    slow = build_cheb_map(build_root_system.__wrapped__(spec), d)
    assert fast.components == slow.components


def test_pair_table_matches_convolution_oracle(monkeypatch):
    # every pair product that F4 2 synthesis walks is the full-orbit
    # convolution of that pair; a fresh instance walks every pair it needs
    rsys = build_root_system.__wrapped__("F4")
    pairs = {}
    true_pair = chebmap._pair_product

    def recorded(rsys, lam, mu):
        pairs[lam, mu] = true_pair(rsys, lam, mu)
        return pairs[lam, mu]

    monkeypatch.setattr(chebmap, "_pair_product", recorded)
    build_cheb_map(rsys, 2)
    assert len(pairs) > 20
    assert all(lam <= mu for lam, mu in pairs)
    for (lam, mu), prod in pairs.items():
        assert prod == _convolution_product(rsys, {lam: 1}, {mu: 1})


def test_pair_table_is_hit_in_both_orders():
    # an uncached instance has walked no pair yet: the first product walks
    # the pair once, the swapped one finds it
    a2 = build_root_system.__wrapped__("A2")
    before = chebmap._pair_product.cache_info()
    first = orbit_sum_product(a2, {(1, 0): 1}, {(2, 1): 1})
    assert orbit_sum_product(a2, {(2, 1): 2}, {(1, 0): 1}) == {
        nu: 2 * c for nu, c in first.items()}
    after = chebmap._pair_product.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


@pytest.mark.parametrize("spec", ["A2", "G2", "B3", "F4", "E6"])
def test_pair_product_matches_the_full_orbit_walk(spec):
    # every pair of weights among 0, omega_k and 2 omega_k: the walk of one
    # row per W_J-orbit, weighted, gives the walk of the whole orbit; a
    # fresh instance walks every pair itself
    rsys = build_root_system.__wrapped__(spec)
    n = rsys.rank
    weights = [(0,) * n] + [tuple(c if j == k else 0 for j in range(n))
                            for c in (1, 2) for k in range(n)]
    pairs = [(lam, mu) for lam in weights for mu in weights if lam <= mu]
    for lam, mu in pairs:
        assert (chebmap._pair_product(rsys, lam, mu)
                == pair_product_full_walk(rsys, lam, mu)), (lam, mu)


def test_a_wrong_stabilizer_weight_fails_the_sum_check(monkeypatch):
    # m_(1,0) * m_(0,1) on A2 walks (0,1) and (-1,0) of W(0,1), weighted 2
    # and 1.  A size of 12 for the support (1,1) makes the first weight 4;
    # the product would still come out right, 4 * 3 / 12 = 1, but the
    # weights sum to 5, not |W (0,1)| = 3
    true_size = chebmap.orbit_size
    monkeypatch.setattr(chebmap, "orbit_size", lambda rsys, nu: true_size(
        rsys, nu) * (2 if tuple(nu) == (1, 1) else 1))
    with pytest.raises(ArithmeticError, match="sum to 5, not to"):
        orbit_sum_product(build_root_system.__wrapped__("A2"), {(1, 0): 1},
                          {(0, 1): 1})


def test_a_chamber_filter_keeping_one_row_too_many_fails(monkeypatch):
    # one row outside the J-chamber walked as well adds its weight to the
    # sum, which then passes |W small|
    true_rows = chebmap._chamber_rows

    def one_too_many(rows, big):
        kept = true_rows(rows, big)
        extra = next(r for r in rows.tolist() if r not in kept.tolist())
        return np.concatenate([kept, [extra]])

    monkeypatch.setattr(chebmap, "_chamber_rows", one_too_many)
    for spec, lam, mu in [("A2", (1, 0), (0, 1)), ("B3", (0, 2, 0), (1, 0, 0)),
                          ("G2", (0, 1), (2, 0))]:
        with pytest.raises(ArithmeticError, match="weights sum to"):
            orbit_sum_product(build_root_system.__wrapped__(spec), {lam: 1},
                              {mu: 1})


def _derived_tables(rsys):
    return (fundamental_orbit_table(rsys), weyl_group_elements(rsys),
            height_vector(rsys), rho_vee(rsys))


def test_each_table_is_built_once_per_instance():
    shared = build_root_system("B2")
    first = _derived_tables(shared)
    assert all(a is b for a, b in zip(first, _derived_tables(shared)))
    # an uncached instance of the same spec builds its own, equal tables
    fresh = build_root_system.__wrapped__("B2")
    own = _derived_tables(fresh)
    assert not any(a is b for a, b in zip(first, own))
    assert all(a is b for a, b in zip(own, _derived_tables(fresh)))
    assert np.array_equal(own[1], first[1]) and own[3] == first[3]
    assert all((a == b).all() for a, b in zip(own[0], first[0]))


def test_wrong_orbit_size_breaks_integrality(monkeypatch):
    # m_(1,0) m_(0,1) = m_(1,1) + 3 m_(0,0); with every orbit size one too
    # large, two hits on (1,1) give 2 * 4 / 7, which must raise
    true_size = chebmap.orbit_size
    monkeypatch.setattr(chebmap, "orbit_size",
                        lambda rsys, nu: true_size(rsys, nu) + 1)
    with pytest.raises(ArithmeticError, match="not an integer"):
        orbit_sum_product(build_root_system.__wrapped__("A2"), {(1, 0): 1},
                          {(0, 1): 1})


def test_monomial_expand_base_cases(rs):
    a1 = rs("A1")
    assert monomial_expand(a1, (0,)) == {(0,): 1}
    assert monomial_expand(a1, (2,)) == {(2,): 1, (0,): 2}


def test_deep_expansion_chain_stays_below_the_recursion_limit():
    # a cold instance expands X^600 down a chain of 600 degrees when it
    # eliminates m_(600); m_(600) is 2 at z = 1, where X = 2.  The map
    # itself is composed from T_2, T_3 and T_5, and equals the elimination
    a1 = build_root_system.__wrapped__("A1")
    pmap = build_cheb_map(a1, 600)
    assert pmap.components[0][(600,)] == 1
    assert eval_polys(pmap.components, [2]) == [2]
    assert decompose_to_polynomial(a1, {(600,): 1}) == pmap.components[0]


def test_chebmap_a1_1200_follows_the_rank_one_recurrence(capsys):
    # X^1200's chain is deeper than Python's recursion limit, which a
    # recursive walk down it exceeded (chebmap A1 990 ended in RecursionError):
    # the verb composes T_1200 from prime degrees, and eliminating m_(1200)
    # on a cold instance walks the whole chain.  In rank one
    # m_(d+1) = X m_d - m_(d-1) for d >= 2, from m_1 = X and m_2 = X^2 - 2
    from weylcheb import cli
    assert cli.main(["chebmap", "A1", "1200", "--samples", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    got = {term["exponents"][0]: term["coeff"]
           for term in out["components"][0]}
    prev, cur = {1: 1}, {2: 1, 0: -2}
    for _ in range(2, 1200):
        nxt = {e + 1: c for e, c in cur.items()}
        for e, c in prev.items():
            nxt[e] = nxt.get(e, 0) - c
        prev, cur = cur, {e: c for e, c in nxt.items() if c}
    assert got == cur
    assert out["verification"]["pass"] is True
    direct = decompose_to_polynomial(build_root_system.__wrapped__("A1"),
                                     {(1200,): 1})
    assert {e[0]: c for e, c in direct.items()} == cur


def test_monomial_expand_refuses_non_integer_exponents(rs):
    a2 = rs("A2")
    # int() would truncate 1.5 to 1 and return the expansion of (1, 0)
    for e in [(1.5, 0), (1.0, 0), (Fraction(1, 2), 0), ("1", 0)]:
        with pytest.raises(ValueError, match="integers"):
            monomial_expand(a2, e)
    with pytest.raises(ValueError, match="nonnegative"):
        monomial_expand(a2, (-1, 0))
    with pytest.raises(DimensionError, match="1 exponents for rank 2"):
        monomial_expand(a2, (1,))
    assert monomial_expand(a2, np.array([1, 0])) == monomial_expand(a2, (1, 0))


@pytest.mark.parametrize("spec", ["A2", "B2"])
def test_monomial_expand_leading_term(spec, rs):
    # triangularity: the expansion of X^e has leading term e with coefficient 1
    rsys = rs(spec)
    rng = random.Random(21)
    cvec = height_vector(rsys)

    def key(lam):
        return (sum(l * c for l, c in zip(lam, cvec)), lam)

    for _ in range(50):
        e = [0] * rsys.rank
        for _ in range(rng.randint(0, 5)):
            e[rng.randrange(rsys.rank)] += 1
        combo = monomial_expand(rsys, tuple(e))
        lead = max(combo, key=key)
        assert lead == tuple(e)
        assert combo[lead] == 1


# --- decomposition -------------------------------------------------------------

def test_decompose_constant(rs):
    a2 = rs("A2")
    assert decompose_to_polynomial(a2, {(0, 0): 1}) == {(0, 0): 1}


def test_decompose_a1(rs):
    a1 = rs("A1")
    assert decompose_to_polynomial(a1, {(2,): 1}) == {(2,): 1, (0,): -2}


def test_decompose_a2_quadratic(rs):
    a2 = rs("A2")
    assert decompose_to_polynomial(a2, {(2, 0): 1}) == {(2, 0): 1, (0, 1): -2}


def test_decompose_refuses_a_leading_coefficient_other_than_one(monkeypatch):
    # memoized before the patch, so only the copy decompose sees is doubled
    a2 = build_root_system("A2")
    monomial_expand(a2, (2, 0))
    true_expand = chebmap.monomial_expand

    def doubled(rsys, e):
        out = dict(true_expand(rsys, e))
        out[tuple(e)] *= 2
        return out

    monkeypatch.setattr(chebmap, "monomial_expand", doubled)
    with pytest.raises(RuntimeError, match="leads with coefficient 2, not 1"):
        decompose_to_polynomial(a2, {(2, 0): 1})


def test_decompose_refuses_a_broken_order(monkeypatch):
    # an expansion holding a term above its leader pops out of order
    true_expand = chebmap.monomial_expand

    def raised(rsys, e):
        out = dict(true_expand(rsys, e))
        if e == (0, 1):
            out[(3, 3)] = 1
        return out

    monkeypatch.setattr(chebmap, "monomial_expand", raised)
    with pytest.raises(RuntimeError, match="reduction order is broken"):
        decompose_to_polynomial(build_root_system("A2"), {(2, 0): 1})


def test_decompose_substitution_identity(rs):
    # substituting the basic invariants back into the polynomial recovers the
    # target orbit-sum combination, numerically
    from weylcheb.chebmap import eval_poly
    from weylcheb.gencos import eval_gencos
    rng = random.Random(22)
    for spec in ("A2", "G2"):
        rsys = rs(spec)
        target = {(2, 1): 2, (1, 0): -3}
        poly = decompose_to_polynomial(rsys, target)
        for _ in range(10):
            x = np.array([complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
                          for _ in range(rsys.rank)])
            direct = 0
            for lam, c in target.items():
                from weylcheb.rootsys import orbit
                mat = np.array(orbit(rsys, lam))
                direct += c * np.exp(2j * np.pi * (mat @ x)).sum()
            via_poly = eval_poly(poly, eval_gencos(rsys, x))
            assert abs(direct - via_poly) < 1e-8 * max(1.0, abs(direct))


# --- the maps themselves ---------------------------------------------------------

def test_a1_degree_2_and_3(rs):
    a1 = rs("A1")
    assert build_cheb_map(a1, 2).components == ({(2,): 1, (0,): -2},)
    assert build_cheb_map(a1, 3).components == ({(3,): 1, (1,): -3},)


def test_a2_degree_2_matches_known_pair(rs):
    pmap = build_cheb_map(rs("A2"), 2)
    assert pmap.components == ({(2, 0): 1, (0, 1): -2}, {(0, 2): 1, (1, 0): -2})


def test_degree_one_is_identity(rs):
    assert build_cheb_map(rs("B2"), 1).components == ({(1, 0): 1}, {(0, 1): 1})


@pytest.mark.parametrize("d", [True, False, 0, -4, 2.0, 4.0, "4", None])
def test_degree_must_be_a_positive_int(d, rs):
    # bool is an int subclass: True would pass for 1
    with pytest.raises(ValueError, match="positive integer"):
        build_cheb_map(rs("A2"), d)


def _direct_map(rsys, d):
    """The components of T_d by elimination of each m_{d omega_k}."""
    return tuple(decompose_to_polynomial(
        rsys, {tuple(d if j == k else 0 for j in range(rsys.rank)): 1})
        for k in range(rsys.rank))


@pytest.mark.parametrize("spec,d", [("G2", 12), ("B2", 16), ("A2", 24),
                                    ("A3", 6), ("G2", 6), ("A1", 6),
                                    ("F4", 4)])
def test_composite_map_matches_direct_elimination(spec, d):
    # a composite d is composed from prime degrees; the unique map that
    # intertwines gencos with d is also m_{d omega_k} eliminated directly
    rsys = build_root_system.__wrapped__(spec)
    pmap = build_cheb_map(rsys, d)
    for comp, direct in zip(pmap.components, _direct_map(rsys, d),
                            strict=True):
        assert comp == direct


def test_e6_4_map_passes_and_equals_direct_elimination():
    # T_4 = T_2 o T_2 passes the functional check and equals the
    # elimination of each m_{4 omega_k}
    rsys = build_root_system.__wrapped__("E6")
    pmap = build_cheb_map(rsys, 4)
    assert verify_functional_equation(rsys, 4, pmap, samples=20).passed
    assert pmap.components == _direct_map(rsys, 4)


@pytest.mark.parametrize("spec,d", [("G2", 12), ("B2", 16), ("A2", 24),
                                    ("A3", 6), ("A1", 1200), ("A2", 5),
                                    ("G2", 2), ("B2", 1)])
def test_only_prime_degrees_are_eliminated(spec, d, rs, monkeypatch):
    # elimination runs once on p omega_k for each prime p dividing a
    # composite d, on d omega_k for a prime d, and on omega_k for d = 1
    import sympy
    rsys = rs(spec)
    targets = []
    real = chebmap.decompose_to_polynomial

    def spy(rsys, target):
        targets.append(target)
        return real(rsys, target)

    monkeypatch.setattr(chebmap, "decompose_to_polynomial", spy)
    pmap = build_cheb_map(rsys, d)
    eliminated = []  # (p, k) for each target m_{p omega_k}
    for target in targets:
        [(lam, c)] = target.items()
        [k] = [j for j, x in enumerate(lam) if x]
        assert c == 1
        eliminated.append((lam[k], k))
    ks = range(rsys.rank)
    if d == 1 or sympy.isprime(d):
        assert eliminated == [(d, k) for k in ks]
    else:
        # each distinct prime once, however often it divides d
        assert sorted(eliminated) == [(p, k) for p in sympy.primefactors(d)
                                      for k in ks]
    if d == 1:
        assert pmap.components == tuple({tuple(int(j == k) for j in ks): 1}
                                        for k in ks)


def test_product_type_splits(rs):
    pmap = build_cheb_map(rs("A1xA1"), 3)
    assert pmap.components == ({(3, 0): 1, (1, 0): -3}, {(0, 3): 1, (0, 1): -3})


@pytest.mark.parametrize("spec,d", FULL_MATRIX)
def test_integrality(spec, d, rs):
    pmap = build_cheb_map(rs(spec), d)
    for comp in pmap.components:
        for e, c in comp.items():
            assert type(c) is int and c != 0
            assert all(type(x) is int and x >= 0 for x in e)


# --- evaluation -------------------------------------------------------------------

def test_eval_fixed_point(rs):
    assert eval_poly_map(build_cheb_map(rs("A2"), 2), [3, 3]) == [3, 3]
    assert eval_poly_map(build_cheb_map(rs("A1"), 2), [2]) == [2]
    # exact on Fractions: (X1^2 - 2 X2, X2^2 - 2 X1) at (1/2, -3/4)
    got = eval_poly_map(build_cheb_map(rs("A2"), 2),
                        [Fraction(1, 2), Fraction(-3, 4)])
    assert got == [Fraction(7, 4), Fraction(-7, 16)]
    assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("spec,d", [("A2", 3), ("G2", 6), ("B3", 2)])
def test_eval_polys_shared_table_is_exact(rs, spec, d):
    # the Jacobian entries and the components share one table of powers,
    # and the components have higher degrees than the entries
    pmap = build_cheb_map(rs(spec), d)
    comps = [p for row in jacobian_polys(pmap) for p in row] + list(pmap.components)
    x = [Fraction(j + 2, 3 * j + 5) for j in range(pmap.rank)]
    naive = [sum(c * math.prod(xj ** ej for xj, ej in zip(x, e))
                 for e, c in comp.items()) for comp in comps]
    assert eval_polys(comps, x) == naive


def test_eval_dimension_mismatch(rs):
    from weylcheb.errors import DimensionError
    with pytest.raises(DimensionError):
        eval_poly_map(build_cheb_map(rs("A2"), 2), [1])


# --- functional equation -----------------------------------------------------------

def _to_mpc(value, P):
    """A fixed-point value as one mpc per point (exact when the working
    precision holds it)."""
    return [mpmath.mpc(mpmath.mpf((a, -P)), mpmath.mpf((b, -P)))
            for a, b in zip(*value)]


def _gencos_per_row(rsys, z, scale):
    """Reference gencos at x * scale, z_j = e^{2 pi i x_j}, in mpmath: one
    product of powers z_j^{scale r_j} per orbit row r."""
    return [mpmath.fsum(mpmath.fprod(zj ** (scale * int(r))
                                     for zj, r in zip(z, row))
                        for row in orbit_matrix(rsys, k))
            for k in range(rsys.rank)]


def _box_points(rsys, randoms):
    """Seeded random points of the sample box, then its corners
    Im x_j = -sign(r_j) for the row r of largest sum |r_j| in the first and
    the last component: there its term at d*x peaks, at e^{2 pi d sum |r_j|}."""
    rng = random.Random(25)
    points = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(rsys.rank)] for _ in range(randoms)]
    for k in (0, rsys.rank - 1):
        row = max(orbit_matrix(rsys, k).tolist(),
                  key=lambda r: sum(map(abs, r)))
        points.append([complex(rng.uniform(-1, 1), -1 if r > 0 else 1)
                       for r in row])
    return points


@pytest.mark.parametrize("spec,d,randoms", [("A2", 3, 4), ("B3", 2, 4),
                                            ("G2", 6, 4), ("F4", 2, 2),
                                            ("E6", 2, 1)])
def test_gencos_pair_matches_per_row_oracle(spec, d, randoms, rs):
    # the oracle evaluates at the dyadic z the kernel used, exactly (64 bits
    # above P), so only the kernel's own error is measured
    rsys = rs(spec)
    points = _box_points(rsys, randoms)
    dps = fpo._needed_dps(rsys, d)
    P = fpo.check_precision(rsys, d)
    z = fpo.fixed_exp(points, P)
    gx, gdx = fpo.GencosPair(rsys, d)(z, P)
    with mpmath.workprec(P + 64):
        # ten digits short of the working precision: room for cancellation
        # at the random points; a reciprocal 1/z_j floored 70 bits short of
        # P fails it
        rel = mpmath.mpf(10) ** (10 - dps)
        got = [_to_mpc(v, P) for v in gx + gdx]
        zs = [_to_mpc(v, P) for v in z]
        for i, point in enumerate(points):
            zi = [zj[i] for zj in zs]
            want = _gencos_per_row(rsys, zi, 1) + _gencos_per_row(rsys, zi, d)
            for values, ref in zip(got, want):
                assert abs(values[i] - ref) <= rel * abs(ref), (point, values[i], ref)


@pytest.mark.parametrize("spec,d", [("F4", 2), ("G2", 6), ("E6", 2)])
def test_fixed_point_polys_within_documented_bound(spec, d, rs):
    # T_d and its Jacobian on GencosPair's fixed-point values, against
    # eval_polys on the same values as mpc at twice the precision; the bound
    # is eval_polys_fixed's: sqrt(2) D 2^-P sum_e |c_e| prod_j A_j^{e_j}
    rsys = rs(spec)
    pmap = build_cheb_map(rsys, d)
    comps = [p for row in jacobian_polys(pmap) for p in row] + list(pmap.components)
    degree = max(sum(e) for comp in comps for e in comp)
    points = _box_points(rsys, 2)
    dps = fpo._needed_dps(rsys, d)
    P = fpo.check_precision(rsys, d)
    gx, _ = fpo.GencosPair(rsys, d)(fpo.fixed_exp(points, P), P)
    got = fpo.eval_polys_fixed(comps, gx, P)
    with mpmath.workdps(2 * dps):
        xs = [_to_mpc(v, P) for v in gx]
        got = [_to_mpc(v, P) for v in got]
        for i in range(len(points)):
            x = [v[i] for v in xs]
            a = [max(1, abs(v)) for v in x]
            for values, want, comp in zip(got, eval_polys(comps, x), comps):
                scale = mpmath.fsum(
                    abs(c) * mpmath.fprod(aj ** ej for aj, ej in zip(a, e))
                    for e, c in comp.items())
                bound = math.sqrt(2) * degree * mpmath.ldexp(scale, -P)
                assert abs(values[i] - want) <= bound, (i, values[i], want, bound)


@pytest.mark.parametrize("spec,d,h", [("A2", 3, 1.0), ("G2", 6, 1.0),
                                      ("F4", 2, 1.0), ("E6", 2, 1.0),
                                      ("C6", 2, 0.137), ("G2", 12, 0.01)])
def test_check_precision_is_mpmath_rule(spec, d, h, rs):
    # P = p + 32, p the bits mpmath gives the digits of _needed_dps
    from mpmath.libmp import dps_to_prec
    rsys = rs(spec)
    assert fpo.check_precision(rsys, d, h) == \
        dps_to_prec(fpo._needed_dps(rsys, d, h)) + 32


@pytest.mark.parametrize("spec", ["A2", "F4"])
def test_fixed_exp_is_the_float64_exponential(spec, rs):
    rsys = rs(spec)
    points = _box_points(rsys, 20)
    P = fpo.check_precision(rsys, 2)
    z = fpo.fixed_exp(points, P)
    want = np.exp(2j * np.pi * np.array(points))
    for (re, im), col in zip(z, want.T):
        for fixed, parts in ((re, col.real), (im, col.imag)):
            assert ([Fraction(int(v), 1 << P) for v in fixed]
                    == list(map(Fraction, parts)))


@pytest.mark.parametrize("spec", ["A2", "G2", "F4"])
def test_reciprocal_within_documented_bound(spec, rs):
    # z (1/z) = 1 up to |z| sqrt(2) 2^-P, 1/z off by less than sqrt(2) 2^-P;
    # with 1/z floored one bit short of P, the largest error ratio passes 1
    rsys = rs(spec)
    P = fpo.check_precision(rsys, 2)
    ratios = []
    for a, b in fpo.fixed_exp(_box_points(rsys, 20), P):
        wr, wi = fpo._div((1 << P, 0), (a, b), P)
        for a, b, wr, wi in zip(a, b, wr, wi):
            # z w - 1 in units of 2^{-2P}: exact
            re, im = a * wr - b * wi - (1 << 2 * P), a * wi + b * wr
            ratios.append(Fraction(re * re + im * im, 2 * (a * a + b * b)))
    assert max(ratios) < 1
    assert max(ratios) > Fraction(1, 4)  # the bound is not vacuous


SYNTH_CASES = [("E6", 2), ("F4", 2), ("D4", 2), ("C4", 2), ("B3xA1", 2),
               ("G2", 12), ("B2", 16), ("A2", 24), ("A3", 6)]
VERIFY_CASES = FULL_MATRIX + [("B3", 2), ("F4", 2), ("G2", 6)]


def _plus_one(pmap, k, e):
    """pmap with 1 added to the coefficient of X^e in component k."""
    comps = [dict(c) for c in pmap.components]
    comps[k][e] = comps[k].get(e, 0) + 1
    return PolynomialMap(pmap.rank, tuple(comps))


def _fixed_point_check(rsys, d, pmap, samples, seed=0, tol=1e-8):
    """The former functional check, kept as an oracle: complex points of
    the box [-1,1] + i[-1,1], Gaussian fixed point at check_precision bits,
    pass when the largest gap is within tol."""
    rng = random.Random(seed)
    points = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(rsys.rank)] for _ in range(samples)]
    P = fpo.check_precision(rsys, d)
    gx, gdx = fpo.GencosPair(rsys, d)(fpo.fixed_exp(points, P), P)
    lhs = fpo.eval_polys_fixed(pmap.components, gx, P)
    return max(fpo.fixed_distances(lhs, gdx, P)) <= tol


@pytest.mark.parametrize("spec,d", [("A2", 2), ("G2", 2), ("A1xA1", 3)])
def test_functional_equation_smoke(spec, d, rs):
    rsys = rs(spec)
    rep = verify_functional_equation(rsys, d, build_cheb_map(rsys, d),
                                     samples=25, seed=0)
    assert rep.passed, rep.max_residual
    assert rep.max_residual == 0 and rep.witness is None


@pytest.mark.parametrize("spec,d,samples", [("A2", 2, 25), ("F4", 2, 5)])
def test_functional_equation_catches_wrong_coefficient(spec, d, samples, rs):
    # the residual of a +1 on X_1^d is X_1^d at gencos(z): the report must
    # give it exactly, nonzero at every sample and in component 0 only
    rsys = rs(spec)
    e = tuple(d if j == 0 else 0 for j in range(rsys.rank))
    wrong = _plus_one(build_cheb_map(rsys, d), 0, e)
    rep = verify_functional_equation(rsys, d, wrong, samples=samples, seed=0)
    assert rep.passed is False
    assert rep.max_residual > rep.tol
    # the documented draw: the prime, then the points, from Random(seed)
    rng = random.Random(0)
    p = chebmap.draw_prime(rng)
    z = np.array([[rng.randrange(1, p) for _ in range(rsys.rank)]
                  for _ in range(samples)], dtype=np.int64)
    assert rep.prime == p
    gx = chebmap.gencos_mod(rsys, z, p, d)[0]
    want = [pow(int(v), d, p) for v in gx[:, 0]]
    want = [w - p if w > p // 2 else w for w in want]
    res = chebmap.residuals_mod_p(rsys, d, wrong, z, p)[0]
    assert res[:, 0].tolist() == want and all(want)
    assert not res[:, 1:].any()
    assert rep.max_residual == max(map(abs, want))
    assert rep.witness == {"sample": 0, "component": 0, "z": z[0].tolist()}


def test_eval_polys_mod_matches_python_ints(monkeypatch):
    # exact Python-int evaluation mod p, on points with zero residues, of
    # polynomials with a constant term, coefficients of either sign past p,
    # and a variable (X_2) of degree 0; no exponent is negative, so no
    # inverse is taken, and 0^0 = 1
    p = 2147483629
    rng = random.Random(60)
    comps = [{(0, 0, 0): 5, (3, 0, 1): -7, (1, 0, 4): p + 2},
             {(2, 0, 2): -(3 * p + 1), (0, 0, 1): 1},
             {(0, 0, 0): -1}]
    points = [[rng.randrange(p) for _ in range(3)] for _ in range(20)]
    points[0] = [0, 0, 0]
    points[1][0] = points[2][2] = 0

    def no_inverse(a, e, p):
        raise AssertionError("inverse taken with no negative exponent")

    monkeypatch.setattr(chebmap, "power_mod", no_inverse)
    got = chebmap.eval_polys_mod(comps, np.array(points, dtype=np.int64), p)
    want = [[v % p for v in eval_polys(comps, x)] for x in points]
    assert got.tolist() == want


def test_monomials_mod_matches_python_ints():
    # exponents of either sign, and rows that span only part of the table
    p = 2147483629
    rng = random.Random(61)
    exps = np.array([[0, 0], [3, -2], [-4, 0], [1, 1], [0, 5]], dtype=np.int64)
    z = np.array([[rng.randrange(1, p) for _ in range(2)] for _ in range(9)],
                 dtype=np.int64)
    got = chebmap.monomials_mod(z, exps, p)
    want = [[math.prod(pow(int(zj), int(ej), p) for zj, ej in zip(x, e)) % p
             for e in exps] for x in z]
    assert got.tolist() == want


def test_power_mod_matches_python_pow():
    # zero residues included, and 0^0 = 1; at p - 2 the Fermat inverse
    p = 2147483629
    rng = random.Random(62)
    a = np.array([0, 1, 2, p - 1, *(rng.randrange(p) for _ in range(12))],
                 dtype=np.int64)
    for e in (0, 1, 2, 3, 6, p - 2, *(rng.randrange(p) for _ in range(5))):
        assert chebmap.power_mod(a, e, p).tolist() == \
            [pow(int(x), e, p) for x in a]
    inv = chebmap.power_mod(a, p - 2, p)
    assert (a * inv % p).tolist() == [0] + [1] * (len(a) - 1)


def test_power_mod_refuses_a_negative_exponent():
    # -1 >> 1 == -1: the squaring loop would never end
    a = np.array([2, 3], dtype=np.int64)
    for e in (-1, -2, -(1 << 40)):
        with pytest.raises(ValueError, match="exponent >= 0"):
            chebmap.power_mod(a, e, 2147483629)


@pytest.mark.parametrize("d", [0, -1, -2])
def test_functional_check_refuses_a_degree_below_one(d, rs):
    # refused before any point is evaluated, with build_cheb_map's message
    a2 = rs("A2")
    with pytest.raises(ValueError, match="d must be a positive integer"):
        verify_functional_equation(a2, d, build_cheb_map(a2, 2), samples=5)


@pytest.mark.parametrize("spec,d", [("A1", 2), ("G2", 6), ("B3xA1", 2),
                                    ("F4", 2)])
def test_gencos_mod_matches_python_ints(spec, d, rs):
    # G and E at z, and G at z^d, against their definitions summed with
    # Python ints over the orbit rows; E only when asked for
    rsys = rs(spec)
    p, z = chebmap.draw_points(rsys, 6, seed=9)
    g, gd, e = chebmap.gencos_mod(rsys, z, p, d, with_e=True)
    bare = chebmap.gencos_mod(rsys, z, p, d)
    assert bare[2] is None
    assert np.array_equal(bare[0], g) and np.array_equal(bare[1], gd)
    assert g.shape == gd.shape == (6, rsys.rank)
    assert e.shape == (6, rsys.rank, rsys.rank)
    for i, point in enumerate(z.tolist()):
        assert (g[i].tolist(), e[i].tolist()) == gencos_e_mod(rsys, point, p)
        zd = [pow(x, d, p) for x in point]
        assert gd[i].tolist() == gencos_e_mod(rsys, zd, p)[0]


def test_evaluator_takes_no_points(rs):
    rsys = rs("B3")
    pmap = build_cheb_map(rsys, 2)
    none = np.zeros((0, 3), dtype=np.int64)
    res, ez = chebmap.residuals_mod_p(rsys, 2, pmap, none, 2147483629,
                                      with_e=True)
    assert res.shape == (0, 3) and ez.shape == (0, 3, 3)
    assert res.dtype == ez.dtype == np.int64
    assert chebmap.residuals_mod_p(rsys, 2, pmap, none, 2147483629)[1] is None


@pytest.mark.parametrize("cases,samples", [(SYNTH_CASES, 10),
                                           (VERIFY_CASES, 100)],
                         ids=["synth", "verify"])
def test_every_plus_one_mutant_fails(cases, samples, rs):
    # the benchmark's sample counts: 10 per synth case, 100 per verify case
    for spec, d in cases:
        rsys = rs(spec)
        pmap = build_cheb_map(rsys, d)
        assert verify_functional_equation(rsys, d, pmap, samples).passed
        for k, comp in enumerate(pmap.components):
            for e in comp:
                rep = verify_functional_equation(
                    rsys, d, _plus_one(pmap, k, e), samples)
                assert not rep.passed, (spec, d, k, e)


@pytest.mark.parametrize("spec,d,mutant", [
    *((spec, d, False) for spec, d in SYNTH_CASES),
    ("A2", 2, True), ("F4", 2, True)])
def test_prime_field_check_agrees_with_fixed_point_oracle(spec, d, mutant, rs):
    rsys = rs(spec)
    pmap = build_cheb_map(rsys, d)
    if mutant:
        pmap = _plus_one(pmap, 0, tuple(d if j == 0 else 0
                                        for j in range(rsys.rank)))
    got = verify_functional_equation(rsys, d, pmap, samples=10).passed
    assert got is (not mutant)
    assert _fixed_point_check(rsys, d, pmap, samples=10) is got


def test_miller_rabin_agrees_with_sympy():
    import sympy
    window = [*range(2 ** 30 - 3000, 2 ** 30 + 3000),
              *range(2 ** 31 - 1000, 2 ** 31 + 1000), *range(200)]
    assert [n for n in window if chebmap.is_prime(n)] == \
        [n for n in window if sympy.isprime(n)]
    # the least strong pseudoprimes to bases 2; 2, 3; and 2, 3, 5: each
    # needs one more base.  The least to 2, 3, 5, 7 is refused.
    for n in (2047, 1373653, 25326001):
        assert not chebmap.is_prime(n)
    with pytest.raises(ValueError):
        chebmap.is_prime(3215031751)


def test_drawn_prime_is_a_prime_in_range():
    primes = {chebmap.draw_prime(random.Random(seed)) for seed in range(20)}
    assert len(primes) == 20
    assert all(2 ** 30 <= p < 2 ** 31 and chebmap.is_prime(p) for p in primes)


def test_prime_comes_from_the_seed(rs):
    # a mutant off by the seed-0 prime p0 is the true map modulo p0, so it
    # passes at seed 0; seed 1 draws another prime and catches it
    rsys = rs("A2")
    pmap = build_cheb_map(rsys, 2)
    p0 = verify_functional_equation(rsys, 2, pmap, samples=20, seed=0).prime
    comps = [dict(c) for c in pmap.components]
    comps[0][(2, 0)] += p0
    wrong = PolynomialMap(rsys.rank, tuple(comps))
    assert verify_functional_equation(rsys, 2, wrong, samples=20, seed=0).passed
    rep = verify_functional_equation(rsys, 2, wrong, samples=20, seed=1)
    assert rep.prime != p0 and not rep.passed


def test_functional_equation_e7(rs):
    rsys = rs("E7")
    pmap = build_cheb_map(rsys, 2)
    rep = verify_functional_equation(rsys, 2, pmap, samples=100)
    assert rep.passed and rep.max_residual == 0
    e = tuple(2 if j == 0 else 0 for j in range(rsys.rank))
    assert not verify_functional_equation(rsys, 2, _plus_one(pmap, 0, e),
                                          samples=100).passed


@pytest.mark.parametrize("samples", [0, -3])
def test_functional_equation_refuses_no_samples(samples, rs):
    rsys = rs("A2")
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify_functional_equation(rsys, 2, build_cheb_map(rsys, 2), samples)


def test_a1xa1_is_product_map(rs):
    pmap = build_cheb_map(rs("A1xA1"), 3)
    one_dim = build_cheb_map(rs("A1"), 3).components[0]
    lifted_first = {(e[0], 0): c for e, c in one_dim.items()}
    assert pmap.components[0] == lifted_first


# --- composition --------------------------------------------------------------------

def test_compose_with_identity(rs):
    pmap = build_cheb_map(rs("A2"), 2)
    ident = build_cheb_map(rs("A2"), 1)
    assert compose_poly_maps(pmap, ident).components == pmap.components
    assert compose_poly_maps(ident, pmap).components == pmap.components


def test_a1_semigroup(rs):
    # build_cheb_map composes T_4 and T_6 itself, so both sides are also
    # checked against direct elimination
    a1 = rs("A1")
    t2 = build_cheb_map(a1, 2)
    comp = compose_poly_maps(t2, t2)
    assert comp.components == ({(4,): 1, (2,): -4, (0,): 2},)
    assert comp.components == build_cheb_map(a1, 4).components
    assert comp.components == _direct_map(a1, 4)
    t6 = compose_poly_maps(t2, build_cheb_map(a1, 3))
    assert t6.components == build_cheb_map(a1, 6).components
    assert t6.components == _direct_map(a1, 6)


def test_a2_semigroup(rs):
    a2 = rs("A2")
    t2 = build_cheb_map(a2, 2)
    t4 = compose_poly_maps(t2, t2)
    assert t4.components == build_cheb_map(a2, 4).components
    assert t4.components == _direct_map(a2, 4)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_compose_maps_matches_the_oracle(rank):
    # random integer maps, with repeated and cancelling terms, against
    # root_oracles.compose_poly_maps
    rng = random.Random(26 + rank)

    def random_map():
        return PolynomialMap(rank, tuple(
            {e: c for e, c in ((tuple(rng.randint(0, 3) for _ in range(rank)),
                                rng.choice((-2, -1, 1, 3)))
                               for _ in range(rng.randint(1, 5)))}
            for _ in range(rank)))

    for _ in range(10):
        outer, inner = random_map(), random_map()
        assert compose_maps(outer, inner).components == \
            compose_poly_maps(outer, inner).components
    # x^2 - y^2 at (x + y, x - y) is 4 x y: its other terms cancel
    square = PolynomialMap(2, ({(2, 0): 1, (0, 2): -1}, {(0, 0): 1}))
    turn = PolynomialMap(2, ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}))
    assert compose_maps(square, turn).components == ({(1, 1): 4}, {(0, 0): 1})


# --- serialization -------------------------------------------------------------------

def test_json_ordering_stable(rs):
    a2 = rs("A2")
    d1 = poly_map_as_dict(a2, 2, build_cheb_map(a2, 2))
    d2 = poly_map_as_dict(a2, 2, build_cheb_map(a2, 2))
    assert d1 == d2
    assert d1["components"][0][0] == {"exponents": [2, 0], "coeff": 1}
