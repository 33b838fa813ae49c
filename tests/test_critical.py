"""Wall sampling, post-critical structure, and the deltoid identity."""

import json
import math
import random

import numpy as np
import pytest

from weylcheb import chebmap, cli, critical
from weylcheb.chebmap import (PolynomialMap, build_cheb_map, draw_points,
                              eval_poly, eval_polys_mod, gencos_mod,
                              power_mod, residuals_mod_p,
                              verify_functional_equation)
from weylcheb.critical import (
    DiagramSample,
    deltoid_check,
    deltoid_residual,
    det_mod,
    post_critical_check,
    sample_diagram_points,
)
from weylcheb.gencos import eval_gencos, is_on_diagram

import fixed_point_oracle as fpo
from fixed_point_oracle import bareiss_det, post_critical_fixed_point
from root_oracles import gencos_e_mod, jacobian_polys, positive_roots

VERIFY_CASES = [(spec, d) for spec in ("A1", "A2", "B2", "G2", "A3", "A1xA1")
                for d in (2, 3)] + [("B3", 2), ("F4", 2), ("G2", 6)]


def _plus_one(pmap, d):
    """pmap with 1 added to the coefficient of X_1^d in component 0."""
    comps = [dict(c) for c in pmap.components]
    e = tuple(d if j == 0 else 0 for j in range(pmap.rank))
    comps[0][e] = comps[0].get(e, 0) + 1
    return PolynomialMap(pmap.rank, tuple(comps))


# --- wall sampling -------------------------------------------------------------

@pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2"])
def test_samples_lie_on_walls(spec, rs):
    for s in sample_diagram_points(rs(spec), 40, seed=30):
        v, ell = s.wall
        assert abs(np.dot(np.array(v.weight_coords), s.point) - ell) <= 1e-12
        assert is_on_diagram(rs(spec), s.point, 1e-10)[0]


def test_rank_one_wall_points(rs):
    for s in sample_diagram_points(rs("A1"), 20, seed=31, ell_range=(0, 1)):
        v, ell = s.wall
        # the wall equation <v, x> = ell pins the single coordinate
        assert abs(s.point[0] - ell / v.weight_coords[0]) < 1e-15


def test_sampling_deterministic(rs):
    a = sample_diagram_points(rs("B2"), 30, seed=7)
    b = sample_diagram_points(rs("B2"), 30, seed=7)
    assert all((x.wall[1] == y.wall[1]
                and x.wall[0].weight_coords == y.wall[0].weight_coords
                and np.array_equal(x.point, y.point))
               for x, y in zip(a, b))


# --- post-critical checks -----------------------------------------------------------

@pytest.mark.parametrize("spec,d", [("A2", 2), ("B2", 2)])
def test_postcritical_determinant_vanishes(spec, d, rs):
    rsys = rs(spec)
    rep = post_critical_check(rsys, d, build_cheb_map(rsys, d), samples=50, seed=33)
    assert len(rep.det_residuals) == 50
    assert rep.max_det_residual == 0 and rep.max_value_residual == 0
    assert rep.witness is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_postcritical_g2_degree_6(seed, rs):
    # evaluated in float64 the det residual was about 4e-6 here, above tol;
    # modulo p it is exactly 0
    rsys = rs("G2")
    rep = post_critical_check(rsys, 6, build_cheb_map(rsys, 6), seed=seed)
    assert rep.passed, rep.witness
    assert rep.max_det_residual == 0 and rep.max_value_residual == 0


@pytest.mark.parametrize("spec", ["B6", "C6"])
def test_postcritical_rank_six_at_default_samples(spec, rs):
    # at float64 wall points the det residual was 6.1e-7 (B6) and 2.1e-7
    # (C6), above tol
    rsys = rs(spec)
    rep = post_critical_check(rsys, 2, build_cheb_map(rsys, 2))
    assert len(rep.det_residuals) == 50
    assert rep.passed, rep.witness


@pytest.mark.parametrize("spec", ["B6", "C6"])
def test_postcritical_fails_at_unrefined_pivots(spec, rs, monkeypatch):
    # in the fixed-point oracle, the float64 pivot sits about 1e-17 off its
    # wall: at seed 0 the det residual is 3.4e-6 on B6 2 and 1.4e-6 on
    # C6 2, past tol
    monkeypatch.setattr(fpo, "wall_root", lambda c, m, u0, P: u0)
    rsys = rs(spec)
    rep = post_critical_fixed_point(rsys, 2, build_cheb_map(rsys, 2))
    assert len(rep.det_residuals) == 50
    assert rep.max_det_residual > 10 * rep.tol
    assert not rep.passed


@pytest.mark.parametrize("spec,d", [("G2", 6), ("C6", 2)])
def test_wall_root_is_the_root_nearest_the_float64_pivot(spec, d, rs,
                                                         monkeypatch):
    import mpmath
    seen = []
    real = fpo.wall_root

    def recording(c, m, u0, P):
        u = real(c, m, u0, P)
        seen.append((c, m, u0, u, P))
        return u

    monkeypatch.setattr(fpo, "wall_root", recording)
    rsys = rs(spec)
    post_critical_fixed_point(rsys, d, build_cheb_map(rsys, d), samples=20)
    assert len(seen) == 20
    for c, m, u0, u, P in seen:
        with mpmath.workprec(2 * P):
            c, u, u0 = (mpmath.mpc(mpmath.mpf((a, -P)), mpmath.mpf((b, -P)))
                        for a, b in (c, u, u0))
            unit = mpmath.ldexp(1, -P)
            # the equation residual, to first order the distance to a root
            assert abs(u ** m - c) <= 4 * unit * m * abs(u) ** (m - 1)
            nearest = min((mpmath.root(c, m, k) for k in range(m)),
                          key=lambda r: abs(r - u0))
            assert abs(u - nearest) <= 4 * unit


def _sympy_det(m):
    import sympy
    det = sympy.expand(sympy.Matrix(
        [[a + b * sympy.I for a, b in row] for row in m]).det())
    return int(sympy.re(det)), int(sympy.im(det))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_bareiss_det_matches_sympy(n):
    rng = random.Random(40 + n)
    for bits in (4, 150):
        m = [[(rng.randint(-2 ** bits, 2 ** bits),
               rng.randint(-2 ** bits, 2 ** bits)) for _ in range(n)]
             for _ in range(n)]
        assert bareiss_det(m) == _sympy_det(m)
        m[0][0] = (0, 0)  # a zero leading pivot: swapped for a row below
        assert bareiss_det(m) == _sympy_det(m)


def test_bareiss_det_swaps_a_zero_pivot_midway():
    # the leading 2x2 minor vanishes, so the second pivot is 0
    m = [[(1, 1), (2, 0), (0, 3)],
         [(2, 2), (4, 0), (1, 0)],
         [(0, 1), (1, -1), (5, 2)]]
    assert bareiss_det(m) == _sympy_det(m) != (0, 0)


def test_bareiss_det_of_singular_matrices_is_zero():
    rng = random.Random(41)
    rows = [[(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(4)]
            for _ in range(3)]
    # row 3 = (2 + i) row 0 - 3 row 2
    last = [(2 * a - b - 3 * e, a + 2 * b - 3 * f)
            for (a, b), (e, f) in zip(rows[0], rows[2])]
    assert bareiss_det([*rows, last]) == _sympy_det([*rows, last]) == (0, 0)
    zero_column = [[(0, 0), *row[1:]] for row in [*rows, rows[1]]]
    assert bareiss_det(zero_column) == (0, 0)


@pytest.mark.parametrize("spec,d", [("G2", 6), ("F4", 2)])
def test_checks_in_small_chunks_report_the_same(spec, d, rs, monkeypatch):
    # the residuals of both prime-field checks and of the fixed-point oracle
    # (one precision for all its points) are exact, so cutting the points
    # of the evaluator, residuals_mod_p, into batches of 7 changes no
    # residual; the checks run on a +1 mutant, so their per-point residuals
    # are not all zero.  Each batch makes one gencos_mod call, on its points
    # z at degree d.
    rsys = rs(spec)
    pmap = build_cheb_map(rsys, d)
    comps = [dict(c) for c in pmap.components]
    comps[-1][tuple(d if j == rsys.rank - 1 else 0
                    for j in range(rsys.rank))] += 1
    wrong = PolynomialMap(rsys.rank, tuple(comps))
    seen, batches = [], []
    real_residuals, real_gencos = chebmap.residuals_mod_p, chebmap.gencos_mod

    def recording(*args):
        out = real_residuals(*args)
        seen.append(out[0])
        return out

    def batch(rsys, z, p, degree):
        assert degree == d
        batches.append(len(z))
        return real_gencos(rsys, z, p, degree)

    monkeypatch.setattr(chebmap, "residuals_mod_p", recording)
    monkeypatch.setattr(chebmap, "gencos_mod", batch)

    def run():
        seen.clear()
        batches.clear()
        fun = verify_functional_equation(rsys, d, wrong, samples=30)
        fun_batches = batches[:]
        per_point = [r for part in seen for r in part.tolist()]
        post = post_critical_check(rsys, d, wrong, samples=20)
        post_batches = batches[len(fun_batches):]
        oracle = post_critical_fixed_point(rsys, d, pmap, samples=20)
        # each batch's size: the points z of its one call
        return (fun.max_residual, fun.witness, per_point, post.det_residuals,
                post.value_residuals, post.witness, oracle.det_residuals,
                oracle.value_residuals), (fun_batches, post_batches)

    whole, sizes = run()
    assert sizes == ([30], [20]) and len(seen) == 1
    assert len(whole[2]) == 30 and len(whole[3]) == 20
    assert all(r[-1] != 0 for r in whole[2])
    assert all(whole[4]) and whole[5] is not None
    assert len(whole[6]) == 20
    rows = len(chebmap.fundamental_orbit_table(rsys)[0])
    monkeypatch.setattr(chebmap, "FIELD_CELLS", 7 * 2 * rows)
    monkeypatch.setattr(fpo, "CHECK_CHUNK", 7)
    chunked, sizes = run()
    assert chunked == whole
    # 30 functional points in 5 batches, 20 post-critical points in 3
    assert sizes == ([7, 7, 7, 7, 2], [7, 7, 6])


def _sympy_det_mod(m, p):
    import sympy
    return int(sympy.Matrix(m).det()) % p


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_det_mod_matches_sympy(n):
    # one batch mixes full-rank matrices, a zero leading pivot, a leading
    # 2x2 minor that vanishes mod p (a swap midway), and singular ones: a
    # row that is a combination of two others mod p, and a zero column
    p = 2147483647
    rng = random.Random(50 + n)
    batch = []
    for _ in range(6):
        batch.append([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    batch[1][0][0] = 0
    if n >= 3:
        m = batch[2]
        m[1] = [3 * x % p for x in m[0]]  # rows 0, 1 dependent mod p ...
        m[1][2] = (m[1][2] + 1) % p       # ... except in column 2
    if n >= 2:
        m = batch[3]
        m[-1] = [(5 * a - 7 * b) % p for a, b in zip(m[0], m[1 % n])]
        if n == 2:
            m[1] = [5 * a % p for a in m[0]]
        for row in batch[4]:
            row[n - 1] = 0
    else:
        batch[3][0][0] = 0
    got = det_mod(np.array(batch, dtype=np.int64), p).tolist()
    want = [_sympy_det_mod(m, p) for m in batch]
    assert got == want
    if n >= 2:
        assert want[3] == want[4] == 0
        assert all(want[k] for k in (0, 1, 5))


def test_postcritical_fails_on_the_determinant_alone(rs, monkeypatch):
    # det E(z) off by +1 at sample 2 only, every value right: the
    # determinant alone must fail the check and name the sample, and the
    # residual is z^rho at that sample, centred.  det_mod takes the E(z) of
    # all 10 samples at once.
    real = critical.det_mod
    sizes = []

    def off_by_one(a, p):
        sizes.append(len(a))
        det = real(a, p)
        det[2] = (det[2] + 1) % p
        return det

    monkeypatch.setattr(critical, "det_mod", off_by_one)
    rsys = rs("B2")
    rep = post_critical_check(rsys, 2, build_cheb_map(rsys, 2), samples=10)
    assert sizes == [10]
    p, z = draw_points(rsys, 10, 0)
    z_rho = math.prod(z[2].tolist()) % p
    assert rep.det_residuals == [0, 0, min(z_rho, p - z_rho)] + [0] * 7
    assert rep.max_value_residual == 0 and not rep.passed
    assert (rep.witness["sample"], rep.witness["check"],
            rep.witness["component"]) == (2, "det", None)


@pytest.mark.parametrize("spec,d", VERIFY_CASES)
def test_plus_one_mutant_fails_postcritical(spec, d, rs):
    # A1 2 included: its wall preimages all have X = 0, where X^2 adds
    # nothing, but at uniform points the functional identity sees the +1.
    # The denominator identity does not involve the map, so the mutant
    # fails the value check, in component 0, at the first sample
    rsys = rs(spec)
    pmap = build_cheb_map(rsys, d)
    assert post_critical_check(rsys, d, pmap).passed
    rep = post_critical_check(rsys, d, _plus_one(pmap, d))
    assert not rep.passed and rep.witness is not None, (spec, d)
    assert rep.max_det_residual == 0 and rep.max_value_residual, (spec, d)
    assert (rep.witness["sample"], rep.witness["check"],
            rep.witness["component"]) == (0, "value", 0), (spec, d)


def test_prime_field_check_agrees_with_fixed_point_oracle(rs):
    # on the verify grid both checks pass; on the +1 mutants the exact
    # check fails wherever the fixed-point oracle does, and on A1 2 too,
    # where the oracle's wall preimages all have X = 0 and cannot see X^2
    oracle_fails, exact_fails = [], []
    for spec, d in VERIFY_CASES:
        rsys = rs(spec)
        pmap = build_cheb_map(rsys, d)
        assert post_critical_check(rsys, d, pmap).passed, (spec, d)
        assert post_critical_fixed_point(rsys, d, pmap).passed, (spec, d)
        wrong = _plus_one(pmap, d)
        if not post_critical_fixed_point(rsys, d, wrong).passed:
            oracle_fails.append((spec, d))
        if not post_critical_check(rsys, d, wrong).passed:
            exact_fails.append((spec, d))
    assert oracle_fails == [c for c in VERIFY_CASES if c != ("A1", 2)]
    assert exact_fails == VERIFY_CASES


@pytest.mark.parametrize("spec", ["A2", "B2", "G2", "B3", "F4", "C3", "D4",
                                  "A1xA1", "B3xA1", "E6", "E7"])
def test_det_e_is_a_constant_times_the_weyl_denominator(spec, rs):
    # det E(z) z^rho / prod_{a > 0} (z^a - 1) is exactly 1 mod p (Bourbaki,
    # Lie Groups, ch. VI sec. 3, and the highest term z^{2 rho} of both
    # sides): the positive roots come from their coefficients' signs,
    # rho = (1, ..., 1) in weight coordinates, and the products are taken
    # with Python ints.  An E with the weights lam_j + 1, E + G column by
    # column, breaks it at every point.
    rsys = rs(spec)
    p, z = draw_points(rsys, 20, seed=8)
    gz, _, ez = gencos_mod(rsys, z, p, 1)

    def ratios(e):
        out = []
        for point, det in zip(z.tolist(), det_mod(e, p).tolist()):
            def power(u):
                return math.prod(pow(zj, uj, p)
                                 for zj, uj in zip(point, u)) % p
            denom = math.prod(power(a.weight_coords) - 1
                              for a in positive_roots(rsys)) % p
            out.append(det * math.prod(point) * pow(denom, -1, p) % p)
        return out

    assert ratios(ez) == [1] * 20
    assert 1 not in ratios((ez + gz[:, :, None]) % p)


@pytest.mark.parametrize("spec,d", VERIFY_CASES)
def test_jacobian_identity_holds_for_the_map_and_fails_for_a_mutant(spec, d,
                                                                    rs):
    # differentiating T_d(G z) = G(z^d) gives
    # det J_T(G z) det E(z) = d^n det E(z^d): it holds for the map, whose
    # functional identity the post-critical check tests, and fails for a
    # +1 mutant at every point.  J_T is the matrix of exact partial
    # derivatives, evaluated mod p at G(z).
    rsys = rs(spec)
    n = rsys.rank
    p, z = draw_points(rsys, 20, seed=11)
    gz, _, ez = gencos_mod(rsys, z, p, d)
    edz = gencos_mod(rsys, power_mod(z, d, p), p, 1)[2]
    want = pow(d, n, p) * det_mod(edz, p) % p
    pmap = build_cheb_map(rsys, d)
    for m, holds in ((pmap, True), (_plus_one(pmap, d), False)):
        entries = [q for row in jacobian_polys(m) for q in row]
        jac = eval_polys_mod(entries, gz, p).reshape(-1, n, n)
        got = det_mod(jac, p) * det_mod(ez, p) % p
        assert ((got == want) == holds).all(), (spec, d, holds)


@pytest.mark.parametrize("spec,d", [("A2", 2), ("G2", 6), ("F4", 2)])
def test_postcritical_draws_the_functional_points(spec, d, rs, monkeypatch):
    # at equal seed both checks draw the same prime and points through
    # draw_points, and the post-critical value residuals are the functional
    # residuals: per sample, the largest |residual| of a +1 mutant
    rsys = rs(spec)
    wrong = _plus_one(build_cheb_map(rsys, d), d)
    drawn = []
    real = chebmap.draw_points

    def recording(*args):
        drawn.append(real(*args))
        return drawn[-1]

    monkeypatch.setattr(chebmap, "draw_points", recording)
    monkeypatch.setattr(critical, "draw_points", recording)
    fun = verify_functional_equation(rsys, d, wrong, samples=30, seed=5)
    post = post_critical_check(rsys, d, wrong, samples=30, seed=5)
    assert len(drawn) == 2
    (p, z), (q, y) = drawn
    assert p == q == fun.prime == post.prime and np.array_equal(z, y)
    res = np.abs(residuals_mod_p(rsys, d, wrong, z, p)[0])
    assert post.value_residuals == res.max(axis=1).tolist()
    assert fun.max_residual == post.max_value_residual > 0
    assert post.witness["z"] == fun.witness["z"] == z[0].tolist()
    assert post.as_dict() == {
        "type_spec": spec, "d": d, "samples": 30, "skipped": 0,
        "prime": p, "max_det_residual": post.max_det_residual,
        "max_value_residual": post.max_value_residual, "tol": 1e-7,
        "witness": post.witness, "pass": False}


@pytest.mark.parametrize("spec,d", [("A1", 2), ("A2", 2), ("B2", 3),
                                    ("G2", 2)])
def test_postcritical_fails_on_a_corrupted_e_weight(spec, d, rs,
                                                    monkeypatch):
    # G at z and z^d and E at z, recomputed with Python ints from their
    # definitions, are the evaluator's, whose one call per batch takes the
    # points z; with the weights lam_j + 1 in place of lam_j the
    # denominator identity fails for the true map, in the det check, at
    # every sample
    rsys = rs(spec)
    real = chebmap.gencos_mod
    calls = []

    def corrupted(rsys, z, p, degree):
        g, gd, e = real(rsys, z, p, degree)
        calls.append((z.tolist(), degree))
        for i, point in enumerate(z.tolist()):
            assert (g[i].tolist(), e[i].tolist()) == \
                gencos_e_mod(rsys, point, p)
            assert gd[i].tolist() == gencos_e_mod(
                rsys, [pow(x, degree, p) for x in point], p)[0]
            e[i] = gencos_e_mod(rsys, point, p, shift=1)[1]
        return g, gd, e

    monkeypatch.setattr(chebmap, "gencos_mod", corrupted)
    rep = post_critical_check(rsys, d, build_cheb_map(rsys, d), samples=10)
    assert rep.max_value_residual == 0
    assert all(rep.det_residuals) and not rep.passed
    p, z = draw_points(rsys, 10, 0)
    assert calls == [(z.tolist(), d)]
    assert rep.witness == {"sample": 0, "check": "det", "component": None,
                           "z": z[0].tolist()}


@pytest.mark.parametrize("spec,d", VERIFY_CASES)
def test_both_verbs_fail_when_the_second_gencos_is_at_z(spec, d, monkeypatch,
                                                        capsys):
    # a mutant evaluator that takes the orbit terms at z for their d-th
    # powers, the terms at z^d: both verify verbs exit 1 and name a witness
    real = chebmap.power_mod
    monkeypatch.setattr(chebmap, "power_mod",
                        lambda a, e, p: a if e == d else real(a, e, p))
    for verb in ("verify-functional", "verify-postcritical"):
        capsys.readouterr()
        assert cli.main([verb, spec, str(d)]) == 1, (verb, spec, d)
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is False and out["witness"] is not None


def test_postcritical_refuses_no_samples(rs):
    # zero samples would pass with nothing checked
    rsys = rs("A2")
    with pytest.raises(ValueError, match="samples must be at least 1"):
        post_critical_check(rsys, 2, build_cheb_map(rsys, 2), samples=0)


@pytest.mark.parametrize("d", [0, -1, -2])
def test_postcritical_refuses_a_degree_below_one(d, rs):
    # refused before any point is evaluated, with build_cheb_map's message
    a2 = rs("A2")
    with pytest.raises(ValueError, match="d must be a positive integer"):
        post_critical_check(a2, d, build_cheb_map(a2, 2), samples=5)


@pytest.mark.parametrize("spec,d", [("A2", 2), ("G2", 6)])
def test_postcritical_catches_wrong_coefficient(spec, d, rs):
    rsys = rs(spec)
    comps = [dict(c) for c in build_cheb_map(rsys, d).components]
    comps[0][tuple(d if j == 0 else 0 for j in range(rsys.rank))] += 1
    rep = post_critical_check(rsys, d, PolynomialMap(rsys.rank, tuple(comps)),
                              samples=20, seed=0)
    assert rep.max_value_residual > 1e3 * 1e-7 and rep.max_det_residual == 0
    assert not rep.passed and rep.witness["sample"] == 0
    assert rep.witness["check"] == "value"


def test_postcritical_a1_explicit(rs):
    # the derivative of the degree-2 map vanishes at 0, the image of 1/4,
    # whose double 1/2 sits on the level-1 wall
    a1 = rs("A1")
    pmap = build_cheb_map(a1, 2)
    y = np.array([0.25 + 0j])
    gy = eval_gencos(a1, y)
    assert abs(gy[0]) < 1e-12
    deriv = eval_poly(jacobian_polys(pmap)[0][0], gy)
    assert abs(deriv) < 1e-11
    assert is_on_diagram(a1, 2 * y, 1e-12)[0]


def test_generic_points_not_critical(rs):
    rng = random.Random(34)
    for spec in ("A2", "B2"):
        rsys = rs(spec)
        pmap = build_cheb_map(rsys, 2)
        jp = jacobian_polys(pmap)
        found = 0
        while found < 50:
            x = np.array([rng.uniform(-1, 1) for _ in range(rsys.rank)])
            if is_on_diagram(rsys, x, 5e-2)[0] or is_on_diagram(rsys, 2 * x, 5e-2)[0]:
                continue
            found += 1
            gx = eval_gencos(rsys, x)
            jt = np.array([[eval_poly(jp[i][j], gx) for j in range(rsys.rank)]
                           for i in range(rsys.rank)])
            assert abs(np.linalg.det(jt)) > 1e-4


# --- deltoid -------------------------------------------------------------------------

def test_deltoid_cusp_value():
    assert deltoid_residual(3, 3) == 0


def test_deltoid_vanishes_on_wall_images(rs):
    residuals = deltoid_check(rs("A2"), samples=100, seed=35)
    assert max(residuals) < 1e-7


def test_deltoid_check_matches_per_point_residuals(rs, monkeypatch):
    # off the walls the residuals are of order one, so a batch that mixed up
    # its points would show
    a2 = rs("A2")
    rng = random.Random(38)
    points = [np.array([complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
                        for _ in range(2)]) for _ in range(50)]
    monkeypatch.setattr(critical, "sample_diagram_points",
                        lambda rsys, count, seed: [
                            DiagramSample(None, x) for x in points])
    batched = deltoid_check(a2, samples=50, seed=38)
    per_point = [abs(deltoid_residual(*eval_gencos(a2, x))) for x in points]
    assert min(per_point) > 1e-3
    assert batched == pytest.approx(per_point, rel=1e-12)


def test_deltoid_nonzero_off_walls(rs):
    a2 = rs("A2")
    rng = random.Random(36)
    found = 0
    while found < 100:
        x = np.array([rng.uniform(-1, 1) for _ in range(2)])
        if is_on_diagram(a2, x, 5e-2)[0]:
            continue
        found += 1
        x1, x2 = eval_gencos(a2, x)
        assert abs(deltoid_residual(x1, x2)) > 1e-3


def test_deltoid_zero_set_forward_invariant(rs):
    # points with tiny residual map to points with small residual under the map
    a2 = rs("A2")
    pmap = build_cheb_map(a2, 2)
    from weylcheb.chebmap import eval_poly_map
    for s in sample_diagram_points(a2, 50, seed=37):
        x1, x2 = eval_gencos(a2, s.point)
        assert abs(deltoid_residual(x1, x2)) < 1e-8
        y1, y2 = eval_poly_map(pmap, np.array([x1, x2]))
        assert abs(deltoid_residual(y1, y2)) < 1e-6


def test_deltoid_requires_a2(rs):
    with pytest.raises(ValueError):
        deltoid_check(rs("B2"))
