"""Exact synthesis of the Chebyshev-like polynomial maps.

The degree-d map for a root system is characterized by intertwining the
generalized cosine with multiplication by d.  Synthesis works entirely in the
ring of Weyl-invariant exponential sums: an "orbit sum" m_lam is the sum of
e^{2 pi i <mu, x>} over the orbit of a dominant weight lam, and a combination
of orbit sums is stored as a dict

    {dominant weight (int tuple): nonzero int coefficient}.

Component k of the map is obtained by rewriting m_{d*omega_k} as an integer
polynomial in the basic invariants m_{omega_1}, ..., m_{omega_n} via
triangular elimination against a height order.

Products of orbit sums use the stabilizer formula

    m_lam * m_mu = sum_{s in W mu} (|W lam| / |W dom(lam + s)|) m_{dom(lam + s)},

which walks one orbit (the smaller) instead of convolving both; orbit sizes
come from rootsys.orbit_size without enumeration.  Chevalley integrality is
asserted, never rounded: each coefficient count * |W lam| / |W nu| must divide
exactly, and a remainder raises ArithmeticError.

The functional check T_d(gencos(x)) = gencos(d x) evaluates both sides of
gencos together (GencosPair): one expjpi per coordinate, then every orbit
term is a product of tabulated powers z_j^k in Gaussian-integer fixed point
with P = p + 2 log2 M + 32 fractional bits, where p is the working precision
in bits and M = e^{2 pi d big max|Im x_j|} bounds every partial product.
That keeps each orbit term within one rounding at the working precision
(derivation in GencosPair).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import mpmath
import numpy as np
from mpmath.libmp import to_fixed

from .errors import DimensionError
from .rootsys import (RootSystem, dominant_weight, invert_fraction, orbit,
                      orbit_matrix, orbit_size)

_DECOMPOSE_CAP = 200000


# ---------------------------------------------------------------------------
# the reduction order on dominant weights
# ---------------------------------------------------------------------------

def height_vector(rs: RootSystem) -> tuple:
    """Positive integer vector c with dot(alpha_j, c) equal for all simple
    roots: dot(lam, c) is a height functional, strictly positive on nonzero
    dominant weights, used as the primary elimination key."""
    cinv = invert_fraction(rs.cartan)
    # column sums of C^{-1}; clearing denominators keeps the order integral
    cols = [sum(cinv[k][m] for k in range(rs.rank)) for m in range(rs.rank)]
    denom = math.lcm(*(c.denominator for c in cols))
    vec = tuple(int(c * denom) for c in cols)
    assert all(c > 0 for c in vec)
    return vec


def _order_key(cvec):
    def key(lam):
        return (sum(l * c for l, c in zip(lam, cvec)), lam)
    return key


# ---------------------------------------------------------------------------
# orbit-sum algebra
# ---------------------------------------------------------------------------

def _clean(combo: dict) -> dict:
    return {lam: c for lam, c in combo.items() if c != 0}


def orbit_sum_product(rs: RootSystem, a: dict, b: dict) -> dict:
    """Product of two orbit-sum combinations.

    Each pair of terms uses the stabilizer formula

        m_lam * m_mu = sum_{s in W mu} (|W lam| / |W nu(s)|) m_{nu(s)},
        nu(s) = dom(lam + s),

    summed over whichever of the two orbits is smaller: count the s that land
    on each dominant nu, then the coefficient of m_nu is
    count * |W lam| / |W nu|.  The division must be exact; a remainder
    raises ArithmeticError instead of being rounded.
    """
    out: dict = {}
    for lam, ca in a.items():
        for mu, cb in b.items():
            big, small = lam, mu
            if orbit_size(rs, lam) < orbit_size(rs, mu):
                big, small = mu, lam
            counts: dict = {}
            for s in orbit(rs, small):
                nu = dominant_weight(rs, [x + y for x, y in zip(big, s)])
                counts[nu] = counts.get(nu, 0) + 1
            size = orbit_size(rs, big)
            for nu, k in counts.items():
                q, r = divmod(k * size, orbit_size(rs, nu))
                if r:
                    raise ArithmeticError(
                        f"m_{lam} * m_{mu}: coefficient of m_{nu} is "
                        f"{k * size}/{orbit_size(rs, nu)}, not an integer")
                out[nu] = out.get(nu, 0) + ca * cb * q
    return _clean(out)


# monomial_expand's memo: {exponent tuple: expansion} per root system, kept
# here and dropped with the root system
_EXPANSIONS = weakref.WeakKeyDictionary()


def monomial_expand(rs: RootSystem, e) -> dict:
    """Expansion of prod_j m_{omega_j}^{e_j} as an orbit-sum combination,
    memoized per root system.  Its leading term is sum_j e_j omega_j with
    coefficient 1."""
    e = tuple(int(c) for c in e)
    if any(c < 0 for c in e):
        raise ValueError("exponents must be nonnegative")
    memo = _EXPANSIONS.setdefault(rs, {})
    cached = memo.get(e)
    if cached is not None:
        return cached
    if all(c == 0 for c in e):
        result = {tuple([0] * rs.rank): 1}
    else:
        j = max(k for k, c in enumerate(e) if c > 0)
        prev = list(e)
        prev[j] -= 1
        base = monomial_expand(rs, tuple(prev))
        result = orbit_sum_product(rs, base, {rs.fundamental_weight(j): 1})
    memo[e] = result
    return result


def decompose_to_polynomial(rs: RootSystem, target: dict) -> dict:
    """Rewrite an orbit-sum combination as an integer polynomial in the basic
    invariants: {exponent vector: coefficient}.  Exponent vectors are the
    dominant weights themselves (X^mu means prod_j X_j^{mu_j}).

    Triangular elimination: repeatedly strip the height-maximal term.  Each
    step replaces it by strictly lower terms, so the loop terminates; the
    guard cap only trips on a broken order.
    """
    key = _order_key(height_vector(rs))
    work = _clean(dict(target))
    poly: dict = {}
    steps = 0
    while work:
        mu = max(work, key=key)
        c = work[mu]
        poly[mu] = poly.get(mu, 0) + c
        for nu, k in monomial_expand(rs, mu).items():
            work[nu] = work.get(nu, 0) - c * k
        work = _clean(work)
        steps += 1
        if steps > _DECOMPOSE_CAP:
            raise RuntimeError("elimination failed to terminate; "
                               "reduction order is broken")
    return _clean(poly)


# ---------------------------------------------------------------------------
# polynomial maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialMap:
    """n integer-coefficient polynomials in n variables, each stored sparsely
    as {exponent vector: coefficient}."""

    rank: int
    components: tuple  # tuple of dicts

    def __post_init__(self):
        for comp in self.components:
            for e, c in comp.items():
                if len(e) != self.rank:
                    raise DimensionError("exponent vector has wrong length")
                if not isinstance(c, int) or c == 0:
                    raise ValueError("coefficients must be nonzero integers")


def identity_map(n: int) -> PolynomialMap:
    comps = tuple({tuple(1 if j == k else 0 for j in range(n)): 1} for k in range(n))
    return PolynomialMap(n, comps)


def build_cheb_map(rs: RootSystem, d: int) -> PolynomialMap:
    """The degree-d Chebyshev-like map: component k is the rewriting of
    m_{d*omega_k} in the basic invariants.  d = 1 yields the identity and is
    allowed for testing."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    comps = []
    for k in range(rs.rank):
        target = {tuple(d if j == k else 0 for j in range(rs.rank)): 1}
        comps.append(decompose_to_polynomial(rs, target))
    return PolynomialMap(rs.rank, tuple(comps))


def eval_polys(comps, x) -> list:
    """Evaluate sparse polynomials at one point; exact when fed ints or
    Fractions.  Each power x_j^k is formed once for all of them, by
    incremental products."""
    powers = []
    exps = [e for comp in comps for e in comp]
    for xj, top in zip(x, map(max, zip(*exps))):
        pw = [1, xj]
        while len(pw) <= top:
            pw.append(pw[-1] * xj)
        powers.append(pw)
    out = []
    for comp in comps:
        total = 0
        for e, c in comp.items():
            term = c
            for pw, ej in zip(powers, e):
                if ej:
                    term = term * pw[ej]
            total = total + term
        out.append(total)
    return out


def eval_poly(comp: dict, x) -> complex:
    """Evaluate one sparse polynomial (see eval_polys)."""
    return eval_polys([comp], x)[0]


def eval_poly_map(pmap: PolynomialMap, x):
    """Evaluate all components.  numpy in, numpy out; sequences of exact
    scalars are evaluated exactly."""
    if len(x) != pmap.rank:
        raise DimensionError(f"point has length {len(x)}, expected {pmap.rank}")
    vals = eval_polys(pmap.components, x)
    if isinstance(x, np.ndarray):
        return np.array(vals, dtype=complex)
    return vals


def poly_mul(a: dict, b: dict, n: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _clean(out)


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
        comps.append(_clean(acc))
    return PolynomialMap(n, tuple(comps))


# ---------------------------------------------------------------------------
# functional-equation verification
# ---------------------------------------------------------------------------

@dataclass
class FunctionalEquationReport:
    type_spec: str
    d: int
    samples: int
    tol: float
    max_residual: float

    @property
    def passed(self):
        return self.max_residual <= self.tol

    def as_dict(self):
        return {"type_spec": self.type_spec, "d": self.d,
                "samples": self.samples, "tol": self.tol,
                "max_residual": self.max_residual, "pass": self.passed}


def _orbit_growth(rs: RootSystem) -> int:
    """big = max over the orbit rows of sum_j |r_j|: over the sample box
    (|Im x_j| <= 1) every pairing <r, x> has |Im| <= big."""
    return max(int(np.abs(orbit_matrix(rs, k)).sum(axis=1).max())
               for k in range(rs.rank))


def _needed_dps(rs: RootSystem, d: int, h: float = 1.0) -> int:
    """Decimal digits needed so residuals near zero survive the exponential
    growth of the invariants at d*x, for points x with |Im x_j| <= h
    (h = 1: the sample box)."""
    # pairings at d*x have |Im| <= d big h; growth e^{2 pi d big h}
    return int(2 * np.pi * d * _orbit_growth(rs) * h / np.log(10)) + 25


class GencosPair:
    """gencos(x) and gencos(d*x) together, as lists of mpc at the working
    mpmath precision: `GencosPair(rs, d)(x)`.

    One expjpi per coordinate: z_j = e^{2 pi i x_j}, so the orbit term of a
    row r is prod_j z_j^{r_j}, and of the same row at d*x prod_j z_j^{d r_j}.
    The powers z_j^k, |k| <= d*K (K the largest |r_j|), are tabulated once
    per point, and the terms are products of table entries in Gaussian-integer
    fixed point: the int pair (a, b) stands for (a + ib) 2^-P.  Rows are
    walked in sorted order and share the products of their common prefixes.
    Only the 2 * rank sums are converted back to mpc.

    Precision.  Let p be the working precision in bits, h = max_j |Im x_j|
    and M = e^{2 pi d big h}, big as in _orbit_growth (on the sample box
    h <= 1 and M < 10^{dps - 24}).  A term is a product of n <= d*big
    factors z_j^{+-1}, so it and every partial product, table entry and
    sub-product of it has modulus in [1/M, M].  Two kinds of error enter:
    - z_j and 1/z_j are evaluated at p + 32 bits, a few units in the last
      place, relative error below 2^{-p-29} each; the term gets a relative
      error below n 2^{-p-29};
    - truncating z_j^{+-1} to P fractional bits (once per factor) and each
      of the at most n fixed-point products is off by less than
      sqrt(2) 2^-P, and each such error is later multiplied by a
      sub-product of modulus <= M: in all less than 2 sqrt(2) n M 2^-P.
    With

        P = p + 2 log2 M + 32,

    the second is below 2 sqrt(2) n 2^-32 2^-p / M < n 2^{-p-30} |term|,
    as no term is smaller than 1/M.  So each term is off by less than
    n 2^{-p-28} |term| < 2^-p |term| (n < 2^28): as accurate as one
    rounding at the working precision, the least error that evaluating it
    alone with expjpi can make.
    """

    def __init__(self, rs: RootSystem, d: int):
        self.rank, self.d = rs.rank, d
        self.big = _orbit_growth(rs)
        self.rows = [sorted(orbit_matrix(rs, k).tolist())
                     for k in range(rs.rank)]
        self.top = d * max(abs(c) for rk in self.rows for row in rk
                           for c in row)

    def __call__(self, x) -> tuple:
        rank, d, top = self.rank, self.d, self.top
        p = mpmath.mp.prec
        h = float(max(abs(mpmath.im(xj)) for xj in x))
        log2_m = 2 * math.pi * d * self.big * h / math.log(2)
        P = p + 2 * math.ceil(log2_m) + 32
        one = 1 << P

        def mul(u, v):
            return ((u[0] * v[0] - u[1] * v[1]) >> P,
                    (u[0] * v[1] + u[1] * v[0]) >> P)

        # tables[j][k] = z_j^k for -top <= k <= top; negative k index from
        # the end of the list
        tables = []
        for xj in x:
            with mpmath.workprec(p + 32):
                z = mpmath.expjpi(2 * xj)
                w = 1 / z
            z, w = [(to_fixed(mpmath.re(v)._mpf_, P),
                     to_fixed(mpmath.im(v)._mpf_, P)) for v in (z, w)]
            up, down = [(one, 0), z], [w]
            while len(down) < top:
                up.append(mul(up[-1], z))
                down.append(mul(down[-1], w))
            tables.append(up + down[::-1])

        def orbit_sum(rows, scale):
            stack = [(one, 0)] * (rank + 1)  # stack[j]: product of j factors
            re = im = 0
            prev = None
            for row in rows:
                j = 0
                if prev is not None:
                    while row[j] == prev[j]:
                        j += 1
                prev = row
                for j in range(j, rank):
                    a, b = stack[j]
                    if row[j]:
                        c, s = tables[j][scale * row[j]]
                        a, b = (a * c - b * s) >> P, (a * s + b * c) >> P
                    stack[j + 1] = (a, b)
                re += stack[rank][0]
                im += stack[rank][1]
            return mpmath.mpc(mpmath.mpf((re, -P)), mpmath.mpf((im, -P)))

        return ([orbit_sum(rows, 1) for rows in self.rows],
                [orbit_sum(rows, d) for rows in self.rows])


def verify_functional_equation(rs: RootSystem, d: int, pmap: PolynomialMap,
                               samples: int = 100, tol: float = 1e-8,
                               seed: int = 0) -> FunctionalEquationReport:
    """Check that the map intertwines the generalized cosine with
    multiplication by d, at seeded random complex points with coordinates in
    [-1,1] + i[-1,1].

    The sample values grow like exp(2 pi d |Im x|), far past float64 for the
    larger systems, so evaluation runs at adaptive mpmath precision
    (_needed_dps), with both gencos(x) and gencos(d x) from GencosPair; the
    reported residual is the exact-arithmetic gap rounded to float.
    """
    import random
    rng = random.Random(seed)
    dps = _needed_dps(rs, d)
    gencos_pair = GencosPair(rs, d)
    max_res = 0.0
    with mpmath.workdps(dps):
        for _ in range(samples):
            x = [mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(rs.rank)]
            gx, rhs = gencos_pair(x)
            lhs = eval_polys(pmap.components, gx)
            res = max(abs(a - b) for a, b in zip(lhs, rhs))
            max_res = max(max_res, float(res))
    return FunctionalEquationReport(rs.type_spec, d, samples, tol, max_res)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def poly_map_as_dict(rs: RootSystem, d: int, pmap: PolynomialMap) -> dict:
    """JSON form with terms in descending reduction order (byte-stable)."""
    key = _order_key(height_vector(rs))
    comps = []
    for comp in pmap.components:
        terms = [{"exponents": list(e), "coeff": c}
                 for e, c in sorted(comp.items(), key=lambda kv: key(kv[0]),
                                    reverse=True)]
        comps.append(terms)
    return {"type_spec": rs.type_spec, "d": d, "components": comps}
