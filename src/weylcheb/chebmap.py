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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

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


def monomial_expand(rs: RootSystem, e) -> dict:
    """Expansion of prod_j m_{omega_j}^{e_j} as an orbit-sum combination,
    memoized per root system.  Its leading term is sum_j e_j omega_j with
    coefficient 1."""
    e = tuple(int(c) for c in e)
    if any(c < 0 for c in e):
        raise ValueError("exponents must be nonnegative")
    cached = rs._expand_cache.get(e)
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
    rs._expand_cache[e] = result
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


def eval_poly(comp: dict, x) -> complex:
    """Evaluate one sparse polynomial; exact when fed ints or Fractions."""
    total = 0
    for e, c in comp.items():
        term = c
        for xj, ej in zip(x, e):
            if ej:
                term = term * xj ** ej
        total = total + term
    return total


def eval_poly_map(pmap: PolynomialMap, x):
    """Evaluate all components.  numpy in, numpy out; sequences of exact
    scalars are evaluated exactly."""
    if len(x) != pmap.rank:
        raise DimensionError(f"point has length {len(x)}, expected {pmap.rank}")
    vals = [eval_poly(comp, x) for comp in pmap.components]
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


def _needed_dps(rs: RootSystem, d: int) -> int:
    """Decimal digits needed so residuals near zero survive the exponential
    growth of the invariants over the sample box."""
    big = 0
    for k in range(rs.rank):
        om = orbit_matrix(rs, k)
        big = max(big, int(np.abs(om).sum(axis=1).max()))
    # pairings over the box have |Im| <= big; growth e^{2 pi d big}
    return int(2 * np.pi * d * big / np.log(10)) + 25


def _gencos_mp(rs: RootSystem, x) -> list:
    out = []
    for k in range(rs.rank):
        om = orbit_matrix(rs, k)
        total = mpmath.mpc(0)
        for row in om:
            p = mpmath.fsum(int(r) * xi for r, xi in zip(row, x))
            total += mpmath.expjpi(2 * p)
        out.append(total)
    return out


def verify_functional_equation(rs: RootSystem, d: int, pmap: PolynomialMap,
                               samples: int = 100, tol: float = 1e-8,
                               seed: int = 0) -> FunctionalEquationReport:
    """Check that the map intertwines the generalized cosine with
    multiplication by d, at seeded random complex points with coordinates in
    [-1,1] + i[-1,1].

    The sample values grow like exp(2 pi d |Im x|), far past float64 for the
    larger systems, so evaluation runs at adaptive mpmath precision; the
    reported residual is the exact-arithmetic gap rounded to float.
    """
    import random
    rng = random.Random(seed)
    dps = _needed_dps(rs, d)
    max_res = 0.0
    with mpmath.workdps(dps):
        for _ in range(samples):
            x = [mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(rs.rank)]
            gx = _gencos_mp(rs, x)
            lhs = [eval_poly(comp, gx) for comp in pmap.components]
            rhs = _gencos_mp(rs, [d * xi for xi in x])
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
