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

Expanding X^e as X^{e - e_j} * m_{omega_j} meets the same pairs m_lam * m_mu
over and over, so each root system has one memo (_Memo, held weakly and
dropped with the root system): the pair table {(lam, mu): product}, walked
once per pair; the monomial expansions; and the height vector of the
reduction order.  Elimination pops the height-maximal term from a heap, and
raises if a popped term is not below the previous one or an expansion does
not lead with coefficient 1.

The functional check T_d(gencos(x)) = gencos(d x) is exact.  With
z_j = e^{2 pi i x_j} both sides are integer Laurent polynomials in z, so
the identity is tested modulo a prime p drawn from the seed in
[2^30, 2^31) (draw_prime), at seeded points z of (F_p^*)^n, in int64 numpy:
a product of two residues is below 2^62, and a sum of fewer than 2^32
residues below 2^63.  gencos(z) and gencos(z^d) are sums of products of
tabulated powers z_j^k mod p (gencos_pair_mod), and T_d is evaluated from
one exponent matrix of its monomials (eval_polys_mod).  A nonzero
residual, a Laurent polynomial of total degree deg once its negative
exponents are cleared, vanishes at a uniform point of (F_p^*)^n with
probability at most deg/(p-1) (Schwartz-Zippel), unless p divides all its
integer coefficients; a new seed draws a new p.

The post-critical check (critical.post_critical_check) runs its sample
points through one kernel in batches of CHECK_CHUNK, all at one
precision, in Gaussian-integer fixed point with P = p + 32 fractional bits
(p the bits mpmath would give the decimal digits of _needed_dps;
check_precision).  The identities there are Laurent-polynomial identities
in z too, so any exactly known z serves as a sample: fixed_exp takes z
from one float64 exp per batch, truncated to P bits, and so exact at a
point within about 1e-16 of the drawn one.  GencosPair gives gencos and
gencos(d .) at that z, every orbit term a product of tabulated powers
z_j^k, and eval_polys_fixed evaluates T_d and its Jacobian on those same
fixed-point values.  Each orbit term is off by less than 2^-p M,
M = e^{2 pi d big max|Im x_j|} bounding every partial product: no worse
than rounding the largest term at the working precision (derivations in
GencosPair and eval_polys_fixed).  Residuals are exact integers until one
final square root.
"""

from __future__ import annotations

import heapq
import math
import random
import weakref
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionError
from .rootsys import (RootSystem, dominant_weight, fundamental_orbit_table,
                      invert_fraction, orbit, orbit_matrix, orbit_size)

# points per fixed-point batch of the post-critical check: memory stays
# bounded for any sample count, and the default sample count runs as one batch
CHECK_CHUNK = 256
# int64 cells per (points x 2 orbit rows) array of one batch of the
# functional check (16 MiB): E7 runs 59 points a batch, F4 4369
FIELD_CELLS = 1 << 21


# ---------------------------------------------------------------------------
# the reduction order on dominant weights, and the per-root-system memo
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


class _Memo:
    """What synthesis keeps per root system: the height vector, the pair
    table {(lam, mu) sorted: {nu: coefficient}} of orbit_sum_product and
    the expansions {exponent tuple: combination} of monomial_expand."""

    def __init__(self, rs: RootSystem):
        self.height = height_vector(rs)
        self.pairs: dict = {}
        self.expansions: dict = {}

    def key(self, lam) -> tuple:
        """The reduction order: height first, then lam lexicographically."""
        return sum(l * c for l, c in zip(lam, self.height)), lam


# one entry per root system, dropped with it
_MEMO = weakref.WeakKeyDictionary()


def _memo(rs: RootSystem) -> _Memo:
    memo = _MEMO.get(rs)
    if memo is None:
        memo = _MEMO[rs] = _Memo(rs)
    return memo


# ---------------------------------------------------------------------------
# orbit-sum algebra
# ---------------------------------------------------------------------------

def _clean(combo: dict) -> dict:
    return {lam: c for lam, c in combo.items() if c != 0}


def _pair_product(rs: RootSystem, lam, mu) -> dict:
    """m_lam * m_mu by the stabilizer formula (see orbit_sum_product)."""
    big, small = lam, mu
    if orbit_size(rs, lam) < orbit_size(rs, mu):
        big, small = mu, lam
    counts: dict = {}
    for s in orbit(rs, small):
        nu = dominant_weight(rs, [x + y for x, y in zip(big, s)])
        counts[nu] = counts.get(nu, 0) + 1
    size = orbit_size(rs, big)
    out = {}
    for nu, k in counts.items():
        q, r = divmod(k * size, orbit_size(rs, nu))
        if r:
            raise ArithmeticError(
                f"m_{lam} * m_{mu}: coefficient of m_{nu} is "
                f"{k * size}/{orbit_size(rs, nu)}, not an integer")
        out[nu] = q
    return out


def orbit_sum_product(rs: RootSystem, a: dict, b: dict) -> dict:
    """Product of two orbit-sum combinations.

    Each pair of terms uses the stabilizer formula

        m_lam * m_mu = sum_{s in W mu} (|W lam| / |W nu(s)|) m_{nu(s)},
        nu(s) = dom(lam + s),

    summed over whichever of the two orbits is smaller: count the s that land
    on each dominant nu, then the coefficient of m_nu is
    count * |W lam| / |W nu|.  The division must be exact; a remainder
    raises ArithmeticError instead of being rounded.  Each pair's product
    is computed once per root system and kept in its pair table.
    """
    pairs = _memo(rs).pairs
    out: dict = {}
    for lam, ca in a.items():
        for mu, cb in b.items():
            key = (lam, mu) if lam <= mu else (mu, lam)
            prod = pairs.get(key)
            if prod is None:
                prod = pairs[key] = _pair_product(rs, lam, mu)
            c = ca * cb
            for nu, q in prod.items():
                out[nu] = out.get(nu, 0) + c * q
    return _clean(out)


def monomial_expand(rs: RootSystem, e) -> dict:
    """Expansion of prod_j m_{omega_j}^{e_j} as an orbit-sum combination,
    memoized per root system.  Its leading term is sum_j e_j omega_j with
    coefficient 1."""
    e = tuple(int(c) for c in e)
    if any(c < 0 for c in e):
        raise ValueError("exponents must be nonnegative")
    memo = _memo(rs).expansions
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

    Triangular elimination: repeatedly strip the height-maximal term, popped
    from a heap, by subtracting its coefficient times the expansion of X^mu.
    That expansion must lead with mu at coefficient 1 and otherwise hold
    strictly lower terms, so the popped terms strictly decrease and the loop
    terminates; a leading coefficient other than 1 or a popped term not
    below the previous one raises RuntimeError.
    """
    key = _memo(rs).key
    work: dict = {}
    heap = []  # negated keys: the min-heap pops the height-maximal term

    def add(nu, c):
        if nu in work:
            work[nu] += c
        else:
            work[nu] = c
            heapq.heappush(heap, (-key(nu)[0], tuple(-x for x in nu), nu))

    for nu, c in target.items():
        add(nu, c)
    poly: dict = {}
    last = None
    while heap:
        neg_h, _, mu = heapq.heappop(heap)
        c = work.pop(mu)
        if c == 0:
            continue
        if last is not None and (-neg_h, mu) >= last:
            raise RuntimeError(f"elimination popped {mu} after {last[1]}; "
                               "reduction order is broken")
        last = -neg_h, mu
        poly[mu] = c
        expansion = monomial_expand(rs, mu)
        if expansion.get(mu) != 1:
            raise RuntimeError(f"expansion of X^{mu} leads with coefficient "
                               f"{expansion.get(mu)}, not 1")
        for nu, k in expansion.items():
            if nu != mu:
                add(nu, -c * k)
    return poly


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
# the Gaussian fixed-point kernel of the post-critical check
# ---------------------------------------------------------------------------

def _orbit_growth(rs: RootSystem) -> int:
    """big = max over the orbit rows of sum_j |r_j|: over the sample box
    (|Im x_j| <= 1) every pairing <r, x> has |Im| <= big."""
    return int(np.abs(fundamental_orbit_table(rs)[0]).sum(axis=1).max())


def _needed_dps(rs: RootSystem, d: int, h: float = 1.0) -> int:
    """Decimal digits needed so residuals near zero survive the exponential
    growth of the invariants at d*x, for points x with |Im x_j| <= h
    (h = 1: the sample box)."""
    # pairings at d*x have |Im| <= d big h; growth e^{2 pi d big h}
    return int(2 * np.pi * d * _orbit_growth(rs) * h / np.log(10)) + 25


def check_precision(rs: RootSystem, d: int, h: float = 1.0) -> int:
    """P, the fractional bits of the fixed point of both sampled checks,
    for points with |Im x_j| <= h: P = p + 32, p the working precision in
    bits, from the _needed_dps digits by mpmath's rule
    round((dps + 1) log2 10)."""
    return round((_needed_dps(rs, d, h) + 1) * math.log2(10)) + 32


# Gaussian fixed point: the pair (a, b) of numpy object arrays of Python ints,
# one entry per point of a batch, stands for (a + ib) 2^-P at each point; a
# pair of Python ints is one point.

def _mul(u, v, P: int) -> tuple:
    """Product of two fixed-point values, each part truncated to P bits."""
    (a, b), (c, s) = u, v
    return (a * c - b * s) >> P, (a * s + b * c) >> P


def _div(u, v, P: int) -> tuple:
    """Quotient u / v of two fixed-point values, v nonzero, each part
    floored to P bits: one Gaussian-integer division, off by less than
    sqrt(2) 2^-P."""
    (a, b), (c, s) = u, v
    norm = c * c + s * s
    return ((a * c + b * s) << P) // norm, ((b * c - a * s) << P) // norm


def fixed_exp(points, P: int) -> list:
    """z_j = e^{2 pi i x_j} for a batch of S points (sequences of n complex),
    one fixed-point value per coordinate j.

    z comes from one float64 exp over the batch, each part truncated to P
    fractional bits (float.as_integer_ratio): a dyadic number known
    exactly, equal to the float unless that part is below about 2^{52-P}.
    The point it samples, log(z) / (2 pi i), lies within about 1e-16 of
    the drawn one."""
    z = np.exp(2j * np.pi * np.asarray(points, dtype=complex))

    def fixed(parts):
        return np.array([(a << P) // b for a, b in
                         map(float.as_integer_ratio, parts.tolist())],
                        dtype=object)

    return [(fixed(col.real), fixed(col.imag)) for col in z.T]


def _sqrt_float(v: int, bits: int) -> float:
    """sqrt(v) 2^-bits as a float, v a nonnegative int: floor(sqrt(v) 2^64)
    cut to its leading 64 bits, then rounded once to float (inf past the
    float range)."""
    root = math.isqrt(v << 128)
    shift = max(root.bit_length() - 64, 0)
    try:
        return math.ldexp(root >> shift, shift - 64 - bits)
    except OverflowError:
        return math.inf


def _term_index(comps) -> list:
    """The keys of the combinations `comps` (each {key: int coefficient}),
    sorted, each with its [(combination index, coefficient), ...]."""
    index: dict = {}
    for k, comp in enumerate(comps):
        for key, c in comp.items():
            index.setdefault(key, []).append((k, c))
    return sorted(index.items())


def _fixed_sums(tables, terms, count: int, size: int, P: int) -> list:
    """For each of `count` outputs, the sum over `terms` (as _term_index
    gives them) of c * prod_j tables[j][key_j], in fixed point over a batch
    of `size` points; a zero key_j is the factor 1.  Keys are walked in
    sorted order and share the products of their common prefixes; every
    product is one numpy operation over the batch."""
    n = len(tables)
    out = [(np.zeros(size, dtype=object), np.zeros(size, dtype=object))
           for _ in range(count)]
    stack = [None] * (n + 1)  # stack[j]: product of j factors, None for 1
    prev = None
    for key, uses in terms:
        j = 0
        if prev is not None:
            while key[j] == prev[j]:
                j += 1
        prev = key
        for j in range(j, n):
            t = stack[j]
            if key[j]:
                f = tables[j][key[j]]
                t = f if t is None else _mul(t, f, P)
            stack[j + 1] = t
        t = stack[n]
        for k, c in uses:
            re, im = out[k]
            if t is None:
                re += c << P
            else:
                re += t[0] if c == 1 else c * t[0]
                im += t[1] if c == 1 else c * t[1]
    return out


def fixed_distances(lhs, rhs, P: int) -> list:
    """Per point, max over k of |lhs[k] - rhs[k]|, as floats.  The
    differences and their squared moduli are exact integers; only the square
    root is rounded (_sqrt_float)."""
    worst = 0
    for (a, b), (c, s) in zip(lhs, rhs):
        re, im = a - c, b - s
        worst = np.maximum(worst, re * re + im * im)
    return [_sqrt_float(v, P) for v in worst]


class GencosPair:
    """gencos(x) and gencos(d*x) together, for a batch of points, in
    Gaussian-integer fixed point: `gx, gdx = GencosPair(rs, d)(z, P)`, z
    the batch's z_j = e^{2 pi i x_j} as fixed_exp gives them, P their
    fractional bits.  gx and gdx hold one fixed-point value per component:
    a pair (a, b) of numpy object arrays of shape (S,) of Python ints,
    standing for (a + ib) 2^-P at each point.  Subtracting such values is
    exact; eval_polys_fixed evaluates polynomials on them, and
    fixed_distances measures their gaps.

    The orbit term of a row r is prod_j z_j^{r_j}, and of the same row at
    d*x prod_j z_j^{d r_j}: a Laurent-polynomial identity in z holds at any
    z, so z need only be known exactly, not be e^{2 pi i x} to the last
    bit.  1/z_j = conj(z_j) 2^{2P} // |z_j|^2 is one Gaussian-integer
    division.  The powers z_j^k, |k| <= d*K (K the largest |r_j|), are
    tabulated once per batch, and the terms are products of table entries.
    The rows at x and at d*x are walked once, in sorted order, sharing the
    products of their common prefixes (_fixed_sums).

    Precision.  Let p = P - 32 be the working precision in bits, h the
    largest |Im x_j| of the batch and M = e^{2 pi d big h}, big as in
    _orbit_growth (on the sample box h <= 1 and M < 10^{dps - 24}).  A term
    is a product of n <= d*big factors z_j^{+-1}, so it and every partial
    product, table entry and sub-product of it has modulus at most M.  z_j
    is exact.  1/z_j is floored in each part, so it is off by less than
    sqrt(2) 2^-P, a relative error of at most sqrt(2) e^{2 pi h} 2^-P
    (|z_j| <= e^{2 pi h}).  Two kinds of error enter, each later multiplied
    by a sub-product of modulus at most M:
    - each of the at most n factors 1/z_j, off by less than sqrt(2) 2^-P:
      in all less than sqrt(2) n M 2^-P;
    - each of the at most n fixed-point products, truncated by less than
      sqrt(2) 2^-P: in all less than sqrt(2) n M 2^-P.
    With

        P = p + 32,

    each term is off by less than (to first order) 2 sqrt(2) n M 2^-P
    < n 2^{-p-30} M < 2^-p M (n < 2^30): an absolute error no worse than
    rounding the largest term at the working precision.
    """

    def __init__(self, rs: RootSystem, d: int):
        self.rank, self.d = rs.rank, d
        rows = [orbit_matrix(rs, k).tolist() for k in range(rs.rank)]
        self.top = d * max(abs(c) for rk in rows for row in rk for c in row)
        # outputs 0..n-1: the orbit sums at x; n..2n-1: at d*x
        self.terms = _term_index(
            [{tuple(r): 1 for r in rk} for rk in rows]
            + [{tuple(d * c for c in r): 1 for r in rk} for rk in rows])

    def __call__(self, z, P: int) -> tuple:
        # tables[j][k] = z_j^k for 0 < |k| <= top; negative k index from
        # the end of the list, and k = 0 is never looked up
        tables = []
        for zj in z:
            wj = _div((1 << P, 0), zj, P)
            up, down = [None, zj], [wj]
            while len(down) < self.top:
                up.append(_mul(up[-1], zj, P))
                down.append(_mul(down[-1], wj, P))
            tables.append(up + down[::-1])
        sums = _fixed_sums(tables, self.terms, 2 * self.rank, len(z[0][0]), P)
        return sums[:self.rank], sums[self.rank:]


def chunked(items: list):
    """Consecutive slices of items, CHECK_CHUNK long (the last shorter)."""
    for lo in range(0, len(items), CHECK_CHUNK):
        yield items[lo:lo + CHECK_CHUNK]


def eval_polys_fixed(comps, values, P: int) -> list:
    """Sparse integer polynomials at a batch of points given in fixed point
    (values[j] the j-th coordinate, as GencosPair returns them), in the same
    fixed point: one value per polynomial.

    Each power X_j^k is formed once by incremental products, and the
    monomials of all the polynomials are walked once, in sorted order,
    sharing the products of their common prefixes (_fixed_sums).

    Error.  At each point let A_j >= max(1, |X_j|), and D the largest total
    degree.  A monomial X^e takes at most deg e fixed-point products, each
    truncated by less than sqrt(2) 2^-P and then multiplied by factors of
    modulus at most prod_j A_j^{e_j}.  So each polynomial sum_e c_e X^e is
    off from its exact value at the given X by less than (to first order)

        sqrt(2) D 2^-P sum_e |c_e| prod_j A_j^{e_j}.

    With P = p + 32 that is below a 2^-31 D share of 2^-p times the same
    sum, what rounding each term at the working precision p can cost.
    """
    size = len(values[0][0])
    tables = []
    for j, x in enumerate(values):
        pw = [None, x]
        top = max(e[j] for comp in comps for e in comp)
        while len(pw) <= top:
            pw.append(_mul(pw[-1], x, P))
        tables.append(pw)
    return _fixed_sums(tables, _term_index(comps), len(comps), size, P)


# ---------------------------------------------------------------------------
# functional-equation verification over a prime field
# ---------------------------------------------------------------------------

# Miller-Rabin with bases 2, 3, 5, 7 is exact below 3,215,031,751, the least
# strong pseudoprime to all four (Jaeschke, Math. Comp. 61, 1993)
_MR_BASES = (2, 3, 5, 7)
_MR_LIMIT = 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 3, 5, 7; n must be below
    3,215,031,751, where these bases decide primality."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is past the range where bases 2, 3, 5, 7 "
                         "decide primality")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def draw_prime(rng: random.Random) -> int:
    """A prime drawn uniformly from [2^30, 2^31): residues are below 2^31,
    so a product of two fits in int64."""
    while True:
        p = rng.randrange(1 << 30, 1 << 31)
        if is_prime(p):
            return p


def gencos_pair_mod(rs: RootSystem, d: int, z: np.ndarray, p: int) -> tuple:
    """gencos and gencos(d .) modulo p at a batch of points z, an (S, n)
    int64 array of residues in [1, p - 1] standing for e^{2 pi i x_j}: two
    (S, n) arrays of residues.

    The powers z_j^k, |k| <= d K (K the largest |r_j| of an orbit row),
    are tabulated, the inverse from one pow(z_j, p - 2, p).  The orbit term
    of a row r is prod_j z_j^{r_j}, and at d x prod_j z_j^{d r_j}: the rows
    and their d-multiples are walked together, n gathered products mod p
    over an (S, 2 rows) array, then one reduceat over the orbit starts."""
    rows, starts = fundamental_orbit_table(rs)
    top = d * int(np.abs(rows).max())
    inv = np.array([pow(v, p - 2, p) for v in z.ravel().tolist()],
                   dtype=np.int64).reshape(z.shape)
    # pw[s, j, top + k] = z_j^k at point s, |k| <= top
    pw = np.ones((*z.shape, 2 * top + 1), dtype=np.int64)
    for k in range(1, top + 1):
        pw[..., top + k] = pw[..., top + k - 1] * z % p
        pw[..., top - k] = pw[..., top - k + 1] * inv % p
    cols = np.concatenate([rows, d * rows]) + top
    terms = pw[:, 0, cols[:, 0]]
    for j in range(1, rs.rank):
        terms *= pw[:, j, cols[:, j]]
        terms %= p
    sums = np.add.reduceat(terms, np.concatenate([starts, starts + len(rows)]),
                           axis=1) % p
    return sums[:, :rs.rank], sums[:, rs.rank:]


def eval_polys_mod(comps, x: np.ndarray, p: int) -> np.ndarray:
    """Sparse integer polynomials modulo p at a batch of points x, an (S, n)
    int64 array of residues: an (S, len(comps)) array of residues.  Every
    monomial of all of them is evaluated once, from one exponent matrix;
    the coefficients are reduced mod p."""
    monos = sorted({e for comp in comps for e in comp})
    index = {e: i for i, e in enumerate(monos)}
    exps = np.array(monos, dtype=np.int64).reshape(len(monos), x.shape[1])
    pw = np.ones((*x.shape, int(exps.max(initial=0)) + 1), dtype=np.int64)
    for k in range(1, pw.shape[2]):
        pw[..., k] = pw[..., k - 1] * x % p
    values = np.ones((len(x), len(monos)), dtype=np.int64)
    for j in range(x.shape[1]):
        values *= pw[:, j, exps[:, j]]
        values %= p
    out = np.empty((len(x), len(comps)), dtype=np.int64)
    for k, comp in enumerate(comps):
        coeffs = np.array([c % p for c in comp.values()], dtype=np.int64)
        terms = values[:, [index[e] for e in comp]] * coeffs % p
        out[:, k] = terms.sum(axis=1) % p
    return out


def residuals_mod_p(rs: RootSystem, d: int, pmap: PolynomialMap,
                    z: np.ndarray, p: int) -> np.ndarray:
    """T_d(gencos z) - gencos(z^d) modulo p at a batch of points z, as an
    (S, n) int64 array of representatives in (-p/2, p/2]."""
    gx, gdx = gencos_pair_mod(rs, d, z, p)
    r = (eval_polys_mod(pmap.components, gx, p) - gdx) % p
    return np.where(r > p // 2, r - p, r)


@dataclass
class FunctionalEquationReport:
    """The functional check modulo `prime`: `max_residual` is the largest
    |residual| over all samples and components, an integer, 0 when the
    identity holds at every sample.  `witness` names the first failing
    sample, its component k (from 0) and its point z as residues mod
    prime, or is None."""
    type_spec: str
    d: int
    samples: int
    prime: int
    max_residual: int
    witness: dict | None = None
    # residuals are integers, so any nonzero one exceeds tol
    tol: ClassVar[float] = 0.5

    @property
    def passed(self):
        return self.max_residual <= self.tol

    def as_dict(self):
        return {"type_spec": self.type_spec, "d": self.d,
                "samples": self.samples, "prime": self.prime,
                "max_residual": self.max_residual, "witness": self.witness,
                "pass": self.passed}


def verify_functional_equation(rs: RootSystem, d: int, pmap: PolynomialMap,
                               samples: int = 100,
                               seed: int = 0) -> FunctionalEquationReport:
    """Check that the map intertwines the generalized cosine with
    multiplication by d, exactly modulo a prime p, at `samples` seeded
    points z of (F_p^*)^n (see the module docstring): p and then the points
    are drawn from random.Random(seed).  The points run in batches of at
    most FIELD_CELLS cells of the (points x 2 orbit rows) array."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = random.Random(seed)
    p = draw_prime(rng)
    z = np.array([[rng.randrange(1, p) for _ in range(rs.rank)]
                  for _ in range(samples)], dtype=np.int64)
    size = max(1, FIELD_CELLS // (2 * len(fundamental_orbit_table(rs)[0])))
    res = np.concatenate([residuals_mod_p(rs, d, pmap, z[lo:lo + size], p)
                          for lo in range(0, samples, size)])
    bad = np.flatnonzero(res)
    witness = None
    if len(bad):
        i, k = divmod(int(bad[0]), rs.rank)
        witness = {"sample": i, "component": k, "z": z[i].tolist()}
    return FunctionalEquationReport(rs.type_spec, d, samples, p,
                                    int(np.abs(res).max()), witness)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def poly_map_as_dict(rs: RootSystem, d: int, pmap: PolynomialMap) -> dict:
    """JSON form with terms in descending reduction order (byte-stable)."""
    key = _memo(rs).key
    comps = []
    for comp in pmap.components:
        terms = [{"exponents": list(e), "coeff": c}
                 for e, c in sorted(comp.items(), key=lambda kv: key(kv[0]),
                                    reverse=True)]
        comps.append(terms)
    return {"type_spec": rs.type_spec, "d": d, "components": comps}
