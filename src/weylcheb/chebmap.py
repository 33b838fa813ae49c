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
over and over, so the pair products (_pair_product, one orbit walk per
pair), the table of monomial expansions (_expansions) and the height vector
of the reduction order are cached with functools.cache, keyed on the
root-system instance like every other root-system table.
build_root_system keeps one root system per type spec for the life of the
process, so these caches serve every later synthesis too.
Elimination pops the height-maximal term from a heap, and raises if a popped
term is not below the previous one or an expansion does not lead with
coefficient 1.

The functional check T_d(gencos(x)) = gencos(d x) is exact.  With
z_j = e^{2 pi i x_j} both sides are integer Laurent polynomials in z, so
the identity is tested modulo a prime p drawn from the seed in
[2^30, 2^31), then at uniform points z of (F_p^*)^n (draw_points), in
int64 numpy: a product of two residues is below 2^62, and a sum of fewer
than 2^32 residues below 2^63.  One sampler, draw_points, and one
evaluator, polys_at_gencos_mod, serve both sampled checks: it gives
gencos(z^d), E(z), E(z^d) and any integer polynomials at gencos(z), in
batches of FIELD_CELLS cells.  Every monomial, of an orbit
row or of a polynomial, is a product of powers z_j^k mod p from one table
(monomials_mod): gencos is summed over the orbit rows (gencos_pair_mod),
and the polynomials are evaluated from one exponent matrix of their
monomials (eval_polys_mod).  A nonzero residual, a Laurent polynomial of
total degree deg once its negative exponents are cleared, vanishes at a
uniform point of (F_p^*)^n with probability at most deg/(p-1)
(Schwartz-Zippel; Schwartz, JACM 27, 1980), unless p divides all its
integer coefficients; a new seed draws a new p.  Differentiating the
identity in log z gives J_T(gencos z) E(z) = d E(z^d),
E(z)_{kj} = sum_{lam in W omega_k} lam_j z^lam, so
det J_T(gencos z) det E(z) = d^n det E(z^d) in Z[z^{+-1}]: the
post-critical check (critical.post_critical_check) tests it at the same
points, with E taken from the same orbit terms as gencos.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import random
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionError
from .rootsys import (RootSystem, dominant_weight, fundamental_orbit_table,
                      orbit, orbit_size, rho_vee)

# int64 cells per (points x 2 orbit rows) array of one batch of the
# prime-field checks (16 MiB): E7 runs 59 points a batch, F4 4369
FIELD_CELLS = 1 << 21


# ---------------------------------------------------------------------------
# the reduction order on dominant weights
# ---------------------------------------------------------------------------

@functools.cache
def height_vector(rs: RootSystem) -> tuple:
    """Positive integer vector c with dot(alpha_j, c) equal for all simple
    roots: dot(lam, c) is a height functional, strictly positive on nonzero
    dominant weights, used as the primary elimination key.  It is rho^vee
    with its denominators cleared, which keeps the order integral."""
    rho = rho_vee(rs)
    denom = math.lcm(*(c.denominator for c in rho))
    vec = tuple(int(c * denom) for c in rho)
    assert all(c > 0 for c in vec)
    return vec


def _reduction_key(rs: RootSystem):
    """The reduction order as a sort key: height first, then lam
    lexicographically."""
    height = height_vector(rs)
    return lambda lam: (sum(l * c for l, c in zip(lam, height)), lam)


# ---------------------------------------------------------------------------
# orbit-sum algebra
# ---------------------------------------------------------------------------

@functools.cache
def _pair_product(rs: RootSystem, lam: tuple, mu: tuple) -> dict:
    """m_lam * m_mu by the stabilizer formula (see orbit_sum_product), for
    lam <= mu: each pair is walked once per root system.  Of two orbits of
    one size, the walk takes that of the weight with the smaller coordinate
    sum: in synthesis a fundamental weight, whose orbit is enumerated
    anyway."""
    big, small = lam, mu
    if (orbit_size(rs, lam), sum(lam)) < (orbit_size(rs, mu), sum(mu)):
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
    is computed once per root system (_pair_product).
    """
    out: dict = {}
    for lam, ca in a.items():
        for mu, cb in b.items():
            prod = (_pair_product(rs, lam, mu) if lam <= mu
                    else _pair_product(rs, mu, lam))
            c = ca * cb
            for nu, q in prod.items():
                out[nu] = out.get(nu, 0) + c * q
    return {nu: c for nu, c in out.items() if c != 0}


@functools.cache
def _expansions(rs: RootSystem) -> dict:
    """monomial_expand's table {exponent tuple: combination}, one per root
    system, starting from X^0 = 1.  A table, not functools.cache on the
    expansion itself: the walk down X^e's chain then nests one call per
    degree.  Through a cached function it nests three, and chebmap A1 400
    exceeded Python's default recursion limit."""
    return {(0,) * rs.rank: {(0,) * rs.rank: 1}}


def monomial_expand(rs: RootSystem, e) -> dict:
    """Expansion of prod_j m_{omega_j}^{e_j} as an orbit-sum combination,
    computed once per root system and exponent vector.  Its leading term is
    sum_j e_j omega_j with coefficient 1.  An exponent that is not a
    nonnegative integer raises ValueError, and a vector whose length is not
    the rank DimensionError."""
    try:
        e = tuple(map(operator.index, e))
    except TypeError:
        raise ValueError(f"exponents must be integers, got {e}") from None
    if len(e) != rs.rank:
        raise DimensionError(f"{len(e)} exponents for rank {rs.rank}")
    if any(c < 0 for c in e):
        raise ValueError("exponents must be nonnegative")
    table = _expansions(rs)
    if e not in table:
        j = max(k for k, c in enumerate(e) if c > 0)
        prev = list(e)
        prev[j] -= 1
        table[e] = orbit_sum_product(rs, monomial_expand(rs, prev),
                                     {rs.fundamental_weight(j): 1})
    return table[e]


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
    key = _reduction_key(rs)
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
    """A prime p drawn uniformly from those in [2^30, 2^31): residues are
    below 2^31, so a product of two fits in int64."""
    while True:
        p = (1 << 30) + rng.randrange(1 << 30)
        if is_prime(p):
            return p


def draw_points(rs: RootSystem, samples: int, seed: int) -> tuple:
    """(p, z): the prime, then `samples` points z of (F_p^*)^n, an (S, n)
    int64 array of residues in [1, p - 1], both drawn from
    random.Random(seed).  Both prime-field checks draw through it."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = random.Random(seed)
    p = draw_prime(rng)
    z = np.array([[rng.randrange(1, p) for _ in range(rs.rank)]
                  for _ in range(samples)], dtype=np.int64)
    return p, z


def inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """a^{p-2} mod p of an int64 array of residues, by squaring over the
    whole array: the inverse of each nonzero entry (Fermat), 0 for 0."""
    out = np.ones_like(a)
    e = p - 2
    while e:
        if e & 1:
            out = out * a % p
        a = a * a % p
        e >>= 1
    return out


def centred(r: np.ndarray, p: int) -> np.ndarray:
    """Residues in [0, p) as their representatives in (-p/2, p/2]."""
    return np.where(r > p // 2, r - p, r)


def monomials_mod(z: np.ndarray, exps: np.ndarray, p: int) -> np.ndarray:
    """prod_j z_j^{e_j} mod p for each row e of exps (ints of either sign)
    at a batch of points z, an (S, n) int64 array of residues, nonzero where
    an exponent is negative: an (S, len(exps)) array of residues.  The
    powers z_j^k, min(e, 0) <= k <= max(e), are tabulated once (inverses
    only when some exponent is negative), and each monomial is n gathered
    products."""
    lo, hi = int(exps.min(initial=0)), int(exps.max(initial=0))
    # pw[s, j, k - lo] = z_j^k at point s
    pw = np.ones((*z.shape, hi - lo + 1), dtype=np.int64)
    for k in range(1, hi + 1):
        pw[..., k - lo] = pw[..., k - lo - 1] * z % p
    if lo:
        inv = inverse_mod(z, p)
        for k in range(-1, lo - 1, -1):
            pw[..., k - lo] = pw[..., k - lo + 1] * inv % p
    cols = exps - lo
    terms = pw[:, 0, cols[:, 0]]
    for j in range(1, z.shape[1]):
        terms *= pw[:, j, cols[:, j]]
        terms %= p
    return terms


def gencos_pair_mod(rs: RootSystem, d: int, z: np.ndarray, p: int) -> tuple:
    """gencos(z) and gencos(z^d), then E(z) and E(z^d), modulo p at a batch
    of points z, an (S, n) int64 array of residues in [1, p - 1] standing
    for e^{2 pi i x_j}: two (S, n) and two (S, n, n) arrays of residues,
    E(z)_{kj} = sum_{lam in W omega_k} lam_j z^lam.

    The orbit term of a row r is prod_j z_j^{r_j}, and at d x
    prod_j z_j^{d r_j}: the rows and their d-multiples go through one
    monomials_mod call, then one reduceat over the orbit starts gives the
    gencos values, and per orbit one product of its terms with its rows
    gives the rows of E."""
    rows, starts = fundamental_orbit_table(rs)
    terms = monomials_mod(z, np.concatenate([rows, d * rows]), p)
    sums = np.add.reduceat(terms, np.concatenate([starts, starts + len(rows)]),
                           axis=1) % p
    # a term is below 2^31, and |lam_j| = |<omega_k, w alpha_j^vee>| is at
    # most a coefficient of the highest coroot, <= 6: an orbit of fewer than
    # 2^29 rows (E8's largest has 483840) sums to below 6 2^60 < 2^63
    e = np.empty((2, len(z), rs.rank, rs.rank), dtype=np.int64)
    for k, (lo, hi) in enumerate(zip(starts, [*starts[1:], len(rows)])):
        e[0, :, k] = terms[:, lo:hi] @ rows[lo:hi] % p
        e[1, :, k] = terms[:, len(rows) + lo:len(rows) + hi] @ rows[lo:hi] % p
    return sums[:, :rs.rank], sums[:, rs.rank:], e[0], e[1]


def eval_polys_mod(comps, x: np.ndarray, p: int) -> np.ndarray:
    """Sparse integer polynomials modulo p at a batch of points x, an (S, n)
    int64 array of residues: an (S, len(comps)) array of residues.  Every
    monomial of all of them is evaluated once, by monomials_mod on one
    exponent matrix; the coefficients are reduced mod p."""
    monos = sorted({e for comp in comps for e in comp})
    index = {e: i for i, e in enumerate(monos)}
    values = monomials_mod(x, np.array(monos, dtype=np.int64).reshape(
        len(monos), x.shape[1]), p)
    out = np.empty((len(x), len(comps)), dtype=np.int64)
    for k, comp in enumerate(comps):
        coeffs = np.array([c % p for c in comp.values()], dtype=np.int64)
        terms = values[:, [index[e] for e in comp]] * coeffs % p
        out[:, k] = terms.sum(axis=1) % p
    return out


def polys_at_gencos_mod(rs: RootSystem, d: int, polys, z: np.ndarray,
                        p: int) -> tuple:
    """The sparse integer polynomials `polys` at gencos(z), gencos(z^d),
    E(z) and E(z^d) (see gencos_pair_mod) modulo p at points z, an (S, n)
    int64 array of residues in [1, p - 1]: (S, len(polys)), (S, n),
    (S, n, n) and (S, n, n) arrays of residues, all empty for S = 0.  The
    points run in batches of at most FIELD_CELLS cells of the
    (points x 2 orbit rows) array of gencos_pair_mod."""
    size = max(1, FIELD_CELLS // (2 * len(fundamental_orbit_table(rs)[0])))
    n = rs.rank
    vals = np.empty((len(z), len(polys)), dtype=np.int64)
    gdz = np.empty((len(z), n), dtype=np.int64)
    ez = np.empty((len(z), n, n), dtype=np.int64)
    edz = np.empty((len(z), n, n), dtype=np.int64)
    for lo in range(0, len(z), size):
        part = slice(lo, lo + size)
        gz, gdz[part], ez[part], edz[part] = gencos_pair_mod(rs, d, z[part], p)
        vals[part] = eval_polys_mod(polys, gz, p)
    return vals, gdz, ez, edz


def residuals_mod_p(rs: RootSystem, d: int, pmap: PolynomialMap,
                    z: np.ndarray, p: int) -> np.ndarray:
    """T_d(gencos z) - gencos(z^d) modulo p at points z, as an (S, n) int64
    array of representatives in (-p/2, p/2]."""
    vals, gdz, _, _ = polys_at_gencos_mod(rs, d, pmap.components, z, p)
    return centred((vals - gdz) % p, p)


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
    are drawn by draw_points, and all go through one residuals_mod_p
    call."""
    p, z = draw_points(rs, samples, seed)
    res = residuals_mod_p(rs, d, pmap, z, p)
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
    key = _reduction_key(rs)
    comps = []
    for comp in pmap.components:
        terms = [{"exponents": list(e), "coeff": c}
                 for e, c in sorted(comp.items(), key=lambda kv: key(kv[0]),
                                    reverse=True)]
        comps.append(terms)
    return {"type_spec": rs.type_spec, "d": d, "components": comps}
