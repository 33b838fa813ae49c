"""The Gaussian-integer fixed-point sampler of both sampled checks, kept as
a test oracle for the prime-field checks in `weylcheb.chebmap` and
`weylcheb.critical`.

Points are complex, z = e^{2 pi i x} from one float64 exp per batch made
exact at P fractional bits (fixed_exp), P sized from the growth of the
invariants over the sample box (check_precision).  GencosPair gives gencos
and gencos(d .) at those z, eval_polys_fixed evaluates polynomials on the
same fixed-point values, and fixed_distances measures gaps; residuals are
exact integers until one final square root.  post_critical_fixed_point is
the former post-critical check: each wall point's pivot solved by Newton's
method in fixed point (wall_root), the Jacobian determinant exact over the
Gaussian integers (bareiss_det).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from weylcheb.chebmap import PolynomialMap, jacobian_polys
from weylcheb.critical import _pivot, sample_diagram_points
from weylcheb.gencos import is_on_diagram
from weylcheb.rootsys import RootSystem, fundamental_orbit_table, orbit_matrix

# points per fixed-point batch: memory stays bounded for any sample count,
# and the default sample count runs as one batch
CHECK_CHUNK = 256
STRICT_PREIMAGE_TOL = 1e-6  # wall-avoidance margin for "strict preimage" samples


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


@dataclass
class FixedPointReport:
    """Float residuals of post_critical_fixed_point: passed when `samples`
    strict preimages were checked and both residuals are within tol."""
    samples: int
    tol: float
    det_residuals: list = field(default_factory=list)
    value_residuals: list = field(default_factory=list)
    skipped: int = 0

    @property
    def max_det_residual(self):
        return float(max(self.det_residuals, default=0.0))

    @property
    def max_value_residual(self):
        return float(max(self.value_residuals, default=0.0))

    @property
    def passed(self) -> bool:
        return bool(len(self.det_residuals) == self.samples
                    and self.max_det_residual <= self.tol
                    and self.max_value_residual <= self.tol)


def post_critical_fixed_point(rs: RootSystem, d: int, pmap: PolynomialMap,
                              samples: int = 50, tol: float = 1e-7,
                              seed: int = 0) -> FixedPointReport:
    """At points y with d*y on a wall but y itself off the walls, the exact
    symbolic Jacobian of the map must be singular at the image of y, and the
    image point must again be an image of a wall point (checked through the
    intertwining identity).

    Degenerate draws (y on a wall itself, e.g. when the level is divisible by
    d) are flagged in `skipped` and redrawn until `samples` strict-preimage
    points have been found.

    The points are then evaluated in batches of CHECK_CHUNK, all in the
    fixed point check_precision gives for the largest |Im y_j| of all of
    them: z = e^{2 pi i y} with each pivot solved again from its wall
    (_on_walls), gencos(y) and gencos(d*y) by GencosPair, and the Jacobian
    entries and T_d(gencos y) on the same fixed-point values by
    eval_polys_fixed.  The determinant of those entries is exact
    (bareiss_det), so the only error left in it is the entries', as bounded
    in eval_polys_fixed.  A check that finds fewer than `samples` strict
    preimages in 40 batches of draws does not pass.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    report = FixedPointReport(samples, tol)
    preimages = []
    batch = 0
    while len(preimages) < samples and batch < 40:
        wall_samples = sample_diagram_points(rs, samples, seed=seed + 1000 * batch)
        batch += 1
        for s in wall_samples:
            if len(preimages) >= samples:
                break
            y = s.point / d
            on, _ = is_on_diagram(rs, y, STRICT_PREIMAGE_TOL)
            if on:
                # degenerate: y sits on a wall itself, not a strict preimage
                report.skipped += 1
                continue
            preimages.append((s.wall, y))
    n = rs.rank
    h = max((float(np.abs(y.imag).max()) for _, y in preimages), default=0.0)
    # in float64 the gencos, the Jacobian entries and the determinant were
    # off by about 4e-6 on G2 6, above tol
    polys = [*(p for row in jacobian_polys(pmap) for p in row),
             *pmap.components]
    P = check_precision(rs, d, h)
    pair = GencosPair(rs, d)
    for chunk in chunked(preimages):
        gy, gdy = pair(_on_walls(chunk, d, P), P)
        vals = eval_polys_fixed(polys, gy, P)
        for k in range(len(chunk)):
            jac = [[(vals[i * n + j][0][k], vals[i * n + j][1][k])
                    for j in range(n)] for i in range(n)]
            re, im = bareiss_det(jac)
            report.det_residuals.append(_sqrt_float(re * re + im * im, n * P))
        # critical value lands where the scaled wall point maps
        report.value_residuals.extend(fixed_distances(vals[n * n:], gdy, P))
    return report


def _power(u, k: int, P: int) -> tuple:
    """u^k (k >= 0) of a fixed-point value, by repeated squaring."""
    out = (1 << P, 0)
    while k:
        if k & 1:
            out = _mul(out, u, P)
        k >>= 1
        if k:
            u = _mul(u, u, P)
    return out


def _on_walls(chunk, d: int, P: int) -> list:
    """z = e^{2 pi i y} for a batch of (wall, y), as fixed_exp gives it, with
    each pivot coordinate solved again from its wall.

    d*y on the wall <v, x> = ell means prod_j z_j^{d w_j} = 1, w the weight
    coordinates of v.  With the other coordinates fixed, the pivot's z_p
    solves u^m = c, m = d |w_p| and c = prod_{j != p} z_j^{-s d w_j}, s the
    sign of w_p: wall_root from z_p's float64 value, which picks the root
    of y's own branch.  The float64 point sits about 1e-17 off its wall,
    and the determinant there grows with that offset times the Jacobian
    entries: on B6 2, C6 2 and E7 2 past tol."""
    z = fixed_exp([y for _, y in chunk], P)
    one = (1 << P, 0)
    for k, ((v, _), _) in enumerate(chunk):
        w = v.weight_coords
        p = _pivot(w)
        s = 1 if w[p] > 0 else -1
        c = one
        for j, wj in enumerate(w):
            e = -s * d * wj
            if j != p and e:
                zj = (z[j][0][k], z[j][1][k])
                f = zj if e > 0 else _div(one, zj, P)
                c = _mul(c, _power(f, abs(e), P), P)
        z[p][0][k], z[p][1][k] = wall_root(
            c, d * abs(w[p]), (z[p][0][k], z[p][1][k]), P)
    return z


def wall_root(c, m: int, u0, P: int) -> tuple:
    """The root of u^m = c (m >= 1) that u0 is near, all fixed-point values
    of P fractional bits given as pairs of ints, by Newton's method from
    u0: u <- u - (u^m - c) / (m u^{m-1}).  From a start within about 2^-46
    of a root (relative), as a float64 exponential is, each step squares
    the relative error (times about m / 2), so ceil(log2(P / 48)) + 1
    steps reach 2^-P; one more is taken for margin."""
    u = u0
    for _ in range((P // 48).bit_length() + 2):
        pw = _power(u, m - 1, P)
        f = _mul(pw, u, P)
        step = _div((f[0] - c[0], f[1] - c[1]), (m * pw[0], m * pw[1]), P)
        u = (u[0] - step[0], u[1] - step[1])
    return u


def bareiss_det(m) -> tuple:
    """Determinant of a square matrix over the Gaussian integers, entries
    and result pairs (re, im) of ints, exactly, by Bareiss's fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968): every entry stays a minor
    of m, so each division by the previous pivot is exact.  A zero pivot is
    swapped for a row below with a nonzero entry, or the determinant is 0;
    an inexact division raises ArithmeticError."""
    m = [list(row) for row in m]
    n = len(m)
    sign = 1
    pr, pi = 1, 0  # the previous pivot
    for k in range(n - 1):
        if m[k][k] == (0, 0):
            r = next((r for r in range(k + 1, n) if m[r][k] != (0, 0)), None)
            if r is None:
                return 0, 0
            m[k], m[r] = m[r], m[k]
            sign = -sign
        top = m[k]
        a, b = top[k]
        norm = pr * pr + pi * pi
        for row in m[k + 1:]:
            c, s = row[k]
            for j in range(k + 1, n):
                (e, f), (g, t) = row[j], top[j]
                # (row[j] * pivot - row[k] * top[j]) / previous pivot
                re = e * a - f * b - c * g + s * t
                im = e * b + f * a - c * t - s * g
                qr, rr = divmod(re * pr + im * pi, norm)
                qi, ri = divmod(im * pr - re * pi, norm)
                if rr or ri:
                    raise ArithmeticError(
                        f"Bareiss step {k}: ({re}, {im}) is not a multiple "
                        f"of the pivot ({pr}, {pi})")
                row[j] = qr, qi
        pr, pi = a, b
    re, im = m[-1][-1]
    return sign * re, sign * im
