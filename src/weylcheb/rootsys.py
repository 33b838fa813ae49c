"""Exact root systems, Weyl groups, and affine Weyl groups.

Coordinate conventions, used throughout the package:

* Weight-like vectors (roots, orbit members, dominant weights) are stored by
  their coordinates in the fundamental-weight basis.  These are integers.
* Point-like vectors (arguments of the generalized cosine, translations) are
  stored by their coordinates in the simple-coroot basis.  The coroot lattice
  is then literally Z^n.
* With these choices the inner product of a weight lam against a point x is
  the plain dot product dot(lam, x), with no Gram matrix in between, so all
  group algebra stays integer-exact (no radicals even for G2).

The Cartan matrix convention is C[j][k] = 2<a_j, a_k>/<a_j, a_j>, so the
weight coordinates of the k-th simple root form column k of C.  Short roots
are normalized to squared length 2 in every irreducible factor.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceededError, DimensionError, TypeSpecError

WEYL_CAP = 1152  # |W(F4)|; full group enumeration refuses beyond this


# ---------------------------------------------------------------------------
# small exact linear algebra over tuples-of-tuples
# ---------------------------------------------------------------------------

def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p))
        for i in range(n)
    )


def mat_vec(a, x):
    return tuple(sum(a[i][j] * x[j] for j in range(len(x))) for i in range(len(a)))


def mat_transpose(a):
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a[0])))


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(c, x):
    return tuple(c * a for a in x)


def dot(x, y):
    if len(x) != len(y):
        raise DimensionError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(a * b for a, b in zip(x, y))


def solve_fraction(a, b):
    """Solve a x = b exactly over the rationals (Gaussian elimination)."""
    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * p for v, p in zip(m[r], m[col])]
    return tuple(m[i][n] for i in range(n))


# ---------------------------------------------------------------------------
# type-spec parsing and Cartan data
# ---------------------------------------------------------------------------

_RANK_LIMITS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def parse_type_spec(spec: str) -> tuple[tuple[str, int], ...]:
    """Parse "B3xA1"-style specs into a tuple of (letter, rank) factors."""
    if not isinstance(spec, str) or not spec:
        raise TypeSpecError(f"empty type spec: {spec!r}")
    factors = []
    for part in spec.split("x"):
        part = part.strip()
        if len(part) < 2 or part[0] not in _RANK_LIMITS or not part[1:].isdigit():
            raise TypeSpecError(f"cannot parse factor {part!r} in spec {spec!r}")
        letter, rank = part[0], int(part[1:])
        lo, hi = _RANK_LIMITS[letter]
        if rank < lo or (hi is not None and rank > hi):
            raise TypeSpecError(f"unsupported rank {rank} for type {letter}")
        factors.append((letter, rank))
    return tuple(factors)


def _cartan_and_lengths(letter: str, n: int):
    """Cartan matrix (C[j][k] = 2<a_j,a_k>/<a_j,a_j>) and root lengths for one
    irreducible factor, with short roots of squared length 2."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(pairs):
        for i, j in pairs:
            c[i][j] = -1
            c[j][i] = -1

    lengths = [2] * n
    if letter == "A":
        chain((i, i + 1) for i in range(n - 1))
    elif letter == "B":
        chain((i, i + 1) for i in range(n - 1))
        c[n - 1][n - 2] = -2  # last simple root is short
        lengths = [4] * (n - 1) + [2]
    elif letter == "C":
        chain((i, i + 1) for i in range(n - 1))
        c[n - 2][n - 1] = -2  # last simple root is long
        lengths = [2] * (n - 1) + [4]
    elif letter == "D":
        chain((i, i + 1) for i in range(n - 2))
        chain([(n - 3, n - 1)])
    elif letter == "E":
        # chain 0-2-3-4-5(-6)(-7) with node 1 hanging off node 3
        chain([(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
        chain((i, i + 1) for i in range(5, n - 1))
    elif letter == "F":
        chain([(0, 1), (2, 3)])
        c[1][2] = -1
        c[2][1] = -2
        lengths = [4, 4, 2, 2]
    elif letter == "G":
        c[0][1] = -3
        c[1][0] = -1
        lengths = [2, 6]
    else:  # pragma: no cover - parse guards this
        raise TypeSpecError(f"unknown type letter {letter!r}")
    return tuple(tuple(row) for row in c), tuple(lengths)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Root:
    """A root: its weight coordinates, the coroot's coordinates in the
    simple-coroot basis, and the exact squared length."""

    weight_coords: tuple
    coroot_coords: tuple
    length_sq: int


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as a pair of mutually contragredient integer
    matrices: weight_matrix acts on weight coordinates, coroot_matrix on
    point/coroot coordinates.  weight_matrix^T @ coroot_matrix = I."""

    weight_matrix: tuple
    coroot_matrix: tuple

    def __hash__(self):
        return hash(self.weight_matrix)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.weight_matrix == other.weight_matrix

    @property
    def rank(self):
        return len(self.weight_matrix)

    def apply_weight(self, lam):
        return mat_vec(self.weight_matrix, lam)

    def apply_point(self, x):
        return mat_vec(self.coroot_matrix, x)

    def inverse(self):
        # the contragredient pairing makes inversion a double transpose
        return WeylElement(mat_transpose(self.coroot_matrix),
                           mat_transpose(self.weight_matrix))

    def compose(self, other):
        return WeylElement(mat_mul(self.weight_matrix, other.weight_matrix),
                           mat_mul(self.coroot_matrix, other.coroot_matrix))

    def is_identity(self):
        return self.weight_matrix == identity_matrix(self.rank)


def weyl_identity(n: int) -> WeylElement:
    eye = identity_matrix(n)
    return WeylElement(eye, eye)


@dataclass(frozen=True)
class AffineElement:
    """Element (t, w) of the affine Weyl group: x |-> w(x) + t, with t an
    integer vector in coroot coordinates."""

    t: tuple
    w: WeylElement

    def __hash__(self):
        return hash((self.t, self.w.weight_matrix))

    @property
    def rank(self):
        return len(self.t)

    def is_identity(self):
        return all(c == 0 for c in self.t) and self.w.is_identity()


def affine_identity(n: int) -> AffineElement:
    return AffineElement(tuple([0] * n), weyl_identity(n))


def translation_element(tvec) -> AffineElement:
    tvec = tuple(tvec)
    return AffineElement(tvec, weyl_identity(len(tvec)))


def affine_apply(g: AffineElement, x):
    """Apply g = (t, w) to a point x in coroot coordinates: w(x) + t.

    Works on exact (int/Fraction) sequences and on numpy arrays.
    """
    if isinstance(x, np.ndarray):
        return np.array(g.w.coroot_matrix) @ x + np.array(g.t)
    if len(x) != g.rank:
        raise DimensionError(f"point has length {len(x)}, expected {g.rank}")
    return vec_add(g.w.apply_point(tuple(x)), g.t)


def affine_compose(g1: AffineElement, g2: AffineElement) -> AffineElement:
    """(t1, w1)(t2, w2) = (t1 + w1 t2, w1 w2)."""
    return AffineElement(vec_add(g1.t, g1.w.apply_point(g2.t)), g1.w.compose(g2.w))


def affine_inverse(g: AffineElement) -> AffineElement:
    winv = g.w.inverse()
    return AffineElement(vec_scale(-1, winv.apply_point(g.t)), winv)


def reflection_element(v: Root, ell: int = 0) -> AffineElement:
    """The affine reflection fixing the wall <v, x> = ell, as an AffineElement.

    Equals translation by ell * v_coroot composed with the linear reflection.
    """
    n = len(v.weight_coords)
    wm = tuple(
        tuple((1 if i == m else 0) - v.weight_coords[i] * v.coroot_coords[m]
              for m in range(n))
        for i in range(n)
    )
    cm = tuple(
        tuple((1 if i == m else 0) - v.coroot_coords[i] * v.weight_coords[m]
              for m in range(n))
        for i in range(n)
    )
    return AffineElement(vec_scale(ell, v.coroot_coords), WeylElement(wm, cm))


# ---------------------------------------------------------------------------
# the RootSystem container
# ---------------------------------------------------------------------------

def _simple_root_cols(cartan) -> tuple:
    """The nonzero entries (i, C[i][j]) of each column j of the Cartan
    matrix: the weight coordinates of the simple root a_j, sparsely."""
    return tuple(tuple((i, row[j]) for i, row in enumerate(cartan) if row[j])
                 for j in range(len(cartan)))


class RootSystem:
    """Exact data of a (possibly reducible) root system.

    Instances are immutable: every field is a tuple or a number, and
    build_root_system shares one instance per type spec within a process.
    The tables derived from an instance (orbits, orbit sizes, Weyl
    elements, the stacked fundamental orbits, rho^vee, the Coxeter number)
    are cached by the functions that build them, keyed on the instance's
    identity.  The first len(cartan) roots are the simple roots, in Cartan
    order.
    """

    def __init__(self, type_spec, factors, cartan, gram, lengths, roots):
        self.type_spec = type_spec
        self.factors = factors            # tuple of (letter, rank, offset)
        self.rank = len(cartan)
        self.cartan = cartan              # integer, column k = weight coords of a_k
        self.gram = gram                  # Fraction, <a_j^vee, a_k^vee>
        self.lengths = lengths            # squared lengths of simple roots
        self.roots = roots                # tuple of Root, simple ones first
        self._simple_root_cols = _simple_root_cols(cartan)

    def __repr__(self):
        return f"RootSystem({self.type_spec!r}, rank={self.rank}, roots={len(self.roots)})"

    @property
    def simple_roots(self):
        return self.roots[:self.rank]

    def simple_reflection(self, j) -> WeylElement:
        return reflection_element(self.simple_roots[j], 0).w

    def fundamental_weight(self, k):
        return tuple(1 if i == k else 0 for i in range(self.rank))


@functools.cache
def build_root_system(type_spec: str) -> RootSystem:
    """Construct the root system for a product type spec like "A2" or "B3xA1".

    Roots are enumerated by closure of the simple roots under simple
    reflections; reducible specs produce block-diagonal Cartan and Gram data.
    Built once per spec string and process, so every caller of one spec
    shares the instance and its cached tables; a bad spec raises on every
    call.
    """
    factors = parse_type_spec(type_spec)
    n = sum(r for _, r in factors)
    cartan = [[0] * n for _ in range(n)]
    lengths = []
    fact_meta = []
    off = 0
    for letter, r in factors:
        c, lens = _cartan_and_lengths(letter, r)
        for i in range(r):
            for j in range(r):
                cartan[off + i][off + j] = c[i][j]
        lengths.extend(lens)
        fact_meta.append((letter, r, off))
        off += r
    cartan = tuple(tuple(row) for row in cartan)
    lengths = tuple(lengths)
    gram = tuple(
        tuple(Fraction(2 * cartan[j][k], lengths[k]) for k in range(n))
        for j in range(n)
    )

    # simple root k: weight coords = column k of C, coroot coords = e_k
    simple = [
        Root(tuple(cartan[i][k] for i in range(n)),
             tuple(1 if i == k else 0 for i in range(n)),
             lengths[k])
        for k in range(n)
    ]
    cols = _simple_root_cols(cartan)

    # closure under the simple reflections, last found reflected first:
    # s_j(v) = v - v_j a_j on weight coordinates and
    # s_j(v^vee) = v^vee - <a_j, v^vee> e_j on coroot coordinates; v_j = 0
    # fixes v
    roots = list(simple)
    seen = {r.weight_coords for r in roots}
    queue = list(simple)
    while queue:
        v = queue.pop()
        for j, col in enumerate(cols):
            vj = v.weight_coords[j]
            if not vj:
                continue
            wcoords = list(v.weight_coords)
            for i, c in col:
                wcoords[i] -= vj * c
            wcoords = tuple(wcoords)
            if wcoords not in seen:
                seen.add(wcoords)
                ccoords = list(v.coroot_coords)
                ccoords[j] -= sum(c * v.coroot_coords[i] for i, c in col)
                img = Root(wcoords, tuple(ccoords), v.length_sq)
                roots.append(img)
                queue.append(img)

    return RootSystem(type_spec, tuple(fact_meta), cartan, gram, lengths,
                      tuple(roots))


# ---------------------------------------------------------------------------
# orbits and group enumeration
# ---------------------------------------------------------------------------

def weyl_group_elements(rs: RootSystem, cap: int = WEYL_CAP) -> np.ndarray:
    """All Weyl group elements as one read-only int64 array (|W|, n, n) of
    weight matrices, in breadth-first order from the identity, built once
    per root system.  Refuses when the order, weyl_order(rs), exceeds the
    cap; the order is memoized, so the cap is checked on every call, cached
    or not."""
    order = weyl_order(rs)
    if order > cap:
        raise CapExceededError(
            f"Weyl group of {rs.type_spec} has order {order}, above cap {cap}")
    return _weyl_group_elements(rs)


@functools.cache
def _weyl_group_elements(rs: RootSystem) -> np.ndarray:
    # Breadth first, one level (one length) at a time: the candidates are
    # s_j w for the w of the level and each j, in (w, j) order, and the
    # first occurrence of each new element is kept.  W acts simply
    # transitively on the chambers (Humphreys, Reflection Groups and
    # Coxeter Groups, 1.12), so w(rho), rho = (1, ..., 1), fixes w; it is
    # the row sums of w, with entries <rho, w^-1 a_i^vee>, no larger than
    # the largest coroot height.  And l(s_j w) > l(w) exactly when
    # w^-1 a_j > 0 (1.6-1.7), that is when w(rho)_j > 0; the other
    # candidates lie on the level before.  So the next level is the s_j w
    # with w(rho)_j > 0, deduplicated by one int64 code of w(rho) each.
    n = rs.rank
    eye = np.eye(n, dtype=np.int64)
    # s_j = I - a_j e_j^T on weight coordinates, a_j column j of C
    gens = eye - np.einsum("ij,jk->jik", np.array(rs.cartan, dtype=np.int64),
                           eye)
    bound = max(sum(v.coroot_coords) for v in rs.roots)
    front = eye[None]
    levels = [front]
    while len(front):
        w, j = np.nonzero(front.sum(axis=2) > 0)
        cand = np.matmul(gens[j], front[w])
        _, first = np.unique(_row_codes(cand.sum(axis=2), bound),
                             return_index=True)
        front = cand[np.sort(first)]
        levels.append(front)
    elements = np.concatenate(levels)
    elements.setflags(write=False)
    return elements


def orbit(rs: RootSystem, lam) -> np.ndarray:
    """The Weyl orbit of an integral weight, as a read-only int64 matrix
    whose rows are its weight coordinate vectors in sorted (lexicographic)
    order.  Each orbit is enumerated once per root system, from its
    dominant weight (_orbit), and the orbit of a fundamental weight is a
    slice of fundamental_orbit_table, so every caller shares one copy."""
    return _orbit(rs, dominant_weight(rs, lam))


@functools.cache
def _orbit(rs: RootSystem, dom: tuple) -> np.ndarray:
    if sum(dom) == 1:  # a fundamental weight
        rows, starts = fundamental_orbit_table(rs)
        k = dom.index(1)
        return rows[starts[k]:starts[k + 1] if k + 1 < rs.rank else len(rows)]
    return _orbit_walk(rs, dom)


def _orbit_walk(rs: RootSystem, dom: tuple) -> np.ndarray:
    """The orbit of a dominant weight, sorted, one level at a time down from
    dom.  The next level holds s_j(x) = x - x_j a_j for each x of the level
    and each j with x_j > 0: that step lengthens the shortest w with
    x = w dom by one, and every x other than dom has some x_j < 0, whose
    s_j(x) lies one level up.  So each orbit element lies at exactly one
    depth, and deduplicating within each level is enough."""
    level = [dom]
    found = [dom]
    while level:
        below = set()
        for x in level:
            for j, xj in enumerate(x):
                if xj > 0:
                    y = list(x)
                    for i, c in rs._simple_root_cols[j]:
                        y[i] -= xj * c
                    below.add(tuple(y))
        found += below
        level = below
    rows = np.array(found, dtype=np.int64).reshape(len(found), rs.rank)
    rows = rows[np.lexsort(rows.T[::-1])]
    rows.setflags(write=False)
    return rows


@functools.cache
def fundamental_orbit_table(rs: RootSystem):
    """The orbits of the fundamental weights stacked into one read-only
    int64 matrix, orbit k in rows starts[k] up to starts[k + 1] (the last
    up to the end), each in the sorted order of orbit(), which returns
    these slices.  Returns (rows, starts); cached per root system."""
    orbits = [_orbit_walk(rs, rs.fundamental_weight(k))
              for k in range(rs.rank)]
    rows = np.concatenate(orbits)
    starts = np.cumsum([0] + [len(o) for o in orbits[:-1]])
    rows.setflags(write=False)
    starts.setflags(write=False)
    return rows, starts


def dominant_weight(rs: RootSystem, lam) -> tuple:
    """The dominant weight in the Weyl orbit of lam, on weight coordinates
    alone (no WeylElement products).

    While some coordinate lam_j is negative, apply s_j(lam) = lam - lam_j a_j
    at the first such j.  Each step takes one positive root out of
    {a > 0 : <lam, a^vee> < 0}, so the walk ends within |Phi+| steps.
    """
    lam = list(lam)
    for _ in range(len(rs.roots) // 2 + 1):
        for j, c in enumerate(lam):
            if c < 0:
                break
        else:
            return tuple(lam)
        for i, cij in rs._simple_root_cols[j]:
            lam[i] -= c * cij
    raise RuntimeError("dominant walk failed to terminate")


def orbit_size(rs: RootSystem, nu) -> int:
    """|W nu| for a dominant weight nu, without enumerating the orbit.

    The stabilizer of nu is the parabolic subgroup W_J, J = {j : nu_j = 0}.
    Macdonald's product |W| = prod_{a > 0} (ht(a) + 1) / ht(a) (Math. Ann.
    199, 1972), taken over the positive coroots, holds for W and for W_J (whose positive coroots are
    those supported on J), so |W| / |W_J| is the product over the positive
    coroots with <nu, a^vee> > 0.  Memoized on the support of nu.
    """
    if min(nu) < 0:
        raise ValueError(f"orbit_size needs a dominant weight, got {nu}")
    return _orbit_size(rs, tuple(map(bool, nu)))


@functools.cache
def _orbit_size(rs: RootSystem, support: tuple) -> int:
    num = den = 1
    for v in rs.roots:
        h = sum(v.coroot_coords)
        # a positive coroot's coefficients are >= 0: it pairs positively
        # with nu exactly when its support meets nu's
        if h > 0 and any(map(operator.mul, support, v.coroot_coords)):
            num *= h + 1
            den *= h
    size, rem = divmod(num, den)
    if rem:
        raise RuntimeError(f"orbit size on support {support} is not an "
                           f"integer: {num}/{den}")
    return size


def weyl_order(rs: RootSystem) -> int:
    """|W|: the orbit size of rho, whose stabilizer is trivial."""
    return orbit_size(rs, (1,) * rs.rank)


@functools.cache
def rho_vee(rs: RootSystem) -> tuple:
    """rho^vee, half the sum of the positive coroots, in simple-coroot
    coordinates as exact Fractions: half the column sums of the positive
    roots' coroot coordinates.  It pairs to 1 with every simple root.
    Cached per root system."""
    positive = [v.coroot_coords for v in rs.roots if min(v.coroot_coords) >= 0]
    return tuple(Fraction(sum(col), 2) for col in zip(*positive))


@functools.cache
def coxeter_number(rs: RootSystem) -> int:
    """h = 1 + max_v <v, rho^vee>, the Coxeter number (for a product, the
    largest over its factors).  Cached per root system."""
    rho = rho_vee(rs)
    return 1 + int(max(dot(v.weight_coords, rho) for v in rs.roots))


def basepoint_array(rs: RootSystem) -> np.ndarray:
    """The Coxeter point rho^vee / h of the fundamental alcove, as a complex
    array.

    rho^vee pairs to 1 with every simple root, and h = 1 + max_v <v, rho^vee>
    is the Coxeter number (for a product, the largest over its factors).  So
    every simple root pairs with the point to 1/h and each highest root to at
    most (h - 1)/h: every wall of the alcove, the affine ones included, is
    at least 1/h away (Kostant, Amer. J. Math. 81, 1959).
    """
    h = coxeter_number(rs)
    return np.array([float(c / h) for c in rho_vee(rs)], dtype=complex)


@functools.cache
def positive_root_rows(rs: RootSystem) -> np.ndarray:
    """The positive roots' weight coordinates, in the order of rs.roots, as
    a read-only int64 matrix; cached per root system.  A root is positive
    when its simple-coroot coefficients are nonnegative."""
    rows = np.array([v.weight_coords for v in rs.roots
                     if min(v.coroot_coords) >= 0], dtype=np.int64)
    rows.setflags(write=False)
    return rows


def highest_roots(rs: RootSystem):
    """The highest root of each irreducible factor (in factor order): the
    factor's root maximizing |v|^2 sum_i c_i^vee = sum_i c_i |alpha_i|^2,
    c^vee and c the coefficients of v^vee in the simple coroots and of v in
    the simple roots.  That functional is positive on the simple roots, and
    theta - v is a nonnegative combination of them for every root v of the
    factor, so theta is its unique maximizer."""
    result = []
    for _, r, off in rs.factors:
        inside = [v for v in rs.roots
                  if not any(c for i, c in enumerate(v.coroot_coords)
                             if not off <= i < off + r)]
        result.append(max(inside,
                          key=lambda v: v.length_sq * sum(v.coroot_coords)))
    return tuple(result)


def standard_affine_generators(rs: RootSystem):
    """The reflections in the walls of the fundamental alcove, as (name,
    element) pairs: s1..sn in the simple-root walls <a_j, x> = 0, then, per
    irreducible factor b, a<b> in its highest-root wall <theta_b, x> = 1.
    Together they generate the affine Weyl group."""
    gens = [(f"s{j + 1}", reflection_element(rs.simple_roots[j], 0))
            for j in range(rs.rank)]
    for b, theta in enumerate(highest_roots(rs)):
        gens.append((f"a{b}", reflection_element(theta, 1)))
    return gens


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

@dataclass
class AxiomCheck:
    name: str
    passed: bool
    witness: object = None


@dataclass
class AxiomReport:
    checks: list

    @property
    def all_pass(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {c.name: {"pass": c.passed, "witness": _json_safe(c.witness)}
                for c in self.checks}


def _json_safe(obj):
    if obj is None or isinstance(obj, (int, float, str, bool)):
        return obj
    if isinstance(obj, Root):
        return {"weight_coords": list(obj.weight_coords)}
    if isinstance(obj, (tuple, list)):
        return [_json_safe(x) for x in obj]
    return str(obj)


def _row_codes(rows: np.ndarray, bound: int) -> np.ndarray:
    """One int64 code per row of an integer matrix with entries in
    [-bound, bound]: sum_i rows[:, i] R^(n-1-i), R = 2 bound + 1, balanced
    mixed radix, so distinct rows get distinct codes.  Refuses
    (CapExceededError) when a code could pass int64, |code| <= (R^n - 1)/2."""
    radix = 2 * bound + 1
    n = rows.shape[1]
    if radix ** n > 1 << 64:
        raise CapExceededError(
            f"rows of length {n} with entries up to {bound} do not fit one "
            "int64 code")
    return rows @ np.array([radix ** (n - 1 - i) for i in range(n)],
                           dtype=np.int64)


def verify_axioms(rs: RootSystem) -> AxiomReport:
    """Check the four root-system axioms on exact data; failures carry a
    witness."""
    checks = []

    # span: the simple roots, the columns of C, are linearly independent;
    # solve_fraction raises ValueError on any singular matrix
    try:
        solve_fraction(mat_transpose(rs.cartan), [1] * rs.rank)
        span_ok = True
    except ValueError:
        span_ok = False
    checks.append(AxiomCheck("span", span_ok,
                             None if span_ok else rs.cartan))

    roots = rs.roots
    wts = np.array([v.weight_coords for v in roots], dtype=np.int64)
    cos = np.array([v.coroot_coords for v in roots], dtype=np.int64)
    lens = np.array([v.length_sq for v in roots], dtype=np.int64)

    def first(bad):
        """The first (v, w) in row-major order where bad holds, or None."""
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        return (roots[i], roots[j]) if bad[i, j] else None

    # scalar multiples: only +-v.  Nonzero integer vectors are proportional
    # exactly when Cauchy-Schwarz is an equality, and then w = +-v exactly
    # when their norms agree
    gram = wts @ wts.T
    norms = np.diag(gram)
    mult_wit = first((gram * gram == np.outer(norms, norms))
                     & (norms[:, None] != norms[None, :])
                     & (norms[:, None] > 0) & (norms[None, :] > 0))
    checks.append(AxiomCheck("multiples", mult_wit is None, mult_wit))

    # closure under reflections: s_v(w) = w - <w, v^vee> v must be a root;
    # images and roots are keyed by one int64 code each (_row_codes)
    pair = wts @ cos.T   # pair[i, j] = <root i, root j^vee>
    imgs = wts[None, :, :] - pair.T[:, :, None] * wts[:, None, :]
    bound = int(max(np.abs(wts).max(initial=0), np.abs(imgs).max(initial=0)))
    codes = _row_codes(imgs.reshape(-1, rs.rank), bound)
    clo_wit = first(~np.isin(codes, _row_codes(wts, bound))
                    .reshape(len(roots), len(roots)))
    checks.append(AxiomCheck("closure", clo_wit is None, clo_wit))

    # integrality of 2<v,w>/<v,v>, cross-checked against the stored coroot
    # and length: <v, v^vee> must be 2, len_v <v^vee, v^vee> must be 4
    # (exact: rs.gram with its denominators cleared), and then
    # 2<v,w>/<v,v> = len_w <v, w^vee> / len_v must equal <w, v^vee>
    den = math.lcm(*(g.denominator for row in rs.gram for g in row))
    gram_co = np.array([[int(g * den) for g in row] for row in rs.gram],
                       dtype=np.int64)
    coroot_bad = np.diag(pair) != 2
    len_bad = lens * np.einsum("ij,jk,ik->i", cos, gram_co, cos) != 4 * den
    pair_bad = lens[None, :] * pair != lens[:, None] * pair.T
    row_bad = coroot_bad | len_bad | pair_bad.any(axis=1)
    int_wit = None
    if row_bad.any():
        i = int(np.argmax(row_bad))
        int_wit = ((roots[i], "coroot mismatch") if coroot_bad[i]
                   else (roots[i], "length_sq mismatch") if len_bad[i]
                   else (roots[i], roots[int(np.argmax(pair_bad[i]))]))
    checks.append(AxiomCheck("integrality", int_wit is None, int_wit))

    return AxiomReport(checks)
