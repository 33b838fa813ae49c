"""The monodromy action of a Chebyshev-like map on its tree of preimages,
checked against the affine Weyl action.

Tree model and conventions (fixed once, used by every module):

* The level-k vertex set is the coroot lattice reduced mod d^k, i.e.
  (Z/d^k Z)^n.  Fiber points over the basepoint correspond to cosets of the
  affine Weyl group by the subgroup of d^k-divisible translations; the label
  of a coset is the translation part of its unique Weyl-trivial
  representative, negated.
* The recorded ("algebraic") action of g = (t, w) at level k is the affine
  action on lattice points reduced mod d^k:  u |-> w(u) + t.  This makes
  g |-> action a homomorphism, a unit coroot translation acts as the
  odometer u |-> u + 1, and loop concatenation "first gamma1 then gamma2"
  composes covariantly (deck elements multiply left to right).
* Path lifting itself moves fiber labels by the action of g^{-1} (right
  cosets are permuted by right multiplication): a lift from the
  representative y - u of vertex u ends at ((-u, id) * g)(y).  The tests
  pin this bookkeeping.

A loop is lifted once through the generalized cosine; the deck
transformation carrying the start of the lift to its end (deck_identify)
determines the loop's action at every level.  Generator loops are based at
the Coxeter point rho^vee / h (basepoint_array).  img_verification lifts
the standard generators' loops in one lift_paths batch, checks each deck
element against the loop's label and records, in closed form, the order of
the group the labels generate at each level; numeric_monodromy does the
same for one loop from any basepoint.  Relations among the generators'
actions are not re-checked: algebraic_action is a homomorphism, so they
hold by construction (the tests pin this).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CapExceededError, LiftError
from .gencos import (
    PathSample,
    deck_identify,
    eval_gencos,
    lift_path,
    lift_paths,
)
from .rootsys import (
    AffineElement,
    RootSystem,
    dot,
    highest_roots,
    reflection_element,
    rho_vee,
    weyl_group_elements,
)

# img-verify holds and prints every level's permutation of every generator:
# this many entries (1.25 * 2^20) take about 200 MiB; check_img_caps gives
# the measurements
ENTRY_CAP = 5 * 2 ** 18
# one level action of V vertices in rank n holds V * (n + 2) int64 cells,
# 32 MiB at this cap: about a million vertices, which algebraic_action
# builds in 0.07 s and perm_order walks in 0.2 s (A1, d = 2, level 20)
ACTION_CELL_CAP = 2 ** 22
DEFAULT_LOOP_SAMPLES = 257
DEFAULT_EPSILON = 0.1


# ---------------------------------------------------------------------------
# level actions
# ---------------------------------------------------------------------------

def algebraic_action(g: AffineElement, d: int, k: int) -> np.ndarray:
    """The affine action u |-> w(u) + t of g on the coroot lattice reduced
    mod d^k, as an int64 image array over mixed-radix encoded vertices:
    index = sum_j u_j * (d^k)^j.  It is a permutation because det w = +-1,
    so w is invertible mod d^k.

    For V vertices it holds V * (n + 2) int64 cells (the vertices, their
    indices and their images) and refuses above ACTION_CELL_CAP."""
    if k < 1:
        raise ValueError("level must be >= 1")
    n = g.rank
    m = d ** k
    count = m ** n
    cells = count * (n + 2)
    if cells > ACTION_CELL_CAP:
        raise CapExceededError(
            f"level {k} action on {count} vertices needs {cells} int64 cells "
            f"({8 * cells} bytes), above cap {ACTION_CELL_CAP} cells "
            f"({8 * ACTION_CELL_CAP} bytes)")
    idx = np.arange(count)
    u = np.empty((count, n), dtype=np.int64)
    for j in range(n):
        u[:, j] = (idx // m ** j) % m
    # image coordinate j is (row j of w) . u + t_j, encoded from the top
    enc = np.zeros(count, dtype=np.int64)
    for row, tj in reversed(list(zip(g.w.coroot_matrix, g.t))):
        enc = enc * m + (u @ np.array(row, dtype=np.int64) + tj) % m
    return enc


def perm_order(perm) -> int:
    """The order of a permutation image array: the lcm of its cycle lengths."""
    perm = perm.tolist()
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        order = math.lcm(order, length)
    return order


def wreath_digit_step(g: AffineElement, d: int, letter):
    """One digit of the action of g = (t, w): on first letter a, the integer
    vector v = w(a) + t splits as image letter (v mod d) plus d times a carry,
    and the carry becomes the child state's translation:

        g . (a, rest) = (v mod d, (carry, w) . rest)
    """
    letter = tuple(int(c) for c in letter)
    if len(letter) != g.rank:
        raise ValueError("letter has wrong number of digits")
    v = tuple(a + b for a, b in zip(g.w.apply_point(letter), g.t))
    img = tuple(c % d for c in v)
    carry = tuple((c - r) // d for c, r in zip(v, img))
    return img, AffineElement(carry, g.w)


# ---------------------------------------------------------------------------
# basepoint and loops
# ---------------------------------------------------------------------------

def _coxeter_number(rs: RootSystem) -> int:
    """h = 1 + max_v <v, rho^vee>, the Coxeter number (for a product, the
    largest over its factors)."""
    rho = rho_vee(rs)
    return 1 + int(max(dot(v.weight_coords, rho) for v in rs.roots))


@functools.cache
def _unit_direction(rs: RootSystem):
    """rho^vee / (h - 1) as exact Fractions, with its least root pairing
    1/(h - 1): every positive root pairs with it into [1/(h - 1), 1], the
    simple roots to the least.  Computed once per root system, not once
    per loop."""
    top = _coxeter_number(rs) - 1
    return tuple(c / top for c in rho_vee(rs)), Fraction(1, top)


def basepoint_array(rs: RootSystem) -> np.ndarray:
    """The Coxeter point rho^vee / h of the fundamental alcove, as a complex
    array.

    rho^vee pairs to 1 with every simple root, and h = 1 + max_v <v, rho^vee>
    is the Coxeter number (for a product, the largest over its factors).  So
    every simple root pairs with the point to 1/h and each highest root to at
    most (h - 1)/h: every wall of the alcove, the affine ones included, is
    at least 1/h away (Kostant, Amer. J. Math. 81, 1959).
    """
    h = _coxeter_number(rs)
    return np.array([float(c / h) for c in rho_vee(rs)], dtype=complex)


@dataclass
class Loop:
    """A sampled loop in the target space with equal endpoints, optionally
    labeled by the deck element it was built from."""

    samples: PathSample
    label: AffineElement | None = None

    def __post_init__(self):
        gap = np.abs(self.samples.points[0] - self.samples.points[-1]).max()
        if gap > 1e-10:
            raise ValueError(f"loop endpoints differ by {gap:.3e}")


def make_generator_loop(rs: RootSystem, g: AffineElement, y0=None,
                        epsilon: float = DEFAULT_EPSILON,
                        num_samples: int = DEFAULT_LOOP_SAMPLES) -> Loop:
    """The image of the straight segment from the real point y0 to g(y0),
    bent into the complex domain by +i*epsilon*sin(pi t) times the unit
    direction u so it crosses no wall; its image is a loop with monodromy
    label g.

    Every root pairs with u to a nonzero value of size at most 1: clearance
    from the walls without exponential blowup of the loop values.  A wall
    <v, y> = ell has ell real, so the distance of y(t) from it is at least
    |Im <v, y(t)>| = |epsilon| * sin(pi t) * |<v, u>|.  Over the interior
    samples that is smallest at the first one, t1: the clearance is
    |epsilon| * sin(pi t1) * min_v |<v, u>|, and a loop whose clearance is
    at most 1e-9 is refused.
    """
    from .rootsys import affine_apply
    if y0 is None:
        y0 = basepoint_array(rs)
    y0 = np.asarray(y0, dtype=complex)
    if np.any(y0.imag):
        raise ValueError("the loop's basepoint must be real")
    y1 = affine_apply(g, y0)
    if np.abs(y1 - y0).max() < 1e-12:
        raise ValueError("generator fixes the basepoint; loop is degenerate")
    u, least = _unit_direction(rs)
    ts = np.linspace(0.0, 1.0, num_samples)
    clearance = abs(epsilon) * np.sin(np.pi * ts[1]) * float(least)
    if clearance <= 1e-9:
        raise ValueError(f"generating path comes within {clearance:.3e} of "
                         f"a wall")
    u = np.array([float(c) for c in u])
    ys = ((1 - ts)[:, None] * y0[None, :] + ts[:, None] * y1[None, :]
          + 1j * epsilon * np.sin(np.pi * ts)[:, None] * u[None, :])
    pts = eval_gencos(rs, ys)
    return Loop(PathSample(ts, pts), label=g)


# ---------------------------------------------------------------------------
# monodromy by path lifting
# ---------------------------------------------------------------------------

def numeric_monodromy(rs: RootSystem, d: int, loop: Loop, levels: int,
                      y_start=None):
    """Monodromy level actions of a loop, computed numerically: one
    continuation through the covering determines the deck element, which
    determines every level action."""
    check_img_caps(rs, d, levels)
    if y_start is None:
        y_start = basepoint_array(rs)
    y_start = np.asarray(y_start, dtype=complex)
    if np.abs(eval_gencos(rs, y_start) - loop.samples.points[0]).max() > 1e-8:
        raise ValueError("loop is not based at the image of y_start")

    g = deck_identify(rs, y_start,
                      lift_path(rs, loop.samples, y_start).points[-1])
    actions = [algebraic_action(g, d, k) for k in range(1, levels + 1)]
    return actions, g


# ---------------------------------------------------------------------------
# group order in closed form
# ---------------------------------------------------------------------------

def generated_group_order(rs: RootSystem, d: int, k: int) -> int:
    """Order of the group the standard generators' level-k actions generate:
    the image of W_aff = Q^vee x| W in the affine maps of (Z/m)^n, m = d^k.

    Q^vee is Z^n in coroot coordinates, and u |-> w(u) + t fixes t mod m
    (the image of 0) and then w mod m.  So the image is (Z/m)^n x| W_m, with
    W_m the image of W in GL_n(Z/m), of order m^n * |W| / |kernel|.  The
    kernel {w == I mod m} is counted over the enumerated W (refused above
    WEYL_CAP) in Python integers, so m may pass 2^63."""
    m = d ** k
    mats = np.array([w.coroot_matrix for w in weyl_group_elements(rs)],
                    dtype=object)
    kernel = ((mats - np.eye(rs.rank, dtype=int)) % m == 0).all(axis=(1, 2))
    return m ** rs.rank * len(mats) // int(kernel.sum())


# ---------------------------------------------------------------------------
# the full verification pipeline
# ---------------------------------------------------------------------------

def standard_affine_generators(rs: RootSystem):
    """The simple reflections plus, per irreducible factor, the reflection in
    the highest-root wall at level 1: together they generate the affine Weyl
    group."""
    gens = [(f"s{j + 1}", reflection_element(rs.simple_roots[j], 0))
            for j in range(rs.rank)]
    for b, theta in enumerate(highest_roots(rs)):
        gens.append((f"a{b}", reflection_element(theta, 1)))
    return gens


@dataclass
class GeneratorReport:
    name: str
    label: AffineElement
    deck: AffineElement
    deck_matches: bool
    actions: list


@dataclass
class MonodromyReport:
    type_spec: str
    d: int
    levels: int
    generators: list = field(default_factory=list)
    group_orders: list = field(default_factory=list)

    @property
    def passed(self):
        return all(g.deck_matches for g in self.generators)

    def as_dict(self):
        return {
            "type_spec": self.type_spec,
            "d": self.d,
            "levels": self.levels,
            "pass": self.passed,
            "generators": [
                {
                    "name": g.name,
                    "label": _affine_dict(g.label),
                    "deck": _affine_dict(g.deck),
                    "deck_matches": g.deck_matches,
                    "levels": [
                        {
                            "level": k,
                            "algebraic_perm": act.tolist(),
                            "order": perm_order(act),
                        }
                        for k, act in enumerate(g.actions, 1)
                    ],
                }
                for g in self.generators
            ],
            "group_orders": self.group_orders,
        }


def _affine_dict(g: AffineElement):
    return {"t": list(g.t), "w": [list(r) for r in g.w.weight_matrix]}


def check_img_caps(rs: RootSystem, d: int, levels: int):
    """Size the verification before running it; raises CapExceededError
    naming the deepest level's vertices, the permutation entries and the cap.

    The run holds, and prints as JSON, every level's permutation of each of
    the rank + #factors generators, sum_k d^(k * rank) entries apiece, and
    ENTRY_CAP bounds their total.  Whole-process peak RSS (2-core Xeon) came
    to 152-166 bytes per entry, above 34 MiB, on 13 runs: 191-221 MiB for
    A1 2 18, A2 2 9 and B3 2 6 (1.05-1.2 M entries, accepted), 310 MiB for
    A1xA1xA1 2 6 (1.8 M), 352-384 MiB for A1 2 19 and B3 3 4 (2.1-2.2 M),
    411 MiB for A2xA2xA2 2 3, 530 MiB for A1^6 2 3 and 757 MiB for A1^9 2 2
    (4.7 M).  The cap accepts exactly the runs under the 288-298 MiB that
    Schreier-Sims took at the old cap of 4096 vertices; a cap on vertices
    let products of many factors through.  At rank <= 10 algebraic_action
    stays below ACTION_CELL_CAP.  A Weyl group above WEYL_CAP is refused by
    img_verification."""
    vertices = d ** (levels * rs.rank)
    # sum_{k=1..levels} q^k in closed form, q the vertices of level one
    q = d ** rs.rank
    per_generator = levels if q == 1 else (q * vertices - q) // (q - 1)
    entries = (rs.rank + len(rs.factors)) * per_generator
    if entries > ENTRY_CAP:
        raise CapExceededError(
            f"level {levels} needs {vertices} vertices; its generators' "
            f"level permutations hold {entries} entries, above cap "
            f"{ENTRY_CAP}")


def img_verification(rs: RootSystem, d: int, levels: int) -> MonodromyReport:
    """Verify, at the given depth, that the monodromy action computed by
    path lifting is the affine Weyl action on the tree:

    (a) loops for the standard affine generating set,
    (b) each loop, lifted once (all of them in one lift_paths call), has the
        deck element it is labeled with, so its action at every level is the
        label's affine action mod d^k,
    (c) the order of the group the labels generate at each level is
        recorded, in closed form (generated_group_order).

    A lifting error is raised again with the failing generator's name.
    """
    check_img_caps(rs, d, levels)
    # deck_identify searches all of W and the group order counts over it:
    # enumerate it (it is cached) before any loop is lifted, so a Weyl group
    # above WEYL_CAP is refused first
    weyl_group_elements(rs)
    report = MonodromyReport(rs.type_spec, d, levels)
    y0 = basepoint_array(rs)
    gens = standard_affine_generators(rs)
    # every loop is sampled on the same grid, DEFAULT_LOOP_SAMPLES times
    loops = [make_generator_loop(rs, g, y0) for _, g in gens]
    try:
        ends = lift_paths(
            rs, loops[0].samples.times,
            np.stack([loop.samples.points for loop in loops], 1),
            np.tile(y0, (len(loops), 1))).points[-1]
    except LiftError as err:
        raise type(err)(f"generator {gens[err.path][0]}: {err}", err.path,
                        err.t, err.step, err.value) from err
    for (name, g), end in zip(gens, ends):
        deck = deck_identify(rs, y0, end)
        actions = [algebraic_action(g, d, k) for k in range(1, levels + 1)]
        report.generators.append(GeneratorReport(
            name, g, deck, deck == g, actions))

    for k in range(1, levels + 1):
        report.group_orders.append(
            {"level": k, "algebraic": generated_group_order(rs, d, k)})
    return report
