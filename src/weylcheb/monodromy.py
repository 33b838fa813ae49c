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

A loop is a function of t in [0, 1], and it is lifted once through the
generalized cosine; the deck transformation carrying the start of the lift
to its end (deck_identify) determines the loop's action at every level.
The loop of a generator g is the image of its generating path
(make_generator_loop), which runs from the Coxeter point y0 = rho^vee / h
(basepoint_array) to g(y0).  The lift is given only that image, evaluated
exactly at each time it asks for, and never the path, which is the lift
the check must find.  img_verification lifts the standard generators'
loops in one lift_paths batch, checks each deck element against the
generator the loop was built from and records, in closed form, the order
of the group the generators generate at each level; numeric_monodromy
lifts one closed loop from any basepoint.  Relations among the generators'
actions are not re-checked: algebraic_action is a homomorphism, so they
hold by construction (the tests pin this).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, ContinuationError
from .gencos import deck_identify, eval_gencos, lift_path, lift_paths
from .rootsys import (
    AffineElement,
    RootSystem,
    affine_apply,
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


# ---------------------------------------------------------------------------
# basepoint and loops
# ---------------------------------------------------------------------------

def _coxeter_number(rs: RootSystem) -> int:
    """h = 1 + max_v <v, rho^vee>, the Coxeter number (for a product, the
    largest over its factors)."""
    rho = rho_vee(rs)
    return 1 + int(max(dot(v.weight_coords, rho) for v in rs.roots))


@functools.cache
def _unit_direction(rs: RootSystem) -> np.ndarray:
    """rho^vee / (h - 1): every positive root pairs with it into
    [1/(h - 1), 1], the simple roots to the least.  Computed once per root
    system, not once per loop."""
    top = _coxeter_number(rs) - 1
    u = np.array([float(c / top) for c in rho_vee(rs)])
    u.setflags(write=False)
    return u


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


def make_generator_loop(rs: RootSystem,
                        g: AffineElement | list[AffineElement], y0=None,
                        epsilon: float = DEFAULT_EPSILON):
    """The generating path of g's loop, as a function of t in [0, 1]: the
    straight segment from the real point y0 to g(y0), bent into the complex
    domain by +i*epsilon*sin(pi t) times the unit direction u so it crosses
    no wall.  Its image t |-> eval_gencos(rs, path(t)) is a loop with
    monodromy label g, and the path is that loop's lift from y0.  For a
    list of P generators, path(t) is their P paths at t stacked, shape
    (P, n): one numpy expression per time for all of them.

    Every root pairs with u to a nonzero value of size at most 1: clearance
    from the walls without exponential blowup of the loop values.  A wall
    <v, y> = ell has ell real, so at time t the path is at least
    |epsilon| * sin(pi t) * |<v, u>| from it.  lift_paths' step rule meets
    that clearance: it halves the step where the path comes near a wall,
    holds it there until the dyadic grid lets it grow again, and ends in
    ContinuationError on a path that comes too close to a wall.
    """
    if y0 is None:
        y0 = basepoint_array(rs)
    y0 = np.asarray(y0, dtype=complex)
    if np.any(y0.imag):
        raise ValueError("the loop's basepoint must be real")
    y1 = (affine_apply(g, y0) if isinstance(g, AffineElement)
          else np.array([affine_apply(h, y0) for h in g]))
    if (np.abs(y1 - y0).max(axis=-1) < 1e-12).any():
        raise ValueError("generator fixes the basepoint; loop is degenerate")
    step, bump = y1 - y0, 1j * epsilon * _unit_direction(rs)

    def path(t: float) -> np.ndarray:
        return y0 + t * step + math.sin(math.pi * t) * bump

    return path


# ---------------------------------------------------------------------------
# monodromy by path lifting
# ---------------------------------------------------------------------------

def numeric_monodromy(rs: RootSystem, d: int, loop, levels: int,
                      y_start=None):
    """Monodromy level actions of a loop, loop(t) of shape (n,) for t in
    [0, 1] with loop(0) = loop(1) = gencos(y_start), computed numerically:
    one continuation through the covering determines the deck element,
    which determines every level action."""
    check_img_caps(rs, d, levels)
    if y_start is None:
        y_start = basepoint_array(rs)
    y_start = np.asarray(y_start, dtype=complex)
    x0 = np.asarray(loop(0.0))
    gap = np.abs(x0 - loop(1.0)).max()
    if gap > 1e-10:
        raise ValueError(f"loop endpoints differ by {gap:.3e}")
    if np.abs(eval_gencos(rs, y_start) - x0).max() > 1e-8:
        raise ValueError("loop is not based at the image of y_start")

    g = deck_identify(rs, y_start, lift_path(rs, loop, y_start).points[-1])
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
    paths = make_generator_loop(rs, [g for _, g in gens], y0)
    try:
        # the loops' exact values: one kernel call per time for all of them
        ends = lift_paths(rs, lambda t: eval_gencos(rs, paths(t)),
                          np.tile(y0, (len(gens), 1))).points[-1]
    except ContinuationError as err:
        raise ContinuationError(f"generator {gens[err.path][0]}: {err}",
                                err.path, err.t, err.step, err.value) from err
    for (name, g), end in zip(gens, ends):
        deck = deck_identify(rs, y0, end)
        actions = [algebraic_action(g, d, k) for k in range(1, levels + 1)]
        report.generators.append(GeneratorReport(
            name, g, deck, deck == g, actions))

    for k in range(1, levels + 1):
        report.group_orders.append(
            {"level": k, "algebraic": generated_group_order(rs, d, k)})
    return report
