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
generator the loop was built from and records, in closed form, each
generator's order (level_order) and the order of the group they generate
(generated_group_order) at each level; numeric_monodromy lifts one closed
loop from any basepoint.  No vertex is walked in Python, and no step
enumerates the Weyl group W: deck_identify walks both ends of a lift into
the fundamental alcove, and the group order needs only |W| (weyl_order)
and, at d^k = 2, a table of the kernel of W mod 2 per irreducible factor.
Relations among the generators' actions are not re-checked:
algebraic_action is a homomorphism, so they hold by construction (the
tests pin this).
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
    basepoint_array,
    coxeter_number,
    orbit_size,
    rho_vee,
    standard_affine_generators,
    weyl_order,
)

# img-verify holds and prints every level's permutation of every generator,
# about 64 bytes of peak RSS per entry: 2.5 * 2^20 entries come to about
# 192 MiB of a 200 MiB budget; check_img_caps gives the measurements
ENTRY_CAP = 5 * 2 ** 19
# one level action of V vertices in rank n holds (2n + 1) * V int64 cells,
# and an admitted run prints >= n + 1 permutations of its last level, so
# this cap refuses none (40 MiB; A1 d = 2 level 20 builds in 0.02 s)
ACTION_CELL_CAP = 2 * ENTRY_CAP
# the lift kernel holds generators * orbit rows * rank complex cells per
# Newton iterate: this many (128 MiB) take about 200 MiB, the budget
# ENTRY_CAP was sized for; check_img_caps gives the measurements
KERNEL_CELL_CAP = 2 ** 23
DEFAULT_EPSILON = 0.1


# ---------------------------------------------------------------------------
# level actions
# ---------------------------------------------------------------------------

def algebraic_action(g: AffineElement, d: int, k: int) -> np.ndarray:
    """The affine action u |-> w(u) + t of g on the coroot lattice reduced
    mod d^k, as an int64 image array over mixed-radix encoded vertices:
    index = sum_j u_j * (d^k)^j.  It is a permutation because det w = +-1,
    so w is invertible mod d^k.

    For V vertices in rank n it holds (2n + 1) * V int64 cells (the
    vertices, their images and the image indices) and refuses above
    ACTION_CELL_CAP."""
    if k < 1:
        raise ValueError("level must be >= 1")
    n = g.rank
    m = d ** k
    count = m ** n
    cells = count * (2 * n + 1)
    if cells > ACTION_CELL_CAP:
        raise CapExceededError(
            f"level {k} action on {count} vertices needs {cells} int64 cells "
            f"({8 * cells} bytes), above cap {ACTION_CELL_CAP} cells "
            f"({8 * ACTION_CELL_CAP} bytes)")
    # row j of u is coordinate u_j, u_0 varying fastest
    u = np.indices((m,) * n).reshape(n, count)[::-1]
    image = np.array(g.w.coroot_matrix, dtype=np.int64) @ u
    image += np.array([c % m for c in g.t], dtype=np.int64)[:, None]
    image %= m
    return np.ravel_multi_index(image[::-1], (m,) * n)


def level_order(g: AffineElement, m: int) -> int:
    """The order of g's action u |-> w(u) + t on (Z/m)^n, exact in Python
    integers.  With r the least r >= 1 with w^r == I mod m and T =
    sum_{i<r} w^i t, g^(r s) acts as u |-> u + s T, and r divides the
    exponent of every power of g that acts trivially: the order is
    r * m / gcd(m, T_1, ..., T_n)."""
    w = np.array(g.w.coroot_matrix, dtype=object)
    t = np.array(g.t, dtype=object) % m
    ident = np.eye(g.rank, dtype=object) % m
    power, total, r = w % m, t, 1
    while (power != ident).any():
        total, power, r = (total + power @ t) % m, power @ w % m, r + 1
    return r * m // math.gcd(m, *total)


# ---------------------------------------------------------------------------
# basepoint and loops
# ---------------------------------------------------------------------------

@functools.cache
def _unit_direction(rs: RootSystem) -> np.ndarray:
    """rho^vee / (h - 1): every positive root pairs with it into
    [1/(h - 1), 1], the simple roots to the least.  Computed once per root
    system, not once per loop."""
    top = coxeter_number(rs) - 1
    u = np.array([float(c / top) for c in rho_vee(rs)])
    u.setflags(write=False)
    return u


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

def _kernel_mod_two(letter: str, rank: int) -> int:
    """The order of the kernel of W -> GL(Q^vee / 2 Q^vee) for one
    irreducible factor.  It is W's center {+-1} (trivial for A_r, r >= 2,
    D_r, r odd, and E6, where -1 is not in W), except for C_r and B2 = C2:
    their coroot lattice is Z^r, and each of the 2^r sign changes is the
    identity mod 2."""
    if letter == "C" or (letter, rank) == ("B", 2):
        return 2 ** rank
    if (letter == "A" and rank >= 2) or (letter == "D" and rank % 2) \
            or (letter, rank) == ("E", 6):
        return 1
    return 2


def generated_group_order(rs: RootSystem, d: int, k: int) -> int:
    """Order of the group the standard generators' level-k actions generate:
    the image of W_aff = Q^vee x| W in the affine maps of (Z/m)^n, m = d^k.

    Q^vee is Z^n in coroot coordinates, and u |-> w(u) + t fixes t mod m
    (the image of 0) and then w mod m.  So the image is (Z/m)^n x| W_m, with
    W_m the image of W in GL_n(Z/m), of order m^n * |W| / |K_m|, K_m the
    kernel.  For m >= 3, K_m is trivial: a finite-order integer matrix
    == I mod m is I (Minkowski).  For m = 2, |K_2| is the product of the
    factors' kernels (_kernel_mod_two), and for m = 1, K_1 = W.  Exact in
    Python integers, so m may pass 2^63."""
    m = d ** k
    order = weyl_order(rs)
    if m == 1:
        kernel = order
    elif m == 2:
        kernel = math.prod(_kernel_mod_two(letter, r)
                           for letter, r, _ in rs.factors)
    else:
        kernel = 1
    return m ** rs.rank * order // kernel


# ---------------------------------------------------------------------------
# the full verification pipeline
# ---------------------------------------------------------------------------

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
                            "order": level_order(g.label, self.d ** k),
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
    naming what is over its cap and the cap.

    The run holds, and prints as JSON, every level's permutation of each of
    the P = rank + #factors generators, d^(k * rank) entries apiece at level
    k.  ENTRY_CAP bounds their total, counted level by level up to the
    first level that passes it.  Whole-process peak RSS (2-core Xeon, caps
    lifted) is about 32 MiB plus 64 bytes per entry: 96-106 MiB for A1 2
    18, A2 2 9 and B3 2 6 (1.05-1.2 M entries), 142 MiB for A1xA1xA1 2 6
    (1.8 M), 160-168 MiB for A1 2 19 and B3 3 4 (2.1-2.2 M), 178 MiB for
    A2xA2xA2 2 3 (2.4 M) and 227 MiB for A1^6 2 3 (3.2 M), refused.  The cap
    counts entries, not vertices, because a product of many factors holds
    more of them per vertex.  An admitted run's algebraic_action stays
    below ACTION_CELL_CAP at every rank.

    Each Newton iterate of the lift evaluates the Jacobian of all P loops
    at once, P * R * rank complex cells, R = sum_k |W omega_k| the rows of
    the fundamental orbits (orbit_size, no enumeration), and
    KERNEL_CELL_CAP bounds them.  On the same machine, level 1 at d = 2
    took about 21 bytes of peak RSS per cell above 32 MiB: E7 (0.99 M
    cells) 6 s at 56 MiB, B9 (1.8 M) 3.5 s at 71 MiB, A13 (3.0 M) 7 s at
    91 MiB, D10 (5.9 M) 15 s at 156 MiB and B10 (6.5 M) 16 s at 168 MiB.
    So the cap, 2^23 cells, is about 200 MiB, the budget ENTRY_CAP was
    sized for.
    E8 (63.5 M cells, 1 GiB in one complex array) is refused."""
    gens = rs.rank + len(rs.factors)
    entries = 0
    for k in range(1, levels + 1):
        vertices = d ** (k * rs.rank)
        entries += gens * vertices
        if entries > ENTRY_CAP:
            raise CapExceededError(
                f"level {k} of {levels} needs {vertices} vertices; the "
                f"generators' permutations up to it hold {entries} entries, "
                f"above cap {ENTRY_CAP}")
    rows = sum(orbit_size(rs, rs.fundamental_weight(k))
               for k in range(rs.rank))
    cells = gens * rows * rs.rank
    if cells > KERNEL_CELL_CAP:
        raise CapExceededError(
            f"lifting {gens} loops over {rows} orbit rows in rank "
            f"{rs.rank} holds {cells} complex kernel cells, above cap "
            f"{KERNEL_CELL_CAP}")


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
