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
transformation carrying the start of the lift to its end determines the
loop's action at every level.  img_verification checks that deck element
against the loop's label and records the order of the group the labels
generate at each level.  Relations among the generators' actions are not
re-checked: algebraic_action is a homomorphism, so they hold by
construction (the tests pin this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError
from .gencos import (
    PathSample,
    deck_identify,
    eval_gencos,
    lift_path,
    regular_direction,
)
from .rootsys import (
    AffineElement,
    RootSystem,
    affine_compose,
    dot,
    highest_roots,
    reflection_element,
    weyl_group_elements,
)

# the Schreier-Sims transversals hold up to 2 * V^2 int64 cells for V
# vertices, 256 MiB at this cap; check_img_caps gives the measurements
VERTEX_CAP = 4096
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


def affine_element_order(g: AffineElement, cap: int = 64):
    """Exact order of an affine Weyl element, or None when infinite."""
    acc = g
    for k in range(1, cap + 1):
        if acc.w.is_identity():
            return k if all(c == 0 for c in acc.t) else None
        acc = affine_compose(acc, g)
    return None  # pragma: no cover - Weyl parts have small order


# ---------------------------------------------------------------------------
# basepoint and loops
# ---------------------------------------------------------------------------

def _unit_direction(rs: RootSystem):
    """The regular direction divided by H, its largest pairing with a root,
    as exact Fractions: every positive root pairs with it into (0, 1]."""
    u = regular_direction(rs)
    h = max(dot(v.weight_coords, u) for v in rs.roots)
    return tuple(c / h for c in u)


def basepoint(rs: RootSystem):
    """A deterministic regular point in the interior of the fundamental
    alcove, plus its image under the generalized cosine.

    The point sits at 1/3 along the unit direction (the sum of fundamental
    weights divided by H); every positive root then pairs into (0, 1/3].
    """
    y0 = tuple(c / 3 for c in _unit_direction(rs))
    x0 = eval_gencos(rs, np.array([float(c) for c in y0], dtype=complex))
    return y0, x0


def basepoint_array(rs: RootSystem) -> np.ndarray:
    y0, _ = basepoint(rs)
    return np.array([float(c) for c in y0], dtype=complex)


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
    u = _unit_direction(rs)
    ts = np.linspace(0.0, 1.0, num_samples)
    clearance = (abs(epsilon) * np.sin(np.pi * ts[1])
                 * float(min(abs(dot(v.weight_coords, u)) for v in rs.roots)))
    if clearance <= 1e-9:
        raise ValueError(f"generating path comes within {clearance:.3e} of "
                         f"a wall")
    u = np.array([float(c) for c in u])
    ys = ((1 - ts)[:, None] * y0[None, :] + ts[:, None] * y1[None, :]
          + 1j * epsilon * np.sin(np.pi * ts)[:, None] * u[None, :])
    pts = eval_gencos(rs, ys)
    return Loop(PathSample(ts, pts), label=g)


def concat_loops(l1: Loop, l2: Loop) -> Loop:
    """The loop "first l1, then l2" (deck elements multiply left to right)."""
    if np.abs(l1.samples.points[0] - l2.samples.points[0]).max() > 1e-9:
        raise ValueError("loops are based at different points")
    t1 = l1.samples.times * 0.5
    t2 = 0.5 + l2.samples.times * 0.5
    times = np.concatenate([t1, t2[1:]])
    points = np.concatenate([l1.samples.points, l2.samples.points[1:]])
    label = None
    if l1.label is not None and l2.label is not None:
        label = affine_compose(l1.label, l2.label)
    return Loop(PathSample(times, points), label=label)


def a1_standard_loops(d: int, num_samples: int = DEFAULT_LOOP_SAMPLES):
    """The two standard generating loops of the rank-one target space
    punctured at -2 and +2, based at 0:  +-2(1 - e^{2 pi i s}).

    They are based at 0 rather than at the image of the canonical basepoint;
    lifting starts from the alcove-interior preimage 1/4 of 0, and the real
    connecting segment from the canonical basepoint conjugates the actions
    without changing any deck element, so no extra bookkeeping is needed.
    """
    ts = np.linspace(0.0, 1.0, num_samples)
    circle = 1 - np.exp(2j * np.pi * ts)
    plus = Loop(PathSample(ts, (2 * circle)[:, None]))
    minus = Loop(PathSample(ts, (-2 * circle)[:, None]))
    return plus, minus


A1_LOOP_BASEPOINT = 0.25  # the alcove-interior preimage of 0


# ---------------------------------------------------------------------------
# monodromy by path lifting
# ---------------------------------------------------------------------------

def lift_deck_element(rs: RootSystem, loop: Loop, y_start) -> AffineElement:
    """Lift the loop once through the generalized cosine and identify the
    deck transformation carrying the start of the lift to its end."""
    y_start = np.asarray(y_start, dtype=complex)
    lifted = lift_path(rs, loop.samples, y_start)
    return deck_identify(rs, y_start, lifted.points[-1])


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

    g = lift_deck_element(rs, loop, y_start)
    actions = [algebraic_action(g, d, k) for k in range(1, levels + 1)]
    return actions, g


# ---------------------------------------------------------------------------
# group order by Schreier-Sims
# ---------------------------------------------------------------------------

class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    fixing the earlier base points (each with its inverse), and the
    transversal of the base point's orbit under them.  Permutations are
    image arrays, "p then q" is q[p]; trans[x] = (u, u^-1) with u[base] = x.
    Entries are only ever added, never changed."""

    def __init__(self, base, ident):
        self.base = base
        self.gens = []
        self.orbit = [base]
        self.trans = {base: (ident, ident)}
        self.tested = set()  # (orbit point, generator index) pairs sifted

    def add_gen(self, g, ginv):
        self.gens.append((g, ginv))
        old = len(self.orbit)
        for x in self.orbit[:old]:
            self._visit(x, g, ginv)
        k = old
        while k < len(self.orbit):
            for h, hinv in self.gens:
                self._visit(self.orbit[k], h, hinv)
            k += 1

    def _visit(self, x, g, ginv):
        y = int(g[x])
        if y not in self.trans:
            u, uinv = self.trans[x]
            self.trans[y] = (g[u], uinv[ginv])
            self.orbit.append(y)


def _strip(chain, g, start):
    """Sift g down the chain from level start: the residue and the level
    where it stopped (len(chain) if it passed every level)."""
    for i in range(start, len(chain)):
        lvl = chain[i]
        entry = lvl.trans.get(int(g[lvl.base]))
        if entry is None:
            return g, i
        g = entry[1][g]
    return g, len(chain)


def _add_strong(chain, h, lo, hi, ident):
    """Make h a strong generator of levels lo..hi; level hi is new, based at
    the first point h moves, when hi == len(chain)."""
    if hi == len(chain):
        chain.append(_Level(int(np.flatnonzero(h != ident)[0]), ident))
    hinv = np.empty_like(h)
    hinv[h] = ident
    for lvl in chain[lo:hi + 1]:
        lvl.add_gen(h, hinv)


def _first_residue(chain, i, ident):
    """Sift the untested Schreier generators of level i through the levels
    below it.  At the first non-trivial residue, make it a strong generator
    of every level from i+1 to where its sift stopped and return that level;
    return None when every one sifts to the identity."""
    lvl = chain[i]
    for x in lvl.orbit:
        u = lvl.trans[x][0]
        for k, (g, _) in enumerate(lvl.gens):
            if (x, k) in lvl.tested:
                continue
            lvl.tested.add((x, k))
            # u_x then g then u_{g(x)}^-1, which fixes the base point
            h, j = _strip(chain, lvl.trans[int(g[x])][1][g[u]], i + 1)
            if j < len(chain) or not np.array_equal(h, ident):
                _add_strong(chain, h, i + 1, j, ident)
                return j
    return None


def generated_group_order(actions) -> int:
    """Order of the permutation group generated by the given level actions,
    by deterministic Schreier-Sims (Holt's SCHREIERSIMS: Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, sec. 4.4.2).

    Each generator becomes a strong generator of every level up to the
    first whose base point it moves.  Then, from the deepest level up, every
    Schreier generator u_x g u_{g(x)}^-1 of a level is sifted through the
    levels below; a non-trivial residue becomes a strong generator of every
    level from the next one to where its sift stopped (a new level if it
    passed them all), and the work resumes there.  Transversal entries never
    change, so a Schreier generator sifted once stays sifted.  The order is
    the product of the orbit lengths; no group element is listed.  Memory is
    the transversals: two permutations (an entry and its inverse) per orbit
    point, at most 2 * degree^2 cells per level.
    """
    gens = list(actions)
    if not gens:
        return 1
    ident = np.arange(len(gens[0]))
    chain = []
    for g in gens:
        if not np.array_equal(g, ident):
            j = next((i for i, lvl in enumerate(chain)
                      if g[lvl.base] != lvl.base), len(chain))
            _add_strong(chain, g, 0, j, ident)
    i = len(chain) - 1
    while i >= 0:
        j = _first_residue(chain, i, ident)
        i = i - 1 if j is None else j
    return math.prod(len(lvl.orbit) for lvl in chain)


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
    naming the vertices, the cap and the memory they stand for.

    What the run stores grows with V = d^(levels * rank), the vertices of
    the deepest level.  Level 0 of the Schreier-Sims transversals in
    generated_group_order holds an entry and its inverse, each V cells, per
    orbit point: at most 2 * V^2 int64 cells, 256 MiB at V = 4096.  Measured
    on a 2-core Xeon, generated_group_order took 288-298 MiB of peak RSS and
    0.6-1.5 s on every V = 4096 case (A1 2 12, A3 2 4, B3 2 4, G2 2 6,
    C3 2 4, F4 2 3), and img-verify A1 2 13 (V = 8192) took 1065 MiB.  The
    group order itself costs nothing: E6 2 1, order 3,317,760, takes 10 ms.
    A Weyl group above WEYL_CAP is refused by img_verification."""
    vertices = d ** (levels * rs.rank)
    if vertices > VERTEX_CAP:
        raise CapExceededError(
            f"level {levels} needs {vertices} vertices, above cap "
            f"{VERTEX_CAP}; its group order stores up to 2 * {vertices}^2 = "
            f"{2 * vertices ** 2} transversal cells")


def img_verification(rs: RootSystem, d: int, levels: int) -> MonodromyReport:
    """Verify, at the given depth, that the monodromy action computed by
    path lifting is the affine Weyl action on the tree:

    (a) loops for the standard affine generating set,
    (b) each loop, lifted once, has the deck element it is labeled with, so
        its action at every level is the label's affine action mod d^k,
    (c) the order of the permutation group generated at each level is
        recorded.
    """
    check_img_caps(rs, d, levels)
    # deck_identify searches all of W: enumerate it (it is cached) before
    # any loop is lifted, so a Weyl group above WEYL_CAP is refused first
    weyl_group_elements(rs)
    report = MonodromyReport(rs.type_spec, d, levels)
    y0 = basepoint_array(rs)
    for name, g in standard_affine_generators(rs):
        loop = make_generator_loop(rs, g, y0)
        deck = lift_deck_element(rs, loop, y0)
        actions = [algebraic_action(g, d, k) for k in range(1, levels + 1)]
        report.generators.append(GeneratorReport(
            name, g, deck, deck == g, actions))

    for k in range(levels):
        order = generated_group_order(
            [rep.actions[k] for rep in report.generators])
        report.group_orders.append({"level": k + 1, "algebraic": order})
    return report
