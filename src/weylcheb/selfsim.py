"""Self-similar actions of affine Weyl elements on the d^n-ary tree.

Vertices at depth k are words of k letters, each letter a vector of n base-d
digits; a word is read least-significant-letter first, so depth-k words
encode lattice vectors u mod d^k, on which g = (t, w) acts as
u |-> w(u) + t mod d^k (act_on_word).  Taken one letter at a time this is
the wreath recursion: on first letter a, v = w(a) + t is the image letter
v mod d plus d times a carry, and the child state (carry, w) acts on the
rest.  Its reachable states form a finite automaton (reachable_states).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, WeylchebError
from .rootsys import AffineElement, affine_apply

# an automaton holds and prints states x d^n transitions, at 0.46-0.58 KiB
# of peak RSS each (automaton E6 3: 122472 transitions, 70 MiB; E8 2:
# 353792, 160 MiB): this cap lets E8 2 run and bounds a run near 230 MiB.
# It was sized at 1.1-1.3 KiB each, when the JSON was written with an
# indent, and is conservative now
TRANSITION_CAP = 2 ** 19


@dataclass(frozen=True)
class TreeWord:
    letters: tuple  # tuple of digit tuples
    d: int
    n: int

    def __post_init__(self):
        for letter in self.letters:
            if len(letter) != self.n or any(not 0 <= c < self.d for c in letter):
                raise ValueError(f"letter {letter} outside alphabet")


def act_on_word(g: AffineElement, w: TreeWord) -> TreeWord:
    """u |-> w(u) + t mod d^k on the word's lattice vector u, in Python
    ints, so words of any length work."""
    if g.rank != w.n:
        raise ValueError("alphabet mismatch between element and word")
    u = [0] * w.n
    for letter in reversed(w.letters):
        u = [c * w.d + a for c, a in zip(u, letter)]
    v = affine_apply(g, u)
    return TreeWord(tuple(tuple(c // w.d ** i % w.d for c in v)
                          for i in range(len(w.letters))), w.d, w.n)


@dataclass
class Automaton:
    """Transition-closed automaton of an automorphism's reachable states: on
    the a-th letter (itertools.product order) state s writes images[s][a]
    and moves to state children[s][a]."""

    d: int
    n: int
    states: list      # AffineElement, BFS order from the generators
    images: list      # per state, its image letters (digit lists)
    children: list    # per state, its child state indices
    generators: list  # indices of the initial states


def reachable_states(gens, d: int, cap: int = TRANSITION_CAP) -> Automaton:
    """Close a set of affine elements under child-state formation.  Carries
    are bounded by the Weyl part, so the closure is finite.  Each state
    holds d^n transitions, and a state that would bring them past `cap`
    raises CapExceededError when it is visited, the generators first, so an
    oversized alphabet is refused before it is built.

    A state (t, w) takes every letter a at once: V = A C^T + t over the
    (d^n, n) int64 alphabet A, C the coroot matrix of w, so row a of V is
    w(a) + t.  The image letters are V mod d and the child translations
    the carries V // d; numpy floors both as Python does, negative values
    included.  Children are visited in alphabet order, breadth first."""
    if isinstance(gens, AffineElement):
        gens = [gens]
    n = gens[0].rank
    # a child's carry is smaller than its parent's translation once that
    # passes 2^62, so bounding the generators keeps every row inside int64
    if any(abs(c) >= 2 ** 62 for g in gens for c in g.t):
        raise ValueError("translation too large for the int64 closure")
    size = d ** n
    index = {}
    order = []
    queue = deque()

    def visit(g):
        if g not in index:
            if (len(order) + 1) * size > cap:
                raise CapExceededError(
                    f"automaton closure needs {(len(order) + 1) * size} "
                    f"transitions ({len(order) + 1} states x {size} "
                    f"letters), above cap {cap}")
            index[g] = len(order)
            order.append(g)
            queue.append(g)
        return index[g]

    gen_idx = [visit(g) for g in gens]
    alphabet = np.array(list(itertools.product(range(d), repeat=n)),
                        dtype=np.int64)
    images, children = [], []
    while queue:
        state = queue.popleft()
        v = (alphabet @ np.array(state.w.coroot_matrix, dtype=np.int64).T
             + np.array(state.t, dtype=np.int64))
        kids = {}  # carry -> child index; every child of a state shares w
        row = []
        for carry in map(tuple, (v // d).tolist()):
            if carry not in kids:
                kids[carry] = visit(AffineElement(carry, state.w))
            row.append(kids[carry])
        images.append((v % d).tolist())
        children.append(row)
    return Automaton(d, n, order, images, children, gen_idx)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_automaton(gens, d: int, fmt: str = "json") -> dict | str:
    """The reachable-state automaton of the given generators: for "json" a
    payload dict, for "text" finished text.

    JSON schema: {alphabet_size, d, n, states: [{t, w_matrix, w_coroot}],
    transitions: [[state, letter, image_letter, child_state]],
    generators: [state indices]}.  The text format adds one wreath-recursion
    line per state: "g3 = [image letters](children)", each image letter
    its digits with no separator, so it refuses d > 10 before the closure.
    """
    if fmt == "text" and d > 10:
        raise WeylchebError("flat digit words support d <= 10 only")
    aut = reachable_states(gens, d)
    if fmt == "json":
        letters = [list(a) for a in itertools.product(range(d), repeat=aut.n)]
        return {
            "alphabet_size": d ** aut.n,
            "d": d,
            "n": aut.n,
            "states": [{"t": list(s.t),
                        "w_matrix": [list(r) for r in s.w.weight_matrix],
                        "w_coroot": [list(r) for r in s.w.coroot_matrix]}
                       for s in aut.states],
            "transitions": [
                [si, letter, img, ci]
                for si, (imgs, kids) in enumerate(zip(aut.images,
                                                      aut.children))
                for letter, img, ci in zip(letters, imgs, kids)
            ],
            "generators": aut.generators,
        }
    if fmt == "text":
        lines = [f"alphabet: {d ** aut.n} letters ({aut.n} digits base {d})"]
        for si, s in enumerate(aut.states):
            lines.append(f"state g{si}: t={list(s.t)} w={[list(r) for r in s.w.weight_matrix]}")
        for si, (imgs, kids) in enumerate(zip(aut.images, aut.children)):
            words = " ".join("".join(map(str, img)) for img in imgs)
            states = ", ".join(f"g{ci}" for ci in kids)
            lines.append(f"g{si} = [{words}]({states})")
        lines.append("generators: " + ", ".join(f"g{i}" for i in aut.generators))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
