"""Self-similar actions of affine Weyl elements on the d^n-ary tree.

Vertices at depth m are words of m letters, each letter a vector of n base-d
digits; a word is read least-significant-letter first, so depth-m words
encode lattice vectors mod d^m.  An element acts letter by letter through the
carry recursion of `wreath_digit_step`: translations become odometers (adding
machines with carries) and the whole action matches `algebraic_action` on
encoded words exactly.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import CapExceededError
from .monodromy import wreath_digit_step
from .rootsys import AffineElement

STATE_CAP = 10 ** 4


@dataclass(frozen=True)
class TreeWord:
    letters: tuple  # tuple of digit tuples
    d: int
    n: int

    def __post_init__(self):
        for letter in self.letters:
            if len(letter) != self.n or any(not 0 <= c < self.d for c in letter):
                raise ValueError(f"letter {letter} outside alphabet")

    def encode(self) -> tuple:
        """The lattice vector mod d^len represented by the word."""
        out = [0] * self.n
        for pos, letter in enumerate(self.letters):
            for j, c in enumerate(letter):
                out[j] += c * self.d ** pos
        return tuple(out)


def act_on_word(g: AffineElement, w: TreeWord) -> TreeWord:
    """Apply g letter by letter, threading carries."""
    if g.rank != w.n:
        raise ValueError("alphabet mismatch between element and word")
    out = []
    for letter in w.letters:
        img, g = wreath_digit_step(g, w.d, letter)
        out.append(img)
    return TreeWord(tuple(out), w.d, w.n)


@dataclass
class Automaton:
    """Transition-closed automaton of an automorphism's reachable states."""

    d: int
    n: int
    states: list       # AffineElement, BFS order from the generators
    transitions: dict  # (state index, letter) -> (image letter, state index)
    generators: list   # indices of the initial states


def reachable_states(gens, d: int, cap: int = STATE_CAP) -> Automaton:
    """Close a set of affine elements under child-state formation.  Carries
    are bounded by the Weyl part, so the closure is finite; the cap only
    guards against model bugs."""
    if isinstance(gens, AffineElement):
        gens = [gens]
    n = gens[0].rank
    index = {}
    order = []
    queue = []
    for g in gens:
        if g not in index:
            index[g] = len(order)
            order.append(g)
            queue.append(g)
    letters = list(itertools.product(range(d), repeat=n))
    transitions = {}
    while queue:
        state = queue.pop(0)
        si = index[state]
        for letter in letters:
            img, nxt = wreath_digit_step(state, d, letter)
            if nxt not in index:
                if len(order) >= cap:
                    raise CapExceededError(
                        f"automaton closure exceeded {cap} states")
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            transitions[(si, letter)] = (img, index[nxt])
    gen_idx = [index[g] for g in gens]
    return Automaton(d, n, order, transitions, gen_idx)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_automaton(gens, d: int, fmt: str = "json") -> str:
    """Serialize the reachable-state automaton of the given generators.

    JSON schema: {alphabet_size, d, n, states: [{t, w_matrix}],
    transitions: [[state, letter, image_letter, child_state]],
    generators: [state indices]}.  The text format adds one wreath-recursion
    line per state: "g3 = [image letters](children)".
    """
    aut = reachable_states(gens, d)
    letters = sorted({k[1] for k in aut.transitions})
    if fmt == "json":
        payload = {
            "alphabet_size": d ** aut.n,
            "d": d,
            "n": aut.n,
            "states": [{"t": list(s.t),
                        "w_matrix": [list(r) for r in s.w.weight_matrix],
                        "w_coroot": [list(r) for r in s.w.coroot_matrix]}
                       for s in aut.states],
            "transitions": [
                [si, list(letter), list(aut.transitions[(si, letter)][0]),
                 aut.transitions[(si, letter)][1]]
                for si in range(len(aut.states)) for letter in letters
            ],
            "generators": aut.generators,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "text":
        lines = [f"alphabet: {d ** aut.n} letters ({aut.n} digits base {d})"]
        for si, s in enumerate(aut.states):
            lines.append(f"state g{si}: t={list(s.t)} w={[list(r) for r in s.w.weight_matrix]}")
        for si in range(len(aut.states)):
            imgs = []
            kids = []
            for letter in letters:
                img, ci = aut.transitions[(si, letter)]
                imgs.append("".join(map(str, img)))
                kids.append(f"g{ci}")
            lines.append(f"g{si} = [{' '.join(imgs)}]({', '.join(kids)})")
        lines.append("generators: " + ", ".join(f"g{i}" for i in aut.generators))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
