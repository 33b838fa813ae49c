"""Tree words, wreath recursion, automata, and the faithfulness sweep."""

import itertools
import random

import numpy as np
import pytest

from weylcheb.monodromy import (algebraic_action, perm_order,
                                standard_affine_generators, wreath_digit_step)
from weylcheb.rootsys import (
    affine_compose,
    affine_identity,
    translation_element,
)
from weylcheb.selfsim import (
    Automaton,
    TreeWord,
    act_on_word,
    export_automaton,
    reachable_states,
)

from root_oracles import (import_automaton, tree_word_from_vector,
                          tree_word_vector)


def word_of(digits, d=2, n=1):
    return TreeWord(tuple((c,) for c in digits), d, n)


# --- words and the basic action ----------------------------------------------------

def test_word_validation():
    with pytest.raises(ValueError):
        TreeWord(((2,),), 2, 1)
    with pytest.raises(ValueError):
        TreeWord(((0, 1),), 2, 1)


def test_identity_acts_trivially():
    g = affine_identity(2)
    w = TreeWord(((0, 1), (1, 1), (1, 0)), 2, 2)
    assert act_on_word(g, w) == w


def test_odometer_increments_with_carries():
    g = translation_element((1,))
    out = act_on_word(g, word_of([1, 1, 1]))
    assert out == word_of([0, 0, 0])
    # the final carry state is again the unit translation
    state = g
    from weylcheb.monodromy import wreath_digit_step
    for letter in ((1,), (1,), (1,)):
        _, state = wreath_digit_step(state, 2, letter)
    assert state == translation_element((1,))


def test_word_encoding_round_trip():
    rng = random.Random(50)
    for _ in range(50):
        d = rng.choice([2, 3])
        n = rng.choice([1, 2])
        k = rng.randint(1, 4)
        u = tuple(rng.randrange(d ** k) for _ in range(n))
        w = tree_word_from_vector(u, k, d)
        assert tree_word_vector(w) == u


@pytest.mark.parametrize("spec,d", [("A1", 2), ("A1", 3), ("A2", 2), ("B2", 2)])
def test_action_matches_lattice_action(spec, d, rs):
    # 200 random (element, word) pairs per system
    rsys = rs(spec)
    rng = random.Random(51)
    gens = [g for _, g in standard_affine_generators(rsys)]
    for _ in range(200):
        g = affine_identity(rsys.rank)
        for _ in range(rng.randint(1, 5)):
            g = affine_compose(g, rng.choice(gens))
        k = rng.randint(1, 3 if rsys.rank == 1 else 2)
        u = tuple(rng.randrange(d ** k) for _ in range(rsys.rank))
        w = tree_word_from_vector(u, k, d)
        out = act_on_word(g, w)
        act = algebraic_action(g, d, k)
        m = d ** k
        idx = 0
        for j in reversed(range(rsys.rank)):
            idx = idx * m + u[j]
        expected = act[idx]
        got = 0
        enc = tree_word_vector(out)
        for j in reversed(range(rsys.rank)):
            got = got * m + enc[j]
        assert got == expected


def test_renormalization_identity(rs):
    # g(first letter . rest) = (image letter) . (child state of g)(rest)
    rng = random.Random(52)
    for spec, d in (("A1", 2), ("A2", 2)):
        rsys = rs(spec)
        gens = [g for _, g in standard_affine_generators(rsys)]
        letters = list(itertools.product(range(d), repeat=rsys.rank))
        for _ in range(100):
            g = affine_compose(rng.choice(gens), rng.choice(gens))
            first = rng.choice(letters)
            rest = TreeWord(tuple(rng.choice(letters) for _ in range(3)), d, rsys.rank)
            whole = TreeWord((first,) + rest.letters, d, rsys.rank)
            out = act_on_word(g, whole)
            img, state = wreath_digit_step(g, d, first)
            tail = act_on_word(state, rest)
            assert out.letters == (img,) + tail.letters


def test_action_homomorphism(rs):
    rng = random.Random(53)
    for spec, d in (("A1", 2), ("A2", 2), ("B2", 2)):
        rsys = rs(spec)
        gens = [g for _, g in standard_affine_generators(rsys)]
        letters = list(itertools.product(range(d), repeat=rsys.rank))
        for _ in range(200):
            g1, g2 = rng.choice(gens), rng.choice(gens)
            w = TreeWord(tuple(rng.choice(letters) for _ in range(4)), d, rsys.rank)
            lhs = act_on_word(affine_compose(g1, g2), w)
            rhs = act_on_word(g1, act_on_word(g2, w))
            assert lhs == rhs


# --- automata ------------------------------------------------------------------------

def test_identity_automaton_single_state():
    aut = reachable_states(affine_identity(1), 2)
    assert len(aut.states) == 1


def test_adding_machine_two_states():
    aut = reachable_states(translation_element((1,)), 2)
    assert len(aut.states) == 2
    assert set(aut.states) == {translation_element((1,)), affine_identity(1)}


@pytest.mark.parametrize("spec,d", [("A1", 2), ("A1", 3), ("A2", 2), ("B2", 2)])
def test_generators_have_finite_automata(spec, d, rs):
    rsys = rs(spec)
    for _, g in standard_affine_generators(rsys):
        aut = reachable_states(g, d)
        again = reachable_states(g, d)
        assert 1 <= len(aut.states) <= 50
        assert aut.states == again.states  # stable across runs


# --- levelwise separation --------------------------------------------------------------

def test_equal_up_to_level_examples():
    # two elements agree on the words of length <= k when their level-k
    # actions agree: t^1 and t^3 agree mod 2 and differ mod 4
    def agree(g1, g2, level):
        return np.array_equal(algebraic_action(g1, 2, level),
                              algebraic_action(g2, 2, level))
    g1 = translation_element((1,))
    g3 = translation_element((3,))
    assert agree(g1, g1, 4)
    assert agree(g1, g3, 1)
    assert not agree(g1, g3, 2)


def test_order_on_level_examples():
    def order(g, level):
        return perm_order(algebraic_action(g, 2, level))
    assert order(affine_identity(1), 3) == 1
    t = translation_element((1,))
    assert [order(t, k) for k in (1, 2, 3)] == [2, 4, 8]


@pytest.mark.parametrize("spec,d", [("A1", 2), ("A1", 3), ("A2", 2), ("B2", 2)])
def test_faithfulness_sweep(spec, d, rs):
    # distinct words of length <= 5 in the affine generators give distinct
    # elements separated by level <= 5
    rsys = rs(spec)
    gens = [g for _, g in standard_affine_generators(rsys)]
    elements = {affine_identity(rsys.rank)}
    frontier = [affine_identity(rsys.rank)]
    for _ in range(5):
        nxt = []
        for g in frontier:
            for s in gens:
                h = affine_compose(g, s)
                if h not in elements:
                    elements.add(h)
                    nxt.append(h)
        frontier = nxt
    level = 5 if rsys.rank == 1 else 3
    seen = {}
    for g in elements:
        act = tuple(algebraic_action(g, d, level).tolist())
        assert act not in seen, (g, seen[act])
        seen[act] = g


# --- export / import ---------------------------------------------------------------------

def test_export_identity_automaton():
    text = export_automaton(affine_identity(1), 2)
    aut = import_automaton(text)
    assert len(aut.states) == 1
    assert aut.transitions[(0, (0,))] == ((0,), 0)


def test_a1_generator_automaton_size(rs):
    a1 = rs("A1")
    gens = [g for _, g in standard_affine_generators(a1)]
    aut = reachable_states(gens, 2)
    assert 3 <= len(aut.states) <= 4


def test_export_round_trip(rs):
    a2 = rs("A2")
    gens = [g for _, g in standard_affine_generators(a2)]
    text = export_automaton(gens, 2)
    aut = import_automaton(text)
    direct = reachable_states(gens, 2)
    assert aut.states == direct.states
    assert aut.transitions == direct.transitions
    assert aut.generators == direct.generators
    assert export_automaton(gens, 2) == text  # deterministic bytes


def test_export_text_format(rs):
    text = export_automaton(translation_element((1,)), 2, fmt="text")
    assert "g0 = " in text and "generators:" in text
