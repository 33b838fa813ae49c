"""Tree words, wreath recursion, automata, and the faithfulness sweep."""

import contextlib
import hashlib
import io
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from weylcheb import cli
from weylcheb.errors import CapExceededError
from weylcheb.monodromy import algebraic_action, standard_affine_generators
from weylcheb.rootsys import (
    affine_compose,
    affine_identity,
    translation_element,
)
from weylcheb.selfsim import (
    TRANSITION_CAP,
    TreeWord,
    act_on_word,
    export_automaton,
    reachable_states,
)

from root_oracles import (act_on_word_by_letter, import_automaton,
                          perm_order, reachable_states_by_letter,
                          tree_word_from_vector, tree_word_vector,
                          wreath_digit_step)


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
    # g(first letter . rest) = (image letter) . (child state of g)(rest):
    # act_on_word's lattice map against one digit of the wreath recursion
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


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2", "B3xA1"])
def test_action_matches_per_letter_oracle(spec, d, rs):
    # every standard generator, on words of 70 letters too, whose lattice
    # vectors pass 2^63: the top letter is all d - 1
    rsys = rs(spec)
    rng = random.Random(54)
    letters = list(itertools.product(range(d), repeat=rsys.rank))
    for _, g in standard_affine_generators(rsys):
        for length in (1, 2, 5, 70):
            body = tuple(rng.choice(letters) for _ in range(length - 1))
            w = TreeWord(body + (letters[-1],), d, rsys.rank)
            assert act_on_word(g, w) == act_on_word_by_letter(g, w)
    assert min(tree_word_vector(w)) >= 2 ** 63


@pytest.mark.parametrize("d", [2, 3, 5])
def test_action_with_negative_carries_matches_per_letter_oracle(d):
    g = translation_element((-3, 2))
    rng = random.Random(55)
    letters = list(itertools.product(range(d), repeat=2))
    for length in (1, 3, 70):
        w = TreeWord(tuple(rng.choice(letters) for _ in range(length)), d, 2)
        assert act_on_word(g, w) == act_on_word_by_letter(g, w)
    # the zero vector goes to (-3, 2) mod d^70, past 2^63
    zero = TreeWord(((0, 0),) * 70, d, 2)
    assert tree_word_vector(act_on_word(g, zero)) == (d ** 70 - 3, 2)


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


def closure_matching_oracle(gens, d):
    """The closure, after checking that the per-letter carry recursion gives
    the same states, image and child rows and generator indices, in the
    same order."""
    aut = reachable_states(gens, d)
    oracle = reachable_states_by_letter(gens, d)
    assert aut.states == oracle.states
    assert aut.images == oracle.images
    assert aut.children == oracle.children
    assert aut.generators == oracle.generators
    return aut


@pytest.mark.parametrize("spec,d", [
    ("A1", 2), ("A1", 3), ("A2", 2), ("B2", 3), ("G2", 3), ("A3", 4),
    ("C3", 3), ("F4", 2), ("B3xA1", 2), ("E6", 2)])
def test_closure_matches_per_letter_oracle(spec, d, rs):
    closure_matching_oracle(
        [g for _, g in standard_affine_generators(rs(spec))], d)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_closure_floors_negative_carries(d):
    aut = closure_matching_oracle(translation_element((-3, 2)), d)
    assert any(c < 0 for s in aut.states for c in s.t)


def test_state_cap_can_fail(rs):
    # the cap counts transitions, d^n = 9 per state: k states need 9 k
    gens = [g for _, g in standard_affine_generators(rs("B2"))]
    k = len(reachable_states(gens, 3).states)
    with pytest.raises(CapExceededError,
                       match=fr"needs {9 * k} transitions \({k} states x 9 "
                             fr"letters\), above cap {9 * k - 1}"):
        reachable_states(gens, 3, cap=9 * k - 1)
    assert len(reachable_states(gens, 3, cap=9 * k).states) == k


def test_oversized_automaton_is_refused_before_any_closure_work(capsys):
    # A3 100 has 10^6 letters: its first generator alone passes the cap, so
    # the verb exits 2 before the (10^6, 3) int64 alphabet (24 MB) is built
    tracemalloc.start()
    try:
        assert cli.main(["automaton", "A3", "100"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    err = capsys.readouterr().err
    assert ("needs 1000000 transitions (1 states x 1000000 letters), "
            f"above cap {TRANSITION_CAP}") in err


def test_closure_refuses_translations_beyond_int64():
    # a translation near 2^63 would wrap in the int64 rows
    with pytest.raises(ValueError, match="int64"):
        reachable_states(translation_element((2 ** 63 - 2,)), 2)
    closure_matching_oracle(translation_element((2 ** 62 - 1,)), 2)


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
    text = cli.json_text(export_automaton(affine_identity(1), 2))
    aut = import_automaton(text)
    assert len(aut.states) == 1
    assert (aut.images[0][0], aut.children[0][0]) == ([0], 0)


def test_a1_generator_automaton_size(rs):
    a1 = rs("A1")
    gens = [g for _, g in standard_affine_generators(a1)]
    aut = reachable_states(gens, 2)
    assert 3 <= len(aut.states) <= 4


def test_export_round_trip(rs):
    a2 = rs("A2")
    gens = [g for _, g in standard_affine_generators(a2)]
    text = cli.json_text(export_automaton(gens, 2))
    aut = import_automaton(text)
    direct = reachable_states(gens, 2)
    assert aut.states == direct.states
    assert aut.images == direct.images
    assert aut.children == direct.children
    assert aut.generators == direct.generators
    assert cli.json_text(export_automaton(gens, 2)) == text  # deterministic bytes


def test_export_text_format(rs):
    text = export_automaton(translation_element((1,)), 2, fmt="text")
    assert "g0 = " in text and "generators:" in text


# SHA-256 of `weylcheb automaton <type> <d> --format text`, recorded when each
# state's children were still found one wreath-recursion digit at a time
TEXT_DIGESTS = {
    ("B2", "3"):
        "003c2bcc28f3fa29eeb46f431093d80eb94d5be45640ca15ffe6e4c7e469661d",
    ("A2", "2"):
        "75b2265328def315bf645a0650133593b4aac4a5cb9aeb4abf2e455df3a463f8",
}


@pytest.mark.parametrize("spec,d", sorted(TEXT_DIGESTS))
def test_text_export_bytes_are_pinned(spec, d):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["automaton", spec, d, "--format", "text"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        TEXT_DIGESTS[(spec, d)]
