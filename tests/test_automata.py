import math
import random

import numpy as np
import pytest

from lpnerve.analysis import h1_generators
from lpnerve.automata import (Automaton, Transition, cost_primitive_pairs,
                              cost_space, strictify, word_cost)
from lpnerve.values import INF, InputError
from lpnerve.vgraph import VGraph, is_enriched_category


def three_state():
    """s0 -a-> s1 -b-> s2, plus a direct cheap word s0 -g-> s2."""
    return Automaton(
        states=["s0", "s1", "s2"],
        alphabet={"a": 1.0, "b": 2.0, "g": 2.5},
        transitions=[
            Transition("s0", "s1", "a"),
            Transition("s1", "s2", "b"),
            Transition("s0", "s2", "g"),
        ],
    )


def test_automaton_validation():
    with pytest.raises(InputError):
        Automaton(["s", "s"], {"a": 1.0}, [])
    with pytest.raises(InputError):
        Automaton(["s"], {"ab": 1.0}, [])
    with pytest.raises(InputError):
        Automaton(["s"], {"a": -1.0}, [])
    with pytest.raises(InputError):
        Automaton(["s"], {"a": 1.0}, [Transition("s", "t", "a")])
    with pytest.raises(InputError):
        Automaton(["s"], {"a": 1.0}, [Transition("s", "s", "")])
    with pytest.raises(InputError):
        Automaton(["s"], {"a": 1.0}, [Transition("s", "s", "ax")])
    with pytest.warns(RuntimeWarning, match="letter 'b'"):
        Automaton(["s"], {"a": 1.0, "b": 1.0 / 3.0}, [])


def test_word_cost():
    alphabet = {"a": 1.0, "b": 2.5}
    assert word_cost("", alphabet) == 0.0
    assert word_cost("aab", alphabet) == 4.5
    with pytest.raises(InputError):
        word_cost("az", alphabet)


def test_cost_space_three_state():
    C = cost_space(three_state())
    assert C.vertices == ["s0", "s1", "s2"]
    assert C.d("s0", "s1") == 1.0
    assert C.d("s1", "s2") == 2.0
    assert C.d("s0", "s2") == 2.5  # the direct word beats a+b = 3
    assert C.d("s2", "s0") == INF
    assert C.d("s1", "s0") == INF
    assert is_enriched_category(C, 1.0)


def test_cost_space_prefers_multi_step_path():
    A = Automaton(
        states=["x", "y", "z"],
        alphabet={"a": 1.0, "c": 5.0},
        transitions=[
            Transition("x", "y", "a"),
            Transition("y", "z", "a"),
            Transition("x", "z", "c"),
        ],
    )
    C = cost_space(A)
    assert C.d("x", "z") == 2.0


def test_cost_primitive_pairs_three_state():
    C = cost_space(three_state())
    prims = cost_primitive_pairs(C)
    assert set(prims) == {
        ("s0", "s1", 1.0), ("s1", "s2", 2.0), ("s0", "s2", 2.5)}

    # make the direct transition exactly the composite cost: no longer primitive
    A = three_state()
    A.alphabet["g"] = 3.0
    C = cost_space(A)
    prims = cost_primitive_pairs(C)
    assert set(prims) == {("s0", "s1", 1.0), ("s1", "s2", 2.0)}


def test_cost_primitive_requires_strict():
    C = VGraph(["a", "b"], np.zeros((2, 2)))
    with pytest.raises(InputError):
        cost_primitive_pairs(C)


def test_strictify_noop():
    C = cost_space(three_state())
    S, proj = strictify(C)
    assert S.vertices == C.vertices
    assert np.array_equal(S.dist, C.dist)
    assert all(proj(v) == v for v in C.vertices)


def test_strictify_collapses_zero_cycles():
    A = Automaton(
        states=["u", "v", "w"],
        alphabet={"e": 0.0, "a": 1.0},
        transitions=[
            Transition("u", "v", "e"),
            Transition("v", "u", "e"),
            Transition("v", "w", "a"),
        ],
    )
    C = cost_space(A)
    assert not C.is_strict()
    S, proj = strictify(C)
    assert S.vertices == ["u", "w"]
    assert proj("v") == "u"
    assert S.d("u", "w") == 1.0
    assert S.is_strict()
    assert is_enriched_category(S, 1.0)


def test_strictify_default_tolerance_is_relative():
    """Scaled costs are still told apart from zero: nothing collapses and
    the cost-primitive pairs keep their (scaled) grades."""
    C = cost_space(three_state())
    for lam in (1e-9, 1e-11):
        S, proj = strictify(VGraph(C.vertices, C.dist * lam))
        assert S.vertices == C.vertices
        assert cost_primitive_pairs(S) == [
            (a, b, r * lam) for a, b, r in cost_primitive_pairs(C)]


def test_primitive_pairs_are_h1_generators():
    """Cost-primitive pairs coincide with the degree-1 generator pairs of
    the localized homology of the strict cost space."""
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randint(2, 5)
        states = [f"s{i}" for i in range(n)]
        alphabet = {"a": 1.0, "b": 1.5, "c": 2.0}
        transitions = [
            Transition(rng.choice(states), rng.choice(states),
                       "".join(rng.choice("abc")
                               for _ in range(rng.randint(1, 2))))
            for _ in range(rng.randint(1, 8))
        ]
        A = Automaton(states, alphabet, transitions)
        S, _ = strictify(cost_space(A))
        prims = cost_primitive_pairs(S)
        grades = sorted({r for (_, _, r) in prims})
        for r in grades:
            at_grade = {(a, b) for (a, b, g) in prims if g == r}
            assert at_grade == set(h1_generators(S, 1.0, r))
