"""Every tolerance of the library is relative to the space it checks, so
rescaling a space by lambda rescales its grades and changes no answer."""

import random

import numpy as np
import pytest

from lpnerve.analysis import h1_generators, is_ultrametric
from lpnerve.automata import (Automaton, Transition, cost_primitive_pairs,
                              cost_space, strictify)
from lpnerve.homology import Bar, vr_oracle
from lpnerve.values import INF, InputError
from lpnerve.vgraph import (GraphMorphism, VGraph, check_morphism,
                            is_enriched_category, tolerance, validate)
from util import (random_honest_space, random_real_honest_space,
                  random_ultrametric, random_vgraph)

SCALES = (1e-12, 1e12)


def scaled(X: VGraph, lam: float) -> VGraph:
    return VGraph(list(X.vertices), X.dist * lam)


def near_ties():
    """Spaces with a relative gap of 1e-10 where each check turns."""
    return [
        # a triangle inequality broken by 5e-10
        VGraph(list("abc"), np.array([[0.0, 1.0, 2.0 + 5e-10],
                                      [1.0, 0.0, 1.0],
                                      [2.0, 1.0, 0.0]])),
        # asymmetric by 1e-10
        VGraph(list("ab"), np.array([[0.0, 1.0], [1.0 + 1e-10, 0.0]])),
        # a diagonal of 1e-10 and a distance of 1e-10
        VGraph(list("ab"), np.array([[1e-10, 1.0], [1e-10, 0.0]])),
    ]


def spaces():
    rng = random.Random(31)
    out = near_ties()
    for make in (random_honest_space, random_real_honest_space,
                 random_ultrametric, random_vgraph):
        out += [make(rng, n) for n in (3, 5)]
    return out


def outcome(fn, *args):
    """What ``fn`` returns, or the message of the ``InputError`` it raises."""
    try:
        return fn(*args)
    except InputError as exc:
        return ("InputError", str(exc))


def facts(X: VGraph):
    """The answer of every check on X that has no grade in it."""
    v = X.vertices
    collapse = {a: v[0] if a == v[1] else a for a in v}
    return {
        "strict": X.is_strict(),
        "symmetric": X.is_symmetric(),
        "violations": validate(X).violations,
        "enriched": [is_enriched_category(X, p) for p in (1.0, 2.0, INF)],
        "identity": check_morphism(GraphMorphism(X, X, dict(zip(v, v)))),
        "collapse": check_morphism(GraphMorphism(X, X, collapse)),
        "ultrametric": is_ultrametric(X),
    }


@pytest.mark.parametrize("lam", SCALES)
def test_checks_do_not_depend_on_scale(lam):
    for X in spaces():
        Y = scaled(X, lam)
        assert facts(Y) == facts(X)
        assert tolerance(Y) == pytest.approx(lam * tolerance(X), rel=1e-12)
        grades = sorted(set(X.dist[np.isfinite(X.dist)].tolist()) - {0.0})
        for p in (1.0, 2.0):
            for r in grades:
                assert outcome(h1_generators, Y, p, r * lam) == \
                    outcome(h1_generators, X, p, r)
        base = outcome(vr_oracle, X, 2)
        if isinstance(base, tuple):  # both refused, with the same message
            assert outcome(vr_oracle, Y, 2) == base
        else:  # the bars of Y are lam times those of X
            assert vr_oracle(Y, 2).bars == [
                Bar(b.degree, b.birth * lam, b.death * lam) for b in base.bars]


def test_near_ties_hold_at_every_scale():
    """The gaps of 1e-10 lie inside the default relative tolerance."""
    tri, asym, tiny = near_ties()
    for lam in (1.0,) + SCALES:
        assert scaled(tri, lam).is_strict()
        assert is_enriched_category(scaled(tri, lam), 1.0)
        assert scaled(asym, lam).is_symmetric()
        assert validate(scaled(tiny, lam)).ok
        # the identity of a and b stretches d(a, b) by 1e-10
        longer = VGraph(list("ab"), asym.dist.T)
        assert check_morphism(GraphMorphism(
            scaled(asym, lam), scaled(longer, lam), {"a": "a", "b": "b"}))


def zero_cost_automaton() -> Automaton:
    """u and v are joined both ways by the free letter e and collapse."""
    return Automaton(
        states=["u", "v", "w", "x"],
        alphabet={"e": 0.0, "a": 1.0, "b": 0.5},
        transitions=[
            Transition("u", "v", "e"), Transition("v", "u", "e"),
            Transition("v", "w", "a"), Transition("w", "x", "b"),
            Transition("u", "x", "aa"),
        ],
    )


@pytest.mark.parametrize("lam", SCALES)
def test_cost_spaces_do_not_depend_on_scale(lam):
    C = cost_space(zero_cost_automaton())
    S, proj = strictify(C)
    T, proj_T = strictify(scaled(C, lam))
    assert T.vertices == S.vertices == ["u", "w", "x"]
    assert proj_T.map == proj.map
    assert np.allclose(T.dist, S.dist * lam, rtol=1e-12)
    prims = cost_primitive_pairs(S)
    assert [(a, b) for a, b, _ in prims] == [("u", "w"), ("w", "x")]
    assert cost_primitive_pairs(T) == [(a, b, r * lam) for a, b, r in prims]
    with pytest.raises(InputError):  # u and v are still apart at cost 0
        cost_primitive_pairs(scaled(C, lam))


def test_cost_primitive_tolerance_is_that_of_the_strict_space():
    """``cost_primitive_pairs`` scales ``eps`` by the strictified space it
    receives.  Here strictify drops the largest cost, 10 from u to y, to
    9.5, so at eps = 0.1 the tolerance is 0.95 and not 1; c to e, 0.97
    cheaper than its composite through d, is cost-primitive."""
    A = Automaton(
        states=["u", "v", "y", "c", "d", "e"],
        alphabet={"z": 0.5, "a": 1.0, "t": 0.01},
        transitions=[
            Transition("u", "v", "z"), Transition("v", "u", "z"),
            Transition("v", "y", "a" * 9 + "z"),
            Transition("c", "d", "aaa"), Transition("d", "e", "aaa"),
            Transition("c", "e", "aaaaattt"),
        ],
    )
    C = cost_space(A)
    S, proj = strictify(C, 0.1)
    assert proj("v") == "u" and len(S) == 5
    assert tolerance(C, 0.1) == pytest.approx(1.0)
    assert tolerance(S, 0.1) == pytest.approx(0.95)
    pairs = [(a, b) for a, b, _ in cost_primitive_pairs(S, 0.1)]
    assert ("c", "e") in pairs
    # at C's tolerance, 1, the two costs of c to e would be one
    assert ("c", "e") not in [
        (a, b) for a, b, _ in cost_primitive_pairs(S, 1.0 / 9.5)]
