import math
import random

import numpy as np
import pytest

from lpnerve.analysis import (InterpolationReport, h1_generators,
                              interpolators, is_ultrametric, p_critical)
from lpnerve.homology import magnitude_homology
from lpnerve.values import INF, InputError
from lpnerve.vgraph import VGraph
from util import random_honest_space, random_ultrametric


def line3():
    return VGraph(["a", "b", "c"], np.array([
        [0.0, 1.0, 2.0],
        [1.0, 0.0, 1.0],
        [2.0, 1.0, 0.0],
    ]))


def test_is_ultrametric():
    U = random_ultrametric(random.Random(3), 6)
    assert is_ultrametric(U)
    assert not is_ultrametric(line3())  # additive but not max-triangle
    zero = VGraph(["a", "b"], np.zeros((2, 2)))
    assert not is_ultrametric(zero)  # not strict


def test_interpolators_line():
    X = line3()
    rep = interpolators(X, "a", "c", 1.0)
    assert rep.witnesses == ["b"]
    assert rep.feasible
    rep = interpolators(X, "a", "b", 1.0)
    assert not rep.feasible
    with pytest.raises(InputError):
        interpolators(X, "a", "a", 1.0)
    with pytest.warns(RuntimeWarning):
        interpolators(X, "a", "c", INF)


def test_interpolators_345():
    X = VGraph(["a", "b", "c"], np.array([
        [0.0, 5.0, 3.0],
        [5.0, 0.0, 4.0],
        [3.0, 4.0, 0.0],
    ]))
    assert not interpolators(X, "a", "b", 1.0).feasible
    assert not interpolators(X, "a", "b", 1.9).feasible
    assert interpolators(X, "a", "b", 2.0).witnesses == ["c"]
    assert interpolators(X, "a", "b", 3.0).feasible


def test_h1_generators_line():
    X = line3()
    assert h1_generators(X, 1.0, 1.0) == [
        ("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]
    assert h1_generators(X, 1.0, 2.0) == []


def test_h1_generators_match_homology_rank():
    rng = random.Random(5)
    for _ in range(6):
        X = random_honest_space(rng, 5)
        for p in (1.0, 2.0):
            rows = magnitude_homology(X, p, [1])
            for row in rows:
                if row.grade == 0.0:
                    continue
                gens = h1_generators(X, p, row.grade)
                assert row.rank == len(gens)
                assert row.torsion == ()


@pytest.mark.parametrize("lam", [1e-11, 1.0, 1e11])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_h1_generators_match_homology_rank_at_any_scale(p, lam):
    """Sides 3, 4 and 4.9 scaled by lam: the tolerance is on the distance,
    not on its p-th power, so the pairs at 4.9 * lam count the degree-1
    rank there at every scale (2 while 3^p + 4^p > 4.9^p, else 0)."""
    X = VGraph(["a", "b", "c"], lam * np.array([
        [0.0, 3.0, 4.9],
        [3.0, 0.0, 4.0],
        [4.9, 4.0, 0.0],
    ]))
    grade = 4.9 * lam
    [row] = [r for r in magnitude_homology(X, p, [1])
             if math.isclose(r.grade, grade, rel_tol=1e-9)]
    assert len(h1_generators(X, p, grade)) == row.rank == (0 if p == 3 else 2)


def test_h1_generators_input_checks():
    with pytest.raises(InputError):
        h1_generators(line3(), INF, 1.0)
    zero = VGraph(["a", "b"], np.zeros((2, 2)))
    with pytest.raises(InputError):
        h1_generators(zero, 1.0, 1.0)


def test_default_tolerance_is_relative():
    """Without an explicit eps the diagnostics compare distances relative
    to the largest one, so scaling a space changes none of their answers."""
    U = random_ultrametric(random.Random(3), 6)
    X = random_honest_space(random.Random(5), 5)
    for lam in (1e-9, 1e-11):
        assert is_ultrametric(VGraph(U.vertices, U.dist * lam))
        small = VGraph(X.vertices, X.dist * lam)
        for r in sorted(set(X.dist.flat) - {0.0}):
            assert h1_generators(small, 1.0, r * lam) == \
                h1_generators(X, 1.0, r)
        assert p_critical(small, "v0", "v1") == p_critical(X, "v0", "v1")


def test_p_critical_345():
    X = VGraph(["a", "b", "c"], np.array([
        [0.0, 5.0, 3.0],
        [5.0, 0.0, 4.0],
        [3.0, 4.0, 0.0],
    ]))
    assert p_critical(X, "a", "b") == pytest.approx(2.0, abs=1e-4)
    # the short sides have no interpolator at all
    assert p_critical(X, "a", "c") == INF
    assert p_critical(X, "c", "b") == INF


def test_p_critical_collinear():
    X = line3()
    assert p_critical(X, "a", "c") == 1.0
    assert p_critical(X, "a", "b") == INF


def test_p_critical_matches_feasibility_scan():
    """Bisection agrees with a dense scan over exponents."""
    rng = random.Random(7)
    for _ in range(5):
        X = random_honest_space(rng, 5)
        a, b = rng.sample(X.vertices, 2)
        D = X.d(a, b)
        pc = p_critical(X, a, b)
        for p in np.linspace(1.0, 8.0, 29):
            feasible = any(
                X.d(a, c) ** p + X.d(c, b) ** p <= D ** p + 1e-9
                for c in X.vertices if c not in (a, b)
            )
            if math.isinf(pc):
                assert not feasible
            elif p < pc - 1e-4:
                assert not feasible
            elif p > pc + 1e-4:
                assert feasible


def test_p_critical_below_the_float_spacing():
    """A tolerance below the float spacing at the root (about 4.4e-16
    near 2.41) ends where no float lies between the bisection's ends."""
    X = VGraph(["a", "b", "c"], np.array([
        [0.0, 1.5, 2.0],
        [1.5, 0.0, 1.5],
        [2.0, 1.5, 0.0],
    ]))
    want = p_critical(X, "a", "c", tol=1e-15)
    assert want == pytest.approx(2.4094, abs=1e-4)
    for tol in (1e-16, 1e-300, 5e-324):
        assert abs(p_critical(X, "a", "c", tol=tol) - want) <= 1e-12


def test_p_critical_input_checks():
    X = line3()
    with pytest.raises(InputError):
        p_critical(X, "a", "a")
    Y = VGraph.from_entries(["a", "b"], {})
    with pytest.raises(InputError):
        p_critical(Y, "a", "b")
    for tol in (math.nan, 0.0, -1.0):  # nan first: it cannot hang
        with pytest.raises(InputError):
            p_critical(X, "a", "c", tol=tol)


def test_interpolators_reject_overflowing_powers():
    X = VGraph(["a", "b", "c"], np.array([
        [0.0, 1e200, 1.0],
        [1e200, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ]))
    with pytest.raises(InputError):
        interpolators(X, "a", "b", 2.0)
    assert interpolators(X, "a", "b", 1.0).witnesses == ["c"]
