import itertools
import math
import random

import numpy as np
import pytest

from lpnerve.io import vgraph_from_csv, vgraph_from_json
from lpnerve.values import INF, InputError
from lpnerve.vgraph import (GraphMorphism, VGraph, asymmetrize, check_morphism,
                            coequalizer, coproduct, delta_path, equalizer,
                            free_category, gamma_path, is_enriched_category,
                            product, validate)
from util import graphs_equal, morphisms, random_honest_space, random_vgraph


def two_points(d_ab=1.0, d_ba=1.0):
    return VGraph(["a", "b"], np.array([[0.0, d_ab], [d_ba, 0.0]]))


def test_vgraph_basics():
    X = two_points(1.0, 2.0)
    assert len(X) == 2
    assert X.d("a", "b") == 1.0
    assert X.d("b", "a") == 2.0
    assert not X.is_symmetric()
    assert X.is_strict()
    with pytest.raises(InputError):
        X.d("a", "zz")
    with pytest.raises(InputError):
        VGraph(["a", "a"], np.zeros((2, 2)))
    with pytest.raises(InputError):
        VGraph(["a"], np.zeros((2, 2)))


def test_negative_zero_is_the_distance_zero():
    """-0.0, from a direct matrix, a JSON entry or a CSV cell, is stored
    as +0.0; the caller's array is not changed."""
    dist = np.array([[0.0, -0.0], [-0.0, -0.0]])
    X = VGraph(["a", "b"], dist)
    assert not np.signbit(X.dist).any()
    assert np.signbit(dist).sum() == 3
    for Y in (vgraph_from_csv("a,b\n0,-0\n-0,0\n"), vgraph_from_json(
            {"vertices": ["a", "b"], "default": -0.0, "edges": [
                {"from": "a", "to": "b", "dist": "-0"}]})):
        assert not np.signbit(Y.dist).any()


def test_from_entries_and_validate():
    X = VGraph.from_entries(["a", "b", "c"], {("a", "b"): 1.0}, default=INF)
    assert X.d("a", "b") == 1.0
    assert X.d("b", "a") == INF
    assert X.d("a", "a") == 0.0
    assert validate(X).ok

    bad = VGraph(["a", "b"], np.array([[0.5, 1.0], [1.0, 0.0]]))
    report = validate(bad)
    assert not report.ok
    assert "diagonal" in report.violations[0]


def test_validate_reports_in_order():
    """Diagonal violations first, then missing and negative entries in
    row-major order; a NaN on the diagonal is both a nonzero diagonal and
    a missing entry."""
    nan = float("nan")
    X = VGraph(["a", "b", "c"], np.array([[0.0, -1.0, nan],
                                         [0.5, nan, 1.0],
                                         [nan, 2.0, 3.0]]))
    assert validate(X).violations == [
        "nonzero diagonal at b", "nonzero diagonal at c",
        "negative entry at (a, b)", "missing entry at (a, c)",
        "missing entry at (b, b)", "missing entry at (c, a)"]
    # entries within eps times the largest distance, 1, are no violation
    assert validate(VGraph(["a", "b"], np.array([[1e-10, -1e-10],
                                                 [1.0, 0.0]]))).ok


def test_check_morphism():
    X = two_points(2.0, 2.0)
    Y = two_points(1.0, 1.0)
    shrink = GraphMorphism(X, Y, {"a": "a", "b": "b"})
    assert check_morphism(shrink)
    grow = GraphMorphism(Y, X, {"a": "a", "b": "b"})
    assert not check_morphism(grow)
    collapse = GraphMorphism(Y, X, {"a": "a", "b": "a"})
    assert check_morphism(collapse)


def test_is_enriched_category():
    chain = VGraph(["a", "b", "c"], np.array([
        [0.0, 1.0, 2.0],
        [1.0, 0.0, 1.0],
        [2.0, 1.0, 0.0],
    ]))
    assert is_enriched_category(chain, 1.0)
    assert not is_enriched_category(chain, 2.0)  # 2 > sqrt(2)
    assert not is_enriched_category(chain, INF)


def test_345_triangle_is_tight_at_p2():
    tri = VGraph(["a", "b", "c"], np.array([
        [0.0, 3.0, 5.0],
        [3.0, 0.0, 4.0],
        [5.0, 4.0, 0.0],
    ]))
    assert is_enriched_category(tri, 1.0)
    assert is_enriched_category(tri, 2.0)  # 5 = (9+16)^(1/2) exactly
    assert not is_enriched_category(tri, 3.0)
    assert not is_enriched_category(tri, INF)


def test_gamma_and_delta_paths():
    g = gamma_path([1.0, 2.0])
    assert g.vertices == ["x0", "x1", "x2"]
    assert g.d("x0", "x1") == 1.0
    assert g.d("x1", "x2") == 2.0
    assert g.d("x0", "x2") == INF
    assert g.d("x2", "x0") == INF

    d1 = delta_path([1.0, 2.0], 1.0)
    assert d1.d("x0", "x2") == 3.0
    d2 = delta_path([3.0, 4.0], 2.0)
    assert d2.d("x0", "x2") == pytest.approx(5.0)
    dm = delta_path([1.0, 2.0], INF)
    assert dm.d("x0", "x2") == 2.0
    assert is_enriched_category(d1, 1.0)
    assert is_enriched_category(dm, INF)


def test_free_category_examples():
    g = gamma_path([1.0, 2.0])
    assert graphs_equal(free_category(g, 1.0), delta_path([1.0, 2.0], 1.0))
    assert graphs_equal(free_category(g, INF), delta_path([1.0, 2.0], INF))
    # closure picks the cheaper of direct edge vs path
    X = VGraph(["a", "b", "c"], np.array([
        [0.0, 1.0, 5.0],
        [INF, 0.0, 1.0],
        [INF, INF, 0.0],
    ]))
    C = free_category(X, 1.0)
    assert C.d("a", "c") == 2.0
    assert C.d("c", "a") == INF


def test_free_category_laws_random():
    rng = random.Random(7)
    for _ in range(30):
        X = random_vgraph(rng, rng.randint(1, 5))
        for p in (1.0, 1.7, 2.0, INF):
            C = free_category(X, p)
            assert graphs_equal(free_category(C, p), C)  # idempotent
            assert np.all((C.dist <= X.dist + 1e-9) | np.isinf(X.dist))
            assert is_enriched_category(C, p, eps=1e-6)
            # fixes X exactly when X already satisfies the inequality
            assert graphs_equal(C, X, 1e-6) == is_enriched_category(X, p, 1e-6)


def test_free_category_monotone_in_p():
    rng = random.Random(11)
    for _ in range(20):
        X = random_vgraph(rng, 4)
        c1 = free_category(X, 1.0)
        c2 = free_category(X, 2.0)
        cm = free_category(X, INF)
        for ps in ((c1, c2), (c2, cm)):
            lo, hi = ps
            assert np.all((hi.dist <= lo.dist + 1e-9) | np.isinf(lo.dist))


def test_lifting_characterization():
    """A tuple's tight path graph lifts to the closed path graph exactly
    when the space satisfies the +_p triangle inequality."""
    rng = random.Random(13)
    for _ in range(15):
        X = random_vgraph(rng, 3, alphabet=(0.5, 1.0, 2.0, INF))
        for p in (1.0, 2.0, INF):
            lifts = True
            for tup in itertools.product(X.vertices, repeat=3):
                rs = [X.d(tup[i], tup[i + 1]) for i in range(2)]
                gam = gamma_path(rs)
                vmap = {f"x{i}": tup[i] for i in range(3)}
                assert check_morphism(GraphMorphism(gam, X, vmap))
                if not check_morphism(GraphMorphism(delta_path(rs, p), X, vmap)):
                    lifts = False
            assert lifts == is_enriched_category(X, p)


def test_reflection_factorization():
    """Morphisms into a +_p category factor through the path closure."""
    rng = random.Random(17)
    targets = [free_category(random_vgraph(rng, 2, (0.0, 1.0, INF)), 1.0)
               for _ in range(6)]
    for _ in range(10):
        X = random_vgraph(rng, 3, (0.0, 1.0, 2.0, INF))
        C = free_category(X, 1.0)
        for A in targets:
            for f in morphisms(X, A):
                assert check_morphism(GraphMorphism(C, A, dict(f.map)))


def test_product():
    X = two_points(1.0, 2.0)
    Y = two_points(3.0, 3.0)
    P = product([X, Y])
    assert P.vertices == ["(a,a)", "(a,b)", "(b,a)", "(b,b)"]
    assert P.d("(a,a)", "(b,b)") == 3.0
    assert P.d("(a,a)", "(b,a)") == 1.0
    assert P.d("(b,a)", "(a,a)") == 2.0
    assert P.d("(a,a)", "(a,b)") == 3.0
    # empty product is the terminal point
    T = product([])
    assert len(T) == 1


def test_coproduct():
    X = two_points(1.0, 1.0)
    Y = VGraph.point("c")
    C = coproduct([X, Y])
    assert C.vertices == ["0:a", "0:b", "1:c"]
    assert C.d("0:a", "0:b") == 1.0
    assert C.d("0:a", "1:c") == INF
    assert C.d("1:c", "0:b") == INF
    single = coproduct([X])
    assert single.vertices == ["a", "b"]
    empty = coproduct([])
    assert len(empty) == 0


def test_equalizer():
    X = two_points(1.0, 1.0)
    Y = two_points(1.0, 1.0)
    f = GraphMorphism(X, Y, {"a": "a", "b": "b"})
    g = GraphMorphism(X, Y, {"a": "a", "b": "a"})
    E, incl = equalizer(f, g)
    assert E.vertices == ["a"]
    assert check_morphism(incl)


def test_coequalizer():
    Y = VGraph(["u", "v", "w"], np.array([
        [0.0, 1.0, 4.0],
        [1.0, 0.0, 2.0],
        [4.0, 2.0, 0.0],
    ]))
    P = VGraph.point("t")
    f = GraphMorphism(P, Y, {"t": "u"})
    g = GraphMorphism(P, Y, {"t": "v"})
    Q, proj = coequalizer(f, g)
    assert Q.vertices == ["u", "w"]
    assert proj("v") == "u"
    assert Q.d("u", "w") == 2.0  # infimum over the class {u, v}
    assert check_morphism(proj)


def test_asymmetrize():
    X = random_honest_space(random.Random(3), 4)
    A = asymmetrize(X)
    for i, a in enumerate(X.vertices):
        for j, b in enumerate(X.vertices):
            if i < j:
                assert A.d(a, b) == X.d(a, b)
            elif i > j:
                assert A.d(a, b) == INF
    with pytest.raises(InputError):
        asymmetrize(two_points(1.0, 2.0))
    with pytest.raises(InputError):
        asymmetrize(X, order=["v0", "v1"])


@pytest.mark.parametrize("scale", [1e-11, 1.0, 1e12])
def test_asymmetrize_checks_symmetry_relative_to_the_scale(scale):
    """A rounding of 1e-13 relative to the distances is symmetric and a
    ratio of 1.5 is not, whatever the scale."""
    near = two_points(scale, scale * (1 + 1e-13))
    assert near.d("a", "b") != near.d("b", "a")
    assert asymmetrize(near).d("a", "b") == scale
    with pytest.raises(InputError, match="requires a symmetric space"):
        asymmetrize(two_points(scale, 1.5 * scale))
