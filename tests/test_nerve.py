import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpnerve import kernels
from lpnerve.kernels import _reduction_py
from lpnerve.nerve import enumerate_complex, grade_clusters, membership_scale
from lpnerve.values import (INF, BudgetExceededError, InputError, close,
                            python_power)
from lpnerve.vgraph import VGraph, asymmetrize, free_category
from util import (dense_face_table, is_degenerate, levels, lexsorted_complex,
                  membership_scale_category, random_honest_space,
                  random_l1_space, random_vgraph, search, sigma_oracle,
                  spaces)


def test_is_degenerate():
    assert is_degenerate(("a", "a"))
    assert is_degenerate(("a", "b", "b"))
    assert not is_degenerate(("a", "b", "a"))


def test_membership_singleton():
    X = VGraph.point()
    assert membership_scale(X, ["x"], 1.0) == 0.0
    assert membership_scale(X, ["x"], INF) == 0.0


def test_membership_additive_category():
    X = free_category(VGraph(["a", "b", "c"], np.array([
        [0.0, 1.0, 2.0],
        [1.0, 0.0, 1.0],
        [2.0, 1.0, 0.0],
    ])), 1.0)
    # on a +_1 category the birth is the sum of consecutive hops
    assert membership_scale(X, ["a", "b", "c"], 1.0) == pytest.approx(2.0)
    assert membership_scale(X, ["a", "c"], 1.0) == pytest.approx(2.0)
    assert membership_scale(X, ["a", "b", "a", "b"], 1.0) == pytest.approx(3.0)
    assert membership_scale(X, ["a", "b", "c"], 1.0) == pytest.approx(
        membership_scale_category(X, ["a", "b", "c"], 1.0))


def test_membership_max_is_diameter():
    X = random_honest_space(random.Random(1), 5)
    for tup in [("v0", "v1", "v2"), ("v3", "v1", "v4", "v0")]:
        expected = max(
            X.d(tup[i], tup[j])
            for i in range(len(tup)) for j in range(i + 1, len(tup))
        )
        assert membership_scale(X, tup, INF) == pytest.approx(expected)


def test_membership_without_triangle_inequality():
    # the long forward distance dominates both hops
    X = VGraph(["a", "b", "c"], np.array([
        [0.0, 1.0, 5.0],
        [1.0, 0.0, 1.0],
        [5.0, 1.0, 0.0],
    ]))
    assert membership_scale(X, ["a", "b", "c"], 1.0) == pytest.approx(5.0)
    assert membership_scale(X, ["a", "b", "c"], INF) == pytest.approx(5.0)


def test_membership_infinite():
    X = VGraph.from_entries(["a", "b"], {("a", "b"): 1.0})
    assert membership_scale(X, ["a", "b"], 1.0) == 1.0
    assert membership_scale(X, ["b", "a"], 1.0) == INF
    assert membership_scale(X, ["a", "b", "a"], 2.0) == INF


def test_membership_matches_witness_oracle():
    rng = random.Random(23)
    for _ in range(12):
        X = random_vgraph(rng, rng.randint(2, 5))
        verts = X.vertices
        for p in (1.0, 1.3, 2.0, INF):
            for degree in (1, 2, 3):
                for _ in range(6):
                    tup = [rng.choice(verts)]
                    while len(tup) < degree + 1:
                        nxt = rng.choice(verts)
                        if nxt != tup[-1]:
                            tup.append(nxt)
                    got = membership_scale(X, tup, p)
                    want = sigma_oracle(X, tup, p)
                    if math.isinf(want):
                        assert math.isinf(got)
                    else:
                        assert got == pytest.approx(want, abs=1e-6)


def test_membership_nonincreasing_in_p():
    rng = random.Random(29)
    X = random_vgraph(rng, 4)
    ps = [1.0, 1.3, 2.0, 4.0, INF]
    for tup in itertools.product(X.vertices, repeat=3):
        births = [membership_scale(X, tup, p) for p in ps]
        for lo, hi in zip(births, births[1:]):
            if math.isinf(hi):
                assert math.isinf(lo)
            elif math.isfinite(lo):
                assert hi <= lo + 1e-9


def test_face_monotonicity():
    rng = random.Random(31)
    X = random_vgraph(rng, 4)
    for p in (1.0, 2.0, INF):
        for tup in itertools.product(X.vertices, repeat=3):
            b = membership_scale(X, tup, p)
            for i in range(3):
                face = tup[:i] + tup[i + 1:]
                fb = membership_scale(X, face, p)
                if math.isfinite(b):
                    assert fb <= b + 1e-9


def test_enumerate_one_point():
    fc = enumerate_complex(VGraph.point(), 1.0, 2)
    # the stored degrees end at the first empty one
    assert [len(level) for level in fc.tuples] == [1, 0]
    assert fc.faces(2).shape == (0, 3)
    assert fc.grades == [0.0]


def test_enumerate_two_points():
    X = VGraph(["a", "b"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    fc = enumerate_complex(X, 1.0, 2)
    assert fc.labels(0) == [("a",), ("b",)]
    assert fc.labels(1) == [("a", "b"), ("b", "a")]
    assert all(b == 1.0 for b in fc.births[1])
    # zigzags accumulate length at p = 1
    assert {verts: b for b, verts in levels(fc)[2]} == {
        ("a", "b", "a"): 2.0, ("b", "a", "b"): 2.0}
    assert fc.grades == [0.0, 1.0, 2.0]

    fm = enumerate_complex(X, INF, 2)
    assert {verts: b for b, verts in levels(fm)[2]} == {
        ("a", "b", "a"): 1.0, ("b", "a", "b"): 1.0}
    assert fm.grades == [0.0, 1.0]


def test_enumerate_prunes_infinite_births():
    X = VGraph.from_entries(["a", "b"], {("a", "b"): 1.0})
    fc = enumerate_complex(X, 1.0, 3)
    assert fc.labels(1) == [("a", "b")]
    assert [len(level) for level in fc.tuples] == [2, 1, 0]
    assert fc.labels(3) == [] and fc.faces(3).shape == (0, 4)


def test_enumerate_sorted_and_sizes():
    X = random_honest_space(random.Random(37), 5)
    fc = enumerate_complex(X, 1.0, 2)
    for keys in levels(fc):
        assert keys == sorted(keys)
    assert len(fc.tuples[0]) == 5
    assert len(fc.tuples[1]) == 20
    assert len(fc.tuples[2]) == 80
    assert fc.size() == 105


def test_enumerate_deterministic():
    X = random_honest_space(random.Random(41), 6)
    a = enumerate_complex(X, 2.0, 2)
    b = enumerate_complex(X, 2.0, 2)
    assert levels(a) == levels(b)


def test_budget():
    X = random_honest_space(random.Random(43), 5)
    with pytest.raises(BudgetExceededError):
        enumerate_complex(X, 1.0, 3, budget=50)


def test_budget_stops_the_search_early(nerve_backend):
    # one first vertex alone roots about 29^4 tuples; the search must stop
    # at the budget, not after building that subtree
    X = random_honest_space(random.Random(47), 30)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            enumerate_complex(X, INF, 4, budget=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_budget_bounds_memory_at_high_degree(nerve_backend):
    # the search reaches high degrees first; it stores a tuple as its last
    # vertex, top and prefix row, so a degree-200 tuple costs no more than
    # an edge and the budget stops the search before memory is spent
    X = VGraph(["a", "b", "c"],
               np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            enumerate_complex(X, 1.0, 200, budget=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_budget_stops_a_huge_max_dim_at_once(nerve_backend):
    """A budget of 100 on the 3-point space stops the search near degree
    5, whatever ``max_dim`` is: nothing that runs before the budget is hit
    grows with ``max_dim``, neither the search's per-degree lists nor a
    check."""
    X = VGraph(["a", "b", "c"],
               np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))
    started = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match="exceeded the budget of 100$"):
            enumerate_complex(X, 1.0, 10 ** 6, budget=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 1.0
    assert peak < 2 ** 20


def test_empty_degrees_up_to_a_large_max_dim_are_cheap():
    """Two points infinitely far apart have no edge, so every degree
    above 0 is empty: the complex stores degrees 0 and 1 and no array for
    the 3999 empty degrees above them, which it still reads as empty."""
    X = VGraph(["a", "b"], np.array([[0.0, INF], [INF, 0.0]]))
    started = time.perf_counter()
    fc = enumerate_complex(X, 1.0, 4000, budget=None)
    assert time.perf_counter() - started < 5.0
    assert fc.size() == 2 and len(fc.tuples) == 2
    assert fc.faces(4000).shape == (0, 4001)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
def test_enumerate_matches_membership_scale(p):
    """The births carried down the search equal membership_scale exactly,
    and each degree holds exactly the finite-birth nondegenerate tuples."""
    rng = random.Random(53)
    floats = tuple(rng.uniform(0.1, 3.0) for _ in range(5)) + (INF,)
    spaces = [random_vgraph(rng, 4), random_vgraph(rng, 5, alphabet=floats),
              random_l1_space(rng, 4), random_l1_space(rng, 5),
              random_honest_space(rng, 4), random_honest_space(rng, 5)]
    for X in spaces:
        fc = enumerate_complex(X, p, 3)
        for degree, level in enumerate(levels(fc)):
            for birth, verts in level:
                assert birth == membership_scale(X, verts, p)
            want = {
                tup for tup in itertools.product(X.vertices, repeat=degree + 1)
                if not is_degenerate(tup)
                and math.isfinite(membership_scale(X, tup, p))
            }
            assert len(level) == len(want)
            assert {verts for _, verts in level} == want
        # the tuple-at-a-time search gives the same births, bit for bit
        assert levels(fc) == [sorted(level) for level in search(X, p, 3)]


def test_critical_grades():
    X = VGraph(["a", "b"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert enumerate_complex(X, 1.0, 2).grades == [0.0, 1.0, 2.0]
    assert enumerate_complex(X, INF, 2).grades == [0.0, 1.0]


def test_grade_clusters():
    assert grade_clusters(np.array([]), 1.0) == []
    assert grade_clusters(np.array([3.0, 0.0, 1.4, 1.0]), 0.5) == [0.0, 1.0, 3.0]
    assert grade_clusters(np.array([2.0, 1.0, 1.0]), 0.0) == [1.0, 2.0]
    # an infinite tolerance (an overflowing eps times distance) links all
    assert grade_clusters(np.array([3.0, 0.0, 1.0]), INF) == [0.0]
    # 1 and 1.8 are told apart, but 1.4 is within 0.5 of both
    with pytest.raises(InputError) as exc:
        grade_clusters(np.array([1.0, 1.4, 1.8]), 0.5)
    assert str(exc.value) == ("grades 1.0 to 1.8 span more than 0.5 in steps "
                              "of at most 0.5, so they cannot be told apart")
    assert grade_clusters(np.array([1.0, 1.4, 1.8]), 0.5, hops=2) == [1.0]


def test_grade_indices_cluster_births():
    """Births closer than eps times the largest distance share a grade,
    valued at the smallest of them; each degree's grade indices rise with
    its births, and ``starts`` finds the first row of each grade."""
    X = VGraph(["a", "b", "c"], np.array([
        [0.0, 1.0, 1.0 + 1e-12], [1.0, 0.0, 3.0], [1.0 + 1e-12, 3.0, 0.0]]))
    fc = enumerate_complex(X, 1.0, 2)
    assert fc.grades == [0.0, 1.0, 2.0, 3.0, 4.0, 6.0]
    assert fc.grade[1].tolist() == [1, 1, 1, 1, 3, 3]
    for k in range(3):
        assert np.all(np.diff(fc.grade[k]) >= 0)
        for g in range(len(fc.grades) + 1):
            assert fc.starts[k][g] == np.count_nonzero(fc.grade[k] < g)
    # at an absolute 1e-12 the two are told apart, relative to 3 they are not
    assert len(enumerate_complex(X, 1.0, 2, eps=1e-13).grades) > 6
    # tolerance 5e-7 * 3: 1 and 1 + 2e-6 are linked through 1 + 1e-6, and
    # told apart within one tolerance but not within two (two hops)
    Y = VGraph(["a", "b", "c", "d"], np.array([
        [0.0, 1.0, 1.0 + 1e-6, 1.0 + 2e-6], [1.0, 0.0, 3.0, 3.0],
        [1.0 + 1e-6, 3.0, 0.0, 3.0], [1.0 + 2e-6, 3.0, 3.0, 0.0]]))
    with pytest.raises(InputError):
        enumerate_complex(Y, 1.0, 1, eps=5e-7)
    assert enumerate_complex(Y, 1.0, 2, eps=5e-7).grade[1].tolist()[:6] == \
        [1] * 6
    for eps in (-1.0, INF, math.nan):
        with pytest.raises(InputError):
            enumerate_complex(Y, 1.0, 1, eps=eps)


def test_enumerate_rejects_negative_arguments():
    X = random_honest_space(random.Random(59), 3)
    with pytest.raises(InputError):
        enumerate_complex(X, 1.0, -1)
    with pytest.raises(InputError):
        enumerate_complex(X, 1.0, 2, budget=-5)


def test_face_keys_do_not_overflow():
    """A 200-point path at max_dim 8: base-200 codes of the degree-8
    tuples would exceed 2**63 (200**9 > 2**63)."""
    n, max_dim = 200, 8
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    for i in range(n - 1):
        dist[i, i + 1] = dist[i + 1, i] = 1.0 + i % 3
    # vertex names sort in the reverse of the path order
    X = VGraph([f"v{n - i:03d}" for i in range(n)], dist)
    assert n ** (max_dim + 1) > 2 ** 63
    fc = enumerate_complex(X, 2.0, max_dim, budget=None)
    # only back-and-forth walks on one edge have finite births
    assert [len(level) for level in fc.tuples] == [n] + [2 * (n - 1)] * max_dim
    assert levels(fc) == [sorted(level) for level in search(X, 2.0, max_dim)]
    for degree in range(1, max_dim + 1):
        assert np.array_equal(fc.faces(degree), dense_face_table(fc, degree))


def test_search_reach_memory_is_blocked(monkeypatch):
    """75 clusters of 4 mutually finite points, infinitely far apart: the
    reach of all of degree 3 at once would take over four times the
    asserted peak, so the pure-Python search must expand it block by
    block."""
    monkeypatch.setattr(kernels, "expand", _reduction_py.expand)
    n, size, max_dim = 300, 4, 4
    dist = np.full((n, n), INF)
    for lo in range(0, n, size):
        dist[lo:lo + size, lo:lo + size] = 1.0
    np.fill_diagonal(dist, 0.0)
    X = VGraph([f"x{i:03d}" for i in range(n)], dist)
    tracemalloc.start()
    try:
        fc = enumerate_complex(X, INF, max_dim, budget=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(level) for level in fc.tuples] == [
        n * (size - 1) ** k for k in range(max_dim + 1)]
    full_reach = len(fc.tuples[max_dim - 1]) * n * 8  # one float64 per cell
    assert 4 * peak <= full_reach


def assert_same_complex(fc, want, prefix):
    """Every field of two complexes is equal, dtypes included, and the
    last column of each face table holds the prefix rows ``prefix``."""
    for name in ("tuples", "births", "tables", "grade", "starts"):
        for a, b in zip(getattr(fc, name), getattr(want, name), strict=True):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
    for table, rows in zip(fc.tables, prefix, strict=True):
        assert np.array_equal(table[:, -1], rows)
    assert fc.grades == want.grades


def falling_tie(dist, p, max_dim):
    """True when some degree of the space with distances ``dist`` (vertices
    in name order) has two rows with equal births whose tops, the chain
    values the births are powered from, fall against the lexicographic
    order the search finds them in."""
    for _, top, _ in _reduction_py.search(python_power(dist, p), False,
                                          max_dim, INF):
        birth = python_power(top, 1.0 / p)
        order = np.argsort(birth, kind="stable")
        birth, top = birth[order], top[order]
        if np.any((birth[1:] == birth[:-1]) & (top[1:] < top[:-1])):
            return True
    return False


def test_equal_births_from_distinct_tops_stay_lexicographic():
    """At finite p, distinct tops of one degree can power to one birth:
    (a + b) + c and a + (b + c) may differ in the last bit while their
    p-th roots agree.  Such rows share a birth code, so they stay in
    lexicographic order and do not follow their tops.  The space is the
    first of a short deterministic search whose tops fall in such a tie."""
    p, max_dim = 2.0, 3
    for seed in range(100):
        rng = random.Random(seed)
        dist = np.array([[0.0 if i == j else rng.randint(1, 9) / 10
                          for j in range(3)] for i in range(3)])
        if falling_tie(dist, p, max_dim):
            break
    else:
        pytest.fail("no space with a falling tie")
    X = VGraph(["a", "b", "c"], dist)
    fc = enumerate_complex(X, p, max_dim)
    assert_same_complex(fc, *lexsorted_complex(X, p, max_dim))
    for level in levels(fc):
        assert level == sorted(level)


@settings(max_examples=150, deadline=None)
@given(X=spaces(), p=st.sampled_from([1.0, 2.0, INF]),
       max_dim=st.integers(0, 4), block=st.integers(1, 5))
def test_birth_sort_and_face_lookup_match_the_full_sorts(X, p, max_dim, block):
    """Sorting by birth code alone gives the complex a full (birth,
    vertices) sort gives, and the twin's face rows are those of one binary
    search per face over the full sorts, dtypes included, whatever order
    the pure-Python search visits its blocks in."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "expand", _reduction_py.expand)
        # BLOCK counts cells: blocks of 1 to 5 rows
        patch.setattr(_reduction_py, "BLOCK", block * len(X))
        fc = enumerate_complex(X, p, max_dim, budget=None)
        want, prefix = lexsorted_complex(X, p, max_dim)
    assert_same_complex(fc, want, prefix)


def test_face_lookup_memory_is_linear(backend):
    """1000 pairs of points, infinitely far apart, at max_dim 3: 2000 rows
    per degree, so a lookup table of (prefix rows) x n cells would take
    some 30 MB, where the search and its face tables need well under
    2 MB."""
    n = 2000
    dist = np.full((n, n), INF)
    for lo in range(0, n, 2):
        dist[lo:lo + 2, lo:lo + 2] = 1.0
    np.fill_diagonal(dist, 0.0)
    X = VGraph([f"x{i:04d}" for i in range(n)], dist)
    w = powered(X, 1.0)
    tracemalloc.start()
    try:
        found = backend.expand(w, 1.0, 3, INF)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert [len(tuples) for tuples, _, _, _ in found] == [n] * 4
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "expand", backend.expand)
        fc = enumerate_complex(X, 1.0, 3, budget=None)
    assert_same_complex(fc, *lexsorted_complex(X, 1.0, 3))


def powered(X, p):
    """The distance matrix the search reads: vertices in name order,
    distances to the p-th power at finite p."""
    perm = [X.index(v) for v in sorted(X.vertices)]
    d = X.dist[np.ix_(perm, perm)]
    return d if p == INF else python_power(d, p)


@settings(max_examples=150, deadline=None)
@given(X=spaces(), twist=st.booleans(),
       p=st.sampled_from([1.0, 1.5, 2.0, INF]), max_dim=st.integers(0, 4))
def test_compiled_search_and_face_table_match_the_twins(compiled_kernels, X,
                                                        twist, p, max_dim):
    """The compiled search gives the pure-Python twin's sorted arrays
    (vertex matrix, distinct births, birth codes and face tables), dtypes,
    memory order and bits included, ends at the same degree, the first
    empty one or ``max_dim``, also for a ``max_dim`` of 2^70, past the C
    kernel's clamp, and raises at the same budgets; the complex each
    backend gives is that of the full sorts of the raw search, with the
    face tables of one binary search per face, and its face tables up to
    ``max_dim`` are those of a lookup by name.  Symmetric spaces are also
    tried after ``asymmetrize``, where a row has far fewer children than
    a complete space gives it."""
    if twist and np.array_equal(X.dist, X.dist.T):
        X = asymmetrize(X)
    w = powered(X, p)
    found = compiled_kernels.expand(w, p, max_dim, INF)
    want = _reduction_py.expand(w, p, max_dim, INF)
    sizes = [len(tuples) for tuples, _, _, _ in want]
    assert len(found) == len(sizes) and 0 not in sizes[:-1]
    assert len(sizes) == max_dim + 1 or sizes[-1] == 0
    for k, (got, expected) in enumerate(zip(found, want)):
        tuples, level, code, faces = got
        assert tuples.shape == (len(code), k + 1)
        assert tuples.flags.f_contiguous
        assert faces.shape == tuples.shape and faces.flags.c_contiguous
        for a, b in zip(got, expected, strict=True):
            assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape,
                                                     b.strides)
            assert a.tobytes() == b.tobytes()  # births bit for bit
    total = sum(sizes)
    for module in (compiled_kernels, _reduction_py):
        with pytest.raises(BudgetExceededError):
            module.expand(w, p, max_dim, total - 1)
        assert len(module.expand(w, p, max_dim, total)) == len(sizes)
        if sizes[-1] == 0:  # nothing lies past the degrees found
            assert [len(tuples) for tuples, _, _, _ in module.expand(
                w, p, 2 ** 70, total)] == sizes
    sorted_fc, prefix = lexsorted_complex(X, p, max_dim)
    for module in (_reduction_py, compiled_kernels):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "expand", module.expand)
            fc = enumerate_complex(X, p, max_dim, budget=None)
        assert_same_complex(fc, sorted_fc, prefix)
        for degree in range(1, max_dim + 1):
            assert np.array_equal(fc.faces(degree),
                                  dense_face_table(fc, degree))


def test_faces_need_a_degree_of_the_complex():
    """A face table exists for each degree 1..max_dim, and any other
    degree is an input error, not a lookup error."""
    X = VGraph(["a", "b", "c"],
               np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))
    fc = enumerate_complex(X, 1.0, 2)
    for degree in (1, 2):
        assert fc.faces(degree).shape == (len(fc.tuples[degree]), degree + 1)
    for degree in (-1, 0, 3):
        with pytest.raises(InputError, match=r"degree in 1\.\.2, got"):
            fc.faces(degree)
