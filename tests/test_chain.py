import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpnerve.chain import (CUSTOM_GRID, EMPTY, STRICT_PREDECESSORS, SieveSpec,
                           boundary_matrix, columns, generators_at,
                           sieve_boundary)
from lpnerve.homology import GF2, INTEGERS, _ranks, homology_at, homology_table
from lpnerve.nerve import enumerate_complex
from lpnerve.snf import smith_normal_form
from lpnerve.values import EPS, INF, InputError
from lpnerve.vgraph import VGraph, asymmetrize, tolerance
from util import (columns_to_dense, dense_boundary, dense_to_columns, faces,
                  generator_labels, index_at, is_degenerate, random_floors,
                  random_honest_space, random_l1_space, random_vgraph)

GLOBAL = SieveSpec(EMPTY)
STRICT = SieveSpec(STRICT_PREDECESSORS)


def two_point_complex(p=1.0, max_dim=2):
    X = VGraph(["a", "b"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    return enumerate_complex(X, p, max_dim)


def test_sieve_validation():
    with pytest.raises(InputError):
        SieveSpec("bogus")
    with pytest.raises(InputError):
        SieveSpec(CUSTOM_GRID)  # missing floors
    with pytest.raises(InputError):
        # grade index 1 would kill itself
        SieveSpec(CUSTOM_GRID, [0, 2])
    with pytest.raises(InputError):
        SieveSpec(CUSTOM_GRID, [-1])
    with pytest.raises(InputError):
        # not monotone in the grade
        SieveSpec(CUSTOM_GRID, [0, 1, 0])
    ok = SieveSpec(CUSTOM_GRID, [0, 1, 2])
    assert ok.floor(1) == 1  # grade 0 is killed at grade 1
    assert ok.floor(2) == 2
    for g in (-1, 5):
        with pytest.raises(InputError):
            ok.floor(g)  # off the grid


def test_sieve_kinds():
    assert GLOBAL.floor(5) == 0
    assert STRICT.floor(1) == 1
    assert STRICT.floor(0) == 0


def test_generators_at_global():
    fc = two_point_complex()
    assert fc.grades == [0.0, 1.0, 2.0]
    assert generator_labels(fc, 0, 0, GLOBAL) == [("a",), ("b",)]
    assert len(generators_at(fc, 1, 0, GLOBAL)) == 0
    assert len(generators_at(fc, 1, 1, GLOBAL)) == 2
    assert len(generators_at(fc, 1, 2, GLOBAL)) == 2
    assert len(generators_at(fc, 2, 2, GLOBAL)) == 2
    with pytest.raises(InputError):
        generators_at(fc, 5, 1, GLOBAL)
    for g in (-1, 3):
        with pytest.raises(InputError):
            generators_at(fc, 1, g, GLOBAL)
        for sieve in (GLOBAL, STRICT, SieveSpec(CUSTOM_GRID, [0, 1, 1])):
            with pytest.raises(InputError):
                boundary_matrix(fc, 1, g, sieve)
            with pytest.raises(InputError):
                homology_table(fc, [1], sieve, grades=[0, g])
            with pytest.raises(InputError):
                homology_at(fc, 1, g, sieve)
    for degree in (0, 3):
        with pytest.raises(InputError):
            sieve_boundary(fc, degree, np.array([1, 1]))


def test_generators_at_strict():
    fc = two_point_complex()
    # at grade 2 only the tuples born exactly at 2 survive
    assert len(generators_at(fc, 0, 2, STRICT)) == 0
    assert len(generators_at(fc, 1, 2, STRICT)) == 0
    assert generator_labels(fc, 2, 2, STRICT) == [
        ("a", "b", "a"), ("b", "a", "b")]


def linear_scan_generators(fc, degree, g, sieve):
    """Reference: scan the birth-sorted rows; a row's grade is the last
    grade value at or below its birth."""
    out = []
    for row, birth in enumerate(fc.births[degree].tolist()):
        grade = max(i for i, r in enumerate(fc.grades) if r <= birth)
        if sieve.floor(g) <= grade <= g:
            out.append(row)
    return out


def test_generators_at_matches_linear_scan():
    rng = random.Random(21)
    merged = False
    for make in (random_honest_space, random_l1_space, random_vgraph):
        X = make(rng, 4)
        # births 1e-7 apart: distinct grades at EPS, one at 1e-6
        near = X.dist + np.array([[rng.choice((0.0, 1e-7)) for _ in X.vertices]
                                  for _ in X.vertices])
        np.fill_diagonal(near, 0.0)
        for Y in (X, VGraph(X.vertices, near)):
            for p in (1.0, 2.0, INF):
                counts = []
                for eps in (EPS, 1e-6):
                    fc = enumerate_complex(Y, p, 2, eps=eps)
                    counts.append(len(fc.grades))
                    custom = SieveSpec(CUSTOM_GRID,
                                       [g // 2 for g in range(len(fc.grades))])
                    for n in range(3):
                        for g in range(len(fc.grades)):
                            for sieve in (GLOBAL, STRICT, custom):
                                assert generators_at(fc, n, g, sieve).tolist() \
                                    == linear_scan_generators(fc, n, g, sieve)
                assert counts[1] <= counts[0]
                merged |= counts[1] < counts[0]
    assert merged


@st.composite
def near_spaces(draw):
    """2 to 5 points, distances from a small alphabet, some moved by 1e-7
    or 3e-7: apart at the default eps, one grade at 1e-6."""
    n = draw(st.integers(2, 5))
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                dist[i, j] = (draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]))
                              + draw(st.sampled_from([0.0, 1e-7, 3e-7])))
    return VGraph([f"v{i}" for i in range(n)], dist)


@settings(max_examples=40, deadline=None)
@given(X=near_spaces(), p=st.sampled_from([1.0, 2.0, INF]),
       eps=st.sampled_from([EPS, 1e-6]))
def test_strict_sieve_partitions_every_degree(X, p, eps):
    """Under the strict sieve each tuple counts at exactly one grade; its
    birth lies in that grade's cluster, and distinct clusters are more
    than the tolerance apart."""
    max_dim = 3
    fc = enumerate_complex(X, p, max_dim, eps=eps)
    for k in range(max_dim + 1):
        rows = [generators_at(fc, k, g, STRICT) for g in range(len(fc.grades))]
        assert np.concatenate(rows).tolist() == list(
            range(len(fc.degree(k).tuples)))
    births = np.concatenate(fc.births)
    grade = np.concatenate(fc.grade)
    lo = [births[grade == g].min() for g in range(len(fc.grades))]
    hi = [births[grade == g].max() for g in range(len(fc.grades))]
    tol = tolerance(X, eps)
    assert lo == fc.grades
    assert all(b - a <= max_dim * tol for a, b in zip(lo, hi))
    assert all(a - b > tol for a, b in zip(lo[1:], hi))


def test_degrees_past_the_last_stored_one_are_empty():
    """The asymmetrized 3-point space has no tuple of degree 3, so a
    complex at max_dim 5 stores degrees 0..3 only.  Every degree up to
    max_dim still has a face table, generators and boundaries, all empty,
    and a degree past max_dim is an input error."""
    X = asymmetrize(random_honest_space(random.Random(59), 3))
    fc = enumerate_complex(X, 1.0, 5)
    assert [len(level) for level in fc.tuples] == [3, 3, 1, 0]
    g = len(fc.grades) - 1
    for k in range(3, 6):
        assert fc.faces(k).shape == (0, k + 1) and fc.labels(k) == []
        for sieve in (GLOBAL, STRICT):
            assert len(generators_at(fc, k, g, sieve)) == 0
            assert boundary_matrix(fc, k, g, sieve) == ([], [])
    for read in (fc.faces, fc.degree, fc.labels,
                 lambda k: generators_at(fc, k, g, GLOBAL),
                 lambda k: boundary_matrix(fc, k, g, GLOBAL)):
        with pytest.raises(InputError, match=r"degree.*5"):
            read(6)


def test_boundary_global_two_points():
    fc = two_point_complex()
    M = boundary_matrix(fc, 1, 1, GLOBAL)
    # d(a,b) = b - a, d(b,a) = a - b
    assert M == ([[0, 1], [0, 1]], [[-1, 1], [1, -1]])
    assert columns_to_dense(M, 2) == [[-1, 1], [1, -1]]
    M2 = boundary_matrix(fc, 2, 2, GLOBAL)
    # faces (a,a) and (b,b) are degenerate, so only the middle face remains
    cols = generator_labels(fc, 2, 2, GLOBAL)
    assert cols == [("a", "b", "a"), ("b", "a", "b")]
    assert len(M2[0]) == 2
    for coeffs in M2[1]:
        assert sum(abs(v) for v in coeffs) == 2  # d0 and d2 survive


def test_boundary_strict_kills_faces():
    fc = two_point_complex()
    M = boundary_matrix(fc, 2, 2, STRICT)
    # every face of a zigzag is born at 1 < 2, so the matrix is zero-shaped
    assert len(generators_at(fc, 1, 2, STRICT)) == 0
    assert M == ([[], []], [[], []])


def label_boundary(fc, degree, g, sieve):
    """The boundary at grade index g built from vertex names alone: each
    surviving tuple less one vertex i, with sign (-1)^i where that face
    survives; a degenerate face is no tuple of the complex."""
    def survivors(k):
        return [t for t, grade in zip(fc.labels(k),
                                      fc.degree(k).grade.tolist())
                if sieve.floor(g) <= grade <= g]

    rows = {t: i for i, t in enumerate(survivors(degree - 1))}
    cols = survivors(degree)
    dense = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, t in enumerate(cols):
        for i in range(len(t)):
            face = t[:i] + t[i + 1:]
            if face in rows:
                dense[rows[face], j] += (-1) ** i
    return dense


def test_boundary_matches_vertex_deletion():
    """Under every sieve, ``boundary_matrix`` equals the boundary built by
    deleting vertices from the tuples' names."""
    rng = random.Random(37)
    for make in (random_honest_space, random_vgraph):
        X = make(rng, 4)
        for p in (1.0, 2.0, INF):
            fc = enumerate_complex(X, p, 3)
            n = len(fc.grades)
            for sieve in (GLOBAL, STRICT,
                          SieveSpec(CUSTOM_GRID, random_floors(rng, n))):
                for g in range(n):
                    for degree in (1, 2, 3):
                        assert np.array_equal(
                            dense_boundary(fc, degree, g, sieve),
                            label_boundary(fc, degree, g, sieve))


def test_one_run_of_shared_floor_then_strict_grades():
    """A custom sieve that keeps grade indices 0.. up to grade index s - 1
    and only the grade itself from s on is one run.  Its one boundary per
    degree holds, in the columns of grade indices floor(g)..g, the
    boundary built at each g from vertex names, and the rank and torsion
    that its one reduction counts at g are those of that boundary."""
    rng = random.Random(47)
    for make in (random_honest_space, random_vgraph):
        X = make(rng, 4)
        for p in (1.0, INF):
            fc = enumerate_complex(X, p, 3)
            n = len(fc.grades)
            for s in range(1, n + 1):
                sieve = SieveSpec(CUSTOM_GRID, [0] * s + list(range(s, n)))
                run = [(g, sieve.floor(g)) for g in range(n)]
                floors = np.array([f for _, f in run])
                for degree in (1, 2, 3):
                    boundary = sieve_boundary(fc, degree, floors)
                    faces, floor, grade = boundary
                    keep = faces >= floor[:, None]
                    nrows = len(fc.degree(degree - 1).grade)
                    over_z = _ranks(*boundary, nrows, INTEGERS, run)
                    over_2 = _ranks(*boundary, nrows, GF2, run)
                    for g, f in run:
                        expected = label_boundary(fc, degree, g, sieve)
                        cols = (grade >= f) & (grade <= g)
                        shift = np.searchsorted(
                            fc.degree(degree - 1).grade, f)
                        assert columns_to_dense(
                            columns(faces[cols] - shift, keep[cols]),
                            len(expected)) == expected.tolist()
                        rank, divisors = smith_normal_form(
                            *dense_to_columns(expected))
                        assert over_z[g] == (
                            rank, tuple(d for d in divisors if d > 1))
                        assert over_2[g] == (sum(d % 2 for d in divisors), ())


def test_boundary_squares_to_zero():
    rng = random.Random(5)
    for make in (random_honest_space, random_l1_space):
        X = make(rng, 4)
        for p in (1.0, 2.0, INF):
            fc = enumerate_complex(X, p, 3)
            for sieve in (GLOBAL, STRICT):
                for g in range(len(fc.grades)):
                    for n in (2, 3):
                        B = dense_boundary(fc, n, g, sieve)
                        A = dense_boundary(fc, n - 1, g, sieve)
                        assert A.shape[1] == B.shape[0]
                        assert not np.any(A @ B)


def test_localization_commutes_with_boundary():
    """The quotient onto exactly-born generators intertwines boundaries."""
    X = random_honest_space(random.Random(9), 5)
    fc = enumerate_complex(X, 1.0, 3)
    for g in range(len(fc.grades)):
        for n in (1, 2, 3):
            A = dense_boundary(fc, n, g, GLOBAL)
            L = dense_boundary(fc, n, g, STRICT)
            glob_rows = generator_labels(fc, n - 1, g, GLOBAL)
            glob_cols = generator_labels(fc, n, g, GLOBAL)
            loc_rows = generator_labels(fc, n - 1, g, STRICT)
            loc_cols = generator_labels(fc, n, g, STRICT)
            # quotient matrices: identity on survivors, zero elsewhere
            keep_rows = set(loc_rows)
            keep_cols = set(loc_cols)
            Qr = [[1 if g == s else 0 for g in glob_rows] for s in loc_rows]
            Qc = [[1 if g == s else 0 for g in glob_cols] for s in loc_cols]
            Qr = np.array(Qr, dtype=int).reshape(len(loc_rows), len(glob_rows))
            Qc = np.array(Qc, dtype=int).reshape(len(loc_cols), len(glob_cols))
            assert np.array_equal(Qr @ A @ Qc.T, L)
            assert keep_rows <= set(glob_rows)
            assert keep_cols <= set(glob_cols)


def test_exponent_inclusion_commutes_with_boundary():
    """Chains at exponent p include into chains at q >= p compatibly."""
    X = random_honest_space(random.Random(15), 4)
    for p, q in ((1.0, 2.0), (2.0, INF)):
        fp = enumerate_complex(X, p, 2)
        fq = enumerate_complex(X, q, 2)
        for g, r in enumerate(fp.grades):
            h = index_at(fq, r)
            Mp = dense_boundary(fp, 1, g, GLOBAL)
            Mq = dense_boundary(fq, 1, h, GLOBAL)
            # inclusion on generators: birth can only drop as p grows
            p_col_labels = generator_labels(fp, 1, g, GLOBAL)
            q_col_labels = generator_labels(fq, 1, h, GLOBAL)
            p_cols = set(p_col_labels)
            q_cols = set(q_col_labels)
            assert p_cols <= q_cols
            qi = {t: i for i, t in enumerate(q_col_labels)}
            qr = {t: i for i, t in enumerate(
                generator_labels(fq, 0, h, GLOBAL))}
            for j, t in enumerate(p_col_labels):
                for i, s in enumerate(generator_labels(fp, 0, g, GLOBAL)):
                    assert Mp[i, j] == Mq[qr[s], qi[t]]



def test_faces_match_degeneracy_oracle():
    """Every nondegenerate tuple of length 1 to 6 over three letters, and
    the face table of the complex that holds them all."""
    X = VGraph(["a", "b", "c"], 1.0 - np.eye(3))
    fc = enumerate_complex(X, 1.0, 5)
    row = [{verts: i for i, verts in enumerate(fc.labels(k))} for k in range(6)]
    checked = 0
    for length in range(1, 7):
        for verts in itertools.product("abc", repeat=length):
            if is_degenerate(verts):
                continue
            expected = []
            if length > 1:
                for i in range(length):
                    face = verts[:i] + verts[i + 1:]
                    if not is_degenerate(face):
                        expected.append((face, -1 if i % 2 else 1))
            got = list(faces(verts))
            assert got == expected
            assert len({face for face, _ in got}) == len(got)
            if length > 1:
                k = length - 1
                table = fc.faces(k)[row[k][verts]]
                assert [(fc.labels(k - 1)[i], -1 if d % 2 else 1)
                        for d, i in enumerate(table.tolist()) if i >= 0] \
                    == expected
            checked += 1
    assert checked == 3 * (1 + 2 + 4 + 8 + 16 + 32)
