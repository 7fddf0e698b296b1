import itertools
import random

import numpy as np
import pytest

from lpnerve.chain import (CUSTOM_GRID, EMPTY, STRICT_PREDECESSORS, SieveSpec,
                           boundary_matrix, generators_at)
from lpnerve.nerve import enumerate_complex
from lpnerve.values import EPS, INF, InputError
from lpnerve.vgraph import VGraph
from util import (columns_to_dense, dense_boundary, faces, is_degenerate,
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
        SieveSpec(CUSTOM_GRID)  # missing grid
    with pytest.raises(InputError):
        # killed grade above the inspection grade
        SieveSpec(CUSTOM_GRID, {1.0: frozenset([2.0])})
    with pytest.raises(InputError):
        # not down-closed: kills 1 but not 0 below it
        SieveSpec(CUSTOM_GRID, {0.0: frozenset(), 1.0: frozenset(),
                                2.0: frozenset([1.0])})
    with pytest.raises(InputError):
        # not monotone in the grade
        SieveSpec(CUSTOM_GRID, {1.0: frozenset([0.0]), 2.0: frozenset()})
    ok = SieveSpec(CUSTOM_GRID, {0.0: frozenset(),
                                 1.0: frozenset([0.0]),
                                 2.0: frozenset([0.0, 1.0])})
    assert ok.kills(0.0, 1.0)
    assert not ok.kills(1.0, 1.0)
    with pytest.raises(InputError):
        ok.kills(0.0, 5.0)  # off the grid


def test_sieve_kinds():
    assert not GLOBAL.kills(0.0, 5.0)
    assert STRICT.kills(0.0, 1.0)
    assert not STRICT.kills(1.0, 1.0)
    assert not STRICT.kills(1.0, 1.0 + 1e-12)


def test_generators_at_global():
    fc = two_point_complex()
    assert fc.labels(0, generators_at(fc, 0, 0.0, GLOBAL)) == [("a",), ("b",)]
    assert len(generators_at(fc, 1, 0.5, GLOBAL)) == 0
    assert len(generators_at(fc, 1, 1.0, GLOBAL)) == 2
    assert len(generators_at(fc, 1, 2.0, GLOBAL)) == 2
    assert len(generators_at(fc, 2, 2.0, GLOBAL)) == 2
    with pytest.raises(InputError):
        generators_at(fc, 5, 1.0, GLOBAL)


def test_generators_at_strict():
    fc = two_point_complex()
    # at grade 2 only the tuples born exactly at 2 survive
    assert len(generators_at(fc, 0, 2.0, STRICT)) == 0
    assert len(generators_at(fc, 1, 2.0, STRICT)) == 0
    assert fc.labels(2, generators_at(fc, 2, 2.0, STRICT)) == [
        ("a", "b", "a"), ("b", "a", "b")]


def linear_scan_generators(fc, degree, grade, sieve, eps):
    """Reference: scan the birth-sorted rows up to grade + eps."""
    out = []
    for row, birth in enumerate(fc.births[degree].tolist()):
        if birth > grade + eps:
            break
        if not sieve.kills(birth, grade, eps):
            out.append(row)
    return out


def test_generators_at_matches_linear_scan():
    rng = random.Random(21)
    for make in (random_honest_space, random_l1_space, random_vgraph):
        X = make(rng, 4)
        for p in (1.0, 2.0, INF):
            fc = enumerate_complex(X, p, 2)
            grades = fc.grades
            custom = SieveSpec(CUSTOM_GRID, {
                r: frozenset(grades[:i // 2]) for i, r in enumerate(grades)})
            births = sorted(set(np.concatenate(fc.births).tolist()))
            for eps in (EPS, 0.25):
                probes = {-1.0, births[-1] + 1.0}
                for b in births:
                    probes |= {b, b - eps, b + eps}
                for lo, hi in zip(births, births[1:]):
                    probes.add((lo + hi) / 2)
                for n in range(3):
                    for r in sorted(probes):
                        for sieve in (GLOBAL, STRICT):
                            assert generators_at(fc, n, r, sieve, eps).tolist() \
                                == linear_scan_generators(fc, n, r, sieve, eps)
                    # a custom grid is only defined at its own grades
                    for r in grades:
                        assert generators_at(fc, n, r, custom, eps).tolist() \
                            == linear_scan_generators(fc, n, r, custom, eps)


def test_boundary_global_two_points():
    fc = two_point_complex()
    M = boundary_matrix(fc, 1, 1.0, GLOBAL)
    # d(a,b) = b - a, d(b,a) = a - b
    assert M == ([[0, 1], [0, 1]], [[-1, 1], [1, -1]])
    assert columns_to_dense(M, 2) == [[-1, 1], [1, -1]]
    M2 = boundary_matrix(fc, 2, 2.0, GLOBAL)
    # faces (a,a) and (b,b) are degenerate, so only the middle face remains
    cols = fc.labels(2, generators_at(fc, 2, 2.0, GLOBAL))
    assert cols == [("a", "b", "a"), ("b", "a", "b")]
    assert len(M2[0]) == 2
    for coeffs in M2[1]:
        assert sum(abs(v) for v in coeffs) == 2  # d0 and d2 survive


def test_boundary_strict_kills_faces():
    fc = two_point_complex()
    M = boundary_matrix(fc, 2, 2.0, STRICT)
    # every face of a zigzag is born at 1 < 2, so the matrix is zero-shaped
    assert len(generators_at(fc, 1, 2.0, STRICT)) == 0
    assert M == ([[], []], [[], []])


def test_boundary_squares_to_zero():
    rng = random.Random(5)
    for make in (random_honest_space, random_l1_space):
        X = make(rng, 4)
        for p in (1.0, 2.0, INF):
            fc = enumerate_complex(X, p, 3)
            for sieve in (GLOBAL, STRICT):
                for r in fc.grades:
                    for n in (2, 3):
                        B = dense_boundary(fc, n, r, sieve)
                        A = dense_boundary(fc, n - 1, r, sieve)
                        assert A.shape[1] == B.shape[0]
                        assert not np.any(A @ B)


def test_localization_commutes_with_boundary():
    """The quotient onto exactly-born generators intertwines boundaries."""
    X = random_honest_space(random.Random(9), 5)
    fc = enumerate_complex(X, 1.0, 3)
    for r in fc.grades:
        for n in (1, 2, 3):
            A = dense_boundary(fc, n, r, GLOBAL)
            L = dense_boundary(fc, n, r, STRICT)
            glob_rows = fc.labels(n - 1, generators_at(fc, n - 1, r, GLOBAL))
            glob_cols = fc.labels(n, generators_at(fc, n, r, GLOBAL))
            loc_rows = fc.labels(n - 1, generators_at(fc, n - 1, r, STRICT))
            loc_cols = fc.labels(n, generators_at(fc, n, r, STRICT))
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
        for r in fp.grades:
            Mp = dense_boundary(fp, 1, r, GLOBAL)
            Mq = dense_boundary(fq, 1, r, GLOBAL)
            # inclusion on generators: birth can only drop as p grows
            p_col_labels = fp.labels(1, generators_at(fp, 1, r, GLOBAL))
            q_col_labels = fq.labels(1, generators_at(fq, 1, r, GLOBAL))
            p_cols = set(p_col_labels)
            q_cols = set(q_col_labels)
            assert p_cols <= q_cols
            qi = {t: i for i, t in enumerate(q_col_labels)}
            qr = {t: i for i, t in enumerate(
                fq.labels(0, generators_at(fq, 0, r, GLOBAL)))}
            for j, t in enumerate(p_col_labels):
                for i, s in enumerate(
                        fp.labels(0, generators_at(fp, 0, r, GLOBAL))):
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
                assert [(fc.labels(k - 1, [i])[0], -1 if d % 2 else 1)
                        for d, i in enumerate(table.tolist()) if i >= 0] \
                    == expected
            checked += 1
    assert checked == 3 * (1 + 2 + 4 + 8 + 16 + 32)
