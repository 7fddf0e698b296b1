import itertools
import math
import random

import numpy as np
import pytest

from lpnerve.chain import (EMPTY, STRICT_PREDECESSORS, SieveSpec,
                           boundary_matrix, generators_at)
from lpnerve import homology
from lpnerve.homology import (Bar, Barcode, Coefficients, GF2, INTEGERS,
                              HomologySummary, _divisibility_fixup,
                              _eliminate, _rank, homology_at, magnitude_homology,
                              persistence_barcode, smith_normal_form,
                              vr_oracle)
from lpnerve.nerve import enumerate_complex
from lpnerve.values import INF, InputError
from lpnerve.vgraph import VGraph, asymmetrize, free_category
from util import (columns_to_dense, dense_to_columns, magnitude_series,
                  random_honest_space, random_l1_space, random_vgraph)

GLOBAL = SieveSpec(EMPTY)
STRICT = SieveSpec(STRICT_PREDECESSORS)


def cycle4():
    """Path metric of the 4-cycle."""
    mat = np.array([
        [0.0, 1.0, 2.0, 1.0],
        [1.0, 0.0, 1.0, 2.0],
        [2.0, 1.0, 0.0, 1.0],
        [1.0, 2.0, 1.0, 0.0],
    ])
    return VGraph(["a", "b", "c", "d"], mat)


def test_coefficients():
    assert Coefficients(2).modulus == 2
    assert Coefficients(5).modulus == 5
    assert INTEGERS.modulus is None
    for bad in (1, 4, 6, 9):
        with pytest.raises(InputError):
            Coefficients(bad)


def snf(entries):
    """``smith_normal_form`` of a dense matrix."""
    return smith_normal_form(*dense_to_columns(entries))


def test_snf_examples():
    assert snf([[2, 0], [0, 0]]) == (1, [2])
    assert snf([[1, 0], [0, 1]]) == (2, [1, 1])
    assert snf([[0, 0], [0, 0]]) == (0, [])
    assert snf([[2, 4], [4, 8]]) == (1, [2])
    assert snf([[2, 0], [0, 3]]) == (2, [1, 6])
    assert smith_normal_form([], []) == (0, [])
    assert smith_normal_form([[], [0, 4], []], [[], [5, -3], []]) == (1, [1])
    # boundary of the full triangle: rank 2, free quotient
    d1 = [
        [-1, -1, 0],
        [1, 0, -1],
        [0, 1, 1],
    ]
    assert snf(d1) == (2, [1, 1])
    # classic torsion example
    assert snf([[2, 6], [0, 2]]) == (2, [2, 2])


def test_snf_divisibility_random():
    rng = random.Random(3)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        rank, divisors = snf(M)
        assert rank == len(divisors)
        assert all(d > 0 for d in divisors)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        assert rank == np.linalg.matrix_rank(np.array(M, dtype=float))


def whole_matrix_snf(col_rows, col_coeffs):
    """Reference: the elimination loop on the whole matrix as one block."""
    nrows = max((max(rows) + 1 for rows in col_rows if rows), default=0)
    divisors = _eliminate(columns_to_dense((col_rows, col_coeffs), nrows))
    return len(divisors), _divisibility_fixup(divisors)


def test_snf_blockwise_matches_whole_matrix_random():
    rng = random.Random(17)
    for _ in range(300):
        rows, cols = rng.randint(0, 8), rng.randint(1, 8)
        density = rng.random()
        M = [[rng.randint(-5, 5) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        assert snf(M) == whole_matrix_snf(*dense_to_columns(M))


def test_snf_permuted_blocks_with_coprime_torsion():
    # connected blocks whose invariant factors are (4), (1, 5), (2, 4),
    # (3, 3) and (7): torsion for coprime primes sits in different blocks
    blocks = [
        [[4]],
        [[1, 1], [-1, 4]],
        [[2, 2], [2, -2]],
        [[3, 3, 0], [0, 3, 3]],
        [[7]],
    ]
    rng = random.Random(23)
    for _ in range(20):
        nrows = sum(len(b) for b in blocks) + rng.randint(0, 3)
        ncols = sum(len(b[0]) for b in blocks) + rng.randint(0, 3)
        row_perm = rng.sample(range(nrows), nrows)
        col_perm = rng.sample(range(ncols), ncols)
        M = [[0] * ncols for _ in range(nrows)]
        r0 = c0 = 0
        for b in rng.sample(blocks, len(blocks)):
            for i, row in enumerate(b):
                for j, v in enumerate(row):
                    M[row_perm[r0 + i]][col_perm[c0 + j]] = v
            r0 += len(b)
            c0 += len(b[0])
        expected = (8, [1, 1, 1, 1, 1, 2, 12, 420])
        assert snf(M) == expected
        assert whole_matrix_snf(*dense_to_columns(M)) == expected


def planted_invariant_factors(diagonal):
    """Invariant factors of a diagonal over the primes 2, 3, 5, 7: the
    k-th largest takes the k-th largest power of each prime."""
    exponents = {}
    for d in diagonal:
        for prime in (2, 3, 5, 7):
            e = 0
            while d % prime == 0:
                d //= prime
                e += 1
            exponents.setdefault(prime, []).append(e)
        assert d == 1
    factors = [1] * len(diagonal)
    for prime, es in exponents.items():
        for k, e in enumerate(sorted(es)):
            factors[k] *= prime ** e
    return factors


def test_snf_sparse_columns_with_planted_coprime_torsion():
    """Random sparse matrices U D V with a planted diagonal D, scattered
    among all-zero columns and rows that no column touches."""
    rng = random.Random(37)
    for _ in range(150):
        diagonal, blocks = [], []
        for _ in range(rng.randint(0, 5)):
            side = rng.randint(1, 4)
            d = [rng.choice((1, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12))
                 for _ in range(rng.randint(0, side))]
            diagonal += d
            a = [[d[i] if i == j and i < len(d) else 0 for j in range(side)]
                 for i in range(side)]
            # unimodular row and column operations
            for _ in range(rng.randint(0, 6) if side > 1 else 0):
                i, k = rng.sample(range(side), 2)
                c = rng.choice((-2, -1, 1, 2))
                if rng.random() < 0.5:
                    a[i] = [x + c * y for x, y in zip(a[i], a[k])]
                else:
                    for row in a:
                        row[i] += c * row[k]
            blocks.append(a)
        nrows = sum(len(b) for b in blocks) + rng.randint(0, 4)
        ncols = sum(len(b) for b in blocks) + rng.randint(0, 4)
        row_perm = rng.sample(range(nrows), nrows)
        col_perm = rng.sample(range(ncols), ncols)
        M = [[0] * ncols for _ in range(nrows)]
        r0 = 0
        for b in blocks:
            for i, row in enumerate(b):
                for j, v in enumerate(row):
                    M[row_perm[r0 + i]][col_perm[r0 + j]] = v
            r0 += len(b)
        cols = dense_to_columns(M)
        expected = (len(diagonal), planted_invariant_factors(diagonal))
        assert smith_normal_form(*cols) == expected
        assert whole_matrix_snf(*cols) == expected


def test_tables_match_whole_matrix_snf(monkeypatch):
    rng = random.Random(29)
    spaces = [random_honest_space(rng, 4), random_honest_space(rng, 4),
              random_vgraph(rng, 4), random_vgraph(rng, 4)]
    for X in spaces:
        for p in (1.0, 2.0, INF):
            fc = enumerate_complex(X, p, 3)

            def tables():
                mh = magnitude_homology(X, p, [0, 1, 2])
                glob = [homology_at(fc, n, g, GLOBAL)
                        for g in range(len(fc.grades)) for n in (0, 1, 2)]
                return mh, glob

            blockwise = tables()
            with monkeypatch.context() as m:
                m.setattr(homology, "smith_normal_form", whole_matrix_snf)
                assert tables() == blockwise


def test_rank_planted_torsion():
    M = dense_to_columns([[2, 0], [0, 3]])
    assert _rank(M, INTEGERS) == (2, (6,))
    assert _rank(M, Coefficients(2)) == (1, ())
    assert _rank(M, Coefficients(3)) == (1, ())
    assert _rank(M, Coefficients(5)) == (2, ())


def test_field_homology_matches_universal_coefficients():
    """Over GF(q) a boundary's rank is the number of its invariant
    factors over Z that q does not divide."""

    def field_rank(divisors, q):
        return sum(1 for d in divisors if d % q)

    rng = random.Random(31)
    for make in (random_honest_space, random_l1_space, random_vgraph):
        X = make(rng, 4)
        for p in (1.0, 2.0, INF):
            fc = enumerate_complex(X, p, 3)
            for sieve in (GLOBAL, STRICT):
                for g in range(len(fc.grades)):
                    divisors = {0: []}
                    for n in (1, 2, 3):
                        _, divisors[n] = smith_normal_form(
                            *boundary_matrix(fc, n, g, sieve))
                    for n in (0, 1, 2):
                        gens = len(generators_at(fc, n, g, sieve))
                        for q in (2, 3, 5):
                            h = homology_at(fc, n, g, sieve, Coefficients(q))
                            assert h.torsion == ()
                            assert h.rank == (gens
                                              - field_rank(divisors[n], q)
                                              - field_rank(divisors[n + 1], q))


def test_homology_two_points_global():
    X = VGraph(["a", "b"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    fc = enumerate_complex(X, INF, 2)
    assert fc.grades == [0.0, 1.0]
    # below the merge grade: two components
    h0 = homology_at(fc, 0, 0, GLOBAL)
    assert (h0.rank, h0.torsion) == (2, ())
    # at grade 1 everything is contractible
    h0 = homology_at(fc, 0, 1, GLOBAL)
    assert h0.rank == 1
    h1 = homology_at(fc, 1, 1, GLOBAL)
    assert h1.rank == 0


def test_homology_requires_headroom():
    X = VGraph(["a", "b"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    fc = enumerate_complex(X, INF, 1)
    with pytest.raises(InputError):
        homology_at(fc, 1, 1, GLOBAL)


def test_magnitude_homology_cycle4():
    rows = magnitude_homology(cycle4(), 1.0, [1])
    assert rows == [
        HomologySummary(1.0, 1, 8, ()),
        HomologySummary(2.0, 1, 0, ()),
    ]


def test_magnitude_homology_line():
    X = VGraph(["a", "b", "c"], np.array([
        [0.0, 1.0, 2.0],
        [1.0, 0.0, 1.0],
        [2.0, 1.0, 0.0],
    ]))
    rows = magnitude_homology(X, 1.0, [1])
    by_grade = {r.grade: r.rank for r in rows}
    assert by_grade[1.0] == 4
    assert by_grade[2.0] == 0


def test_magnitude_homology_degree0():
    X = random_honest_space(random.Random(7), 4)
    rows = magnitude_homology(X, 1.0, [0])
    assert rows[0] == HomologySummary(0.0, 0, 4, ())
    # at positive grades no degree-0 generator is exactly born
    assert all(r.grade == 0.0 for r in rows)


@pytest.mark.parametrize("degrees", [[], [-1], [0, -1]])
def test_magnitude_homology_bad_degrees(degrees):
    X = random_honest_space(random.Random(7), 3)
    with pytest.raises(InputError):
        magnitude_homology(X, 1.0, degrees)


def test_magnitude_homology_is_scale_free():
    """Grades are told apart relative to the largest distance, so scaling a
    space scales its grades and keeps every rank and torsion."""
    X = random_honest_space(random.Random(5), 6)
    base = magnitude_homology(X, 1.0, range(3))
    assert len(base) == 15
    for lam in (1e-9, 1e-11):
        rows = magnitude_homology(VGraph(X.vertices, X.dist * lam), 1.0,
                                  range(3))
        assert [(h.degree, h.rank, h.torsion) for h in rows] == \
            [(h.degree, h.rank, h.torsion) for h in base]
        assert [h.grade for h in rows] == pytest.approx(
            [lam * h.grade for h in base], rel=1e-12)


def test_persistence_two_points():
    X = VGraph(["a", "b"], np.array([[0.0, 3.0], [3.0, 0.0]]))
    fc = enumerate_complex(X, INF, 2)
    bc = persistence_barcode(fc, 1)
    assert bc.bars == [Bar(0, 0.0, 3.0), Bar(0, 0.0, INF)]


def test_persistence_cycle4():
    fc = enumerate_complex(cycle4(), INF, 3)
    bc = persistence_barcode(fc, 2)
    assert bc.in_degree(1) == [Bar(1, 1.0, 2.0)]
    assert bc.in_degree(0) == [Bar(0, 0.0, 1.0)] * 3 + [Bar(0, 0.0, INF)]
    assert bc.in_degree(2) == []


def test_persistence_requires_field():
    fc = enumerate_complex(cycle4(), INF, 2)
    with pytest.raises(InputError):
        persistence_barcode(fc, 1, INTEGERS)
    with pytest.raises(InputError):
        persistence_barcode(fc, 2)  # needs max_dim >= 3


def test_vr_oracle_agreement_random():
    rng = random.Random(11)
    for _ in range(8):
        X = random_honest_space(rng, rng.randint(2, 6))
        fc = enumerate_complex(X, INF, 3)
        assert persistence_barcode(fc, 2).bars == vr_oracle(X, 2).bars


def test_vr_oracle_input_checks():
    asym = VGraph(["a", "b"], np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InputError):
        vr_oracle(asym, 1)
    with pytest.raises(InputError):
        vr_oracle(cycle4(), 1, Coefficients(5))


def test_asymmetrize_preserves_barcode():
    rng = random.Random(13)
    for _ in range(5):
        X = random_honest_space(rng, 5)
        A = asymmetrize(X)
        fc = enumerate_complex(A, INF, 3)
        assert persistence_barcode(fc, 2).bars == vr_oracle(X, 2).bars


def test_field_independence_on_cycle():
    fc = enumerate_complex(cycle4(), INF, 3)
    for q in (2, 3, 5):
        assert persistence_barcode(fc, 2, Coefficients(q)).in_degree(1) == \
            [Bar(1, 1.0, 2.0)]


def test_euler_characteristic_consistency():
    """Alternating sums of generator counts equal alternating homology
    ranks grade by grade."""
    X = random_honest_space(random.Random(17), 5)
    fc = enumerate_complex(X, 1.0, 3)
    for sieve in (GLOBAL, STRICT):
        for g in range(len(fc.grades)):
            chi_chain = sum(
                (-1) ** n * len(generators_at(fc, n, g, sieve))
                for n in range(3)
            )
            # correct for the part of degree-2 cycles killed from degree 3
            d3 = boundary_matrix(fc, 3, g, sieve)
            rank3, _ = smith_normal_form(*d3)
            chi_hom = sum(
                (-1) ** n * homology_at(fc, n, g, sieve).rank
                for n in range(3)
            )
            assert chi_chain - rank3 == chi_hom


def random_connected_graph(rng, n):
    """Shortest-path metric of a random connected graph with unit edges."""
    mat = np.full((n, n), INF)
    np.fill_diagonal(mat, 0.0)
    for v in range(1, n):  # a random spanning tree, then extra edges
        u = rng.randrange(v)
        mat[u, v] = mat[v, u] = 1.0
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.3:
            mat[u, v] = mat[v, u] = 1.0
    return free_category(VGraph([f"v{i}" for i in range(n)], mat), 1.0)


def test_magnitude_homology_euler_characteristic():
    """Sum_n (-1)^n rank MH_{n,l} is the q^l coefficient of the magnitude
    (Hepworth-Willerton), computed from Z(q) without any chains.

    The boundary ranks cancel in the alternating sum, so this checks the
    localized generator counts and the table's bookkeeping of grades and
    degrees; the Smith normal form has its own oracle tests above."""
    rng = random.Random(41)
    for _ in range(4):
        X = random_connected_graph(rng, 5)
        rows = magnitude_homology(X, 1.0, range(5), max_dim=5)
        euler = [0] * 5
        for h in rows:
            assert h.grade == int(h.grade)
            if h.grade < 5:
                euler[int(h.grade)] += (-1) ** h.degree * h.rank
        assert euler == magnitude_series(X, [0, 1, 2, 3, 4])


def test_homology_field_vs_integer_when_torsion_free():
    X = random_honest_space(random.Random(19), 4)
    fc = enumerate_complex(X, 2.0, 2)
    for g in range(len(fc.grades)):
        for n in (0, 1):
            hz = homology_at(fc, n, g, STRICT, INTEGERS)
            if not hz.torsion:
                hq = homology_at(fc, n, g, STRICT, Coefficients(2))
                assert hq.rank == hz.rank
