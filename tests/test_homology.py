import itertools
import math
import random

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from lpnerve.chain import (CUSTOM_GRID, EMPTY, STRICT_PREDECESSORS, SieveSpec,
                           boundary_matrix, generators_at)
from lpnerve import homology as homology_module
from lpnerve import kernels
from lpnerve.homology import (Bar, Barcode, Coefficients, GF2, INTEGERS,
                              HomologySummary, homology_at, homology_table,
                              magnitude_homology, persistence_barcode,
                              vr_oracle)
from lpnerve.snf import smith_normal_form
from lpnerve.nerve import enumerate_complex
from lpnerve.values import INF, InputError
from lpnerve.vgraph import VGraph, asymmetrize, coproduct, free_category
from util import (dense_to_columns, global_filtration_barcode,
                  magnitude_series, random_floors, random_honest_space,
                  random_l1_space, random_vgraph, rp2_subdivision,
                  whole_matrix_snf, whole_matrix_table)

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
    # no unit entry anywhere: only remainder steps reduce these
    assert snf([[2, 3]]) == (1, [1])
    assert snf([[6, 10, 15]]) == (1, [1])
    assert snf([[4, 6], [6, 9]]) == (1, [1])
    assert snf([[2, 4], [6, 8]]) == (2, [2, 4])
    # the boundary of a path with 2000 edges: a unit pivot at each edge
    assert smith_normal_form([[i, i + 1] for i in range(2000)],
                             [[-1, 1]] * 2000) == (2000, [1] * 2000)


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


def test_tables_match_whole_matrix_snf():
    """The tables equal the plain computation: per-grade boundaries, each
    eliminated whole (``util.whole_matrix_table``)."""
    rng = random.Random(29)
    spaces = [random_honest_space(rng, 4), random_honest_space(rng, 4),
              random_vgraph(rng, 4), random_vgraph(rng, 4)]
    for X in spaces:
        for p in (1.0, 2.0, INF):
            fc = enumerate_complex(X, p, 3)
            assert magnitude_homology(X, p, [0, 1, 2]) == \
                whole_matrix_table(fc, [0, 1, 2], STRICT)
            for g in range(len(fc.grades)):
                for n in (0, 1, 2):
                    rows = whole_matrix_table(fc, [n], GLOBAL, [g])
                    assert homology_at(fc, n, g, GLOBAL) == (
                        rows[0] if rows else HomologySummary(fc.grades[g], n, 0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       make=st.sampled_from([random_honest_space, random_l1_space,
                             random_vgraph]),
       n=st.integers(2, 4), p=st.sampled_from([1.0, 2.0, INF]))
def test_tables_match_whole_matrix_snf_on_random_spaces(seed, make, n, p):
    """Over Z, under the empty, strict and a random custom sieve."""
    rng = random.Random(seed)
    fc = enumerate_complex(make(rng, n), p, 3)
    custom = SieveSpec(CUSTOM_GRID, random_floors(rng, len(fc.grades)))
    for sieve in (GLOBAL, STRICT, custom):
        assert homology_table(fc, [0, 1, 2], sieve) == \
            whole_matrix_table(fc, [0, 1, 2], sieve)


def test_torsion_that_shows_only_after_unit_elimination():
    """Every entry is a unit, and the torsion is in the residue the unit
    pivots leave: [[1, 1], [1, -1]] leaves the 1x1 residue 2, and the 3x3
    matrix below, diag(1, [[2, 2], [2, -2]]) with its first row and column
    added to the others, leaves a 2x2 residue with no unit entry."""
    M = dense_to_columns([[1, 1], [1, -1]])
    assert smith_normal_form(*M) == (2, [1, 2])
    M = dense_to_columns([[1, 1, 1], [1, 3, 3], [1, 3, -1]])
    assert smith_normal_form(*M) == (3, [1, 2, 4])
    assert whole_matrix_snf(*M) == (3, [1, 2, 4])


def test_snf_matches_whole_matrix_on_sparse_small_entries():
    """Sparse matrices with entries in -3..3: units, fill and a residue."""
    rng = random.Random(43)
    for _ in range(300):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        density = rng.uniform(0.1, 0.6)
        M = [[rng.randint(-3, 3) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        assert snf(M) == whole_matrix_snf(*dense_to_columns(M))


def bareiss_determinant(entries):
    """Exact determinant of a square integer matrix, fraction-free."""
    a = [row[:] for row in entries]
    n, sign, previous = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1]


def minors_gcd(entries):
    """The gcd of all 2 x 2 minors of an integer matrix (0 if there are
    none): the product of its first two invariant factors."""
    pairs = list(itertools.combinations(range(len(entries[0])), 2))
    return math.gcd(*(a[j] * b[l] - a[l] * b[j]
                      for a, b in itertools.combinations(entries, 2)
                      for j, l in pairs))


def test_snf_large_entries_match_determinant():
    """Square matrices with entries up to 1000, so that remainder steps
    do most of the work (the whole-matrix dense loop takes over a minute
    on some of them).  The determinantal divisors fix the invariant
    factors: the first is the gcd of the entries, the first two multiply
    to the gcd of the 2 x 2 minors, and all of them to |det| when it is
    nonzero."""
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(2, 13)
        M = [[rng.randint(-1000, 1000) if rng.random() < 0.45 else 0
              for _ in range(n)] for _ in range(n)]
        rank, divisors = snf(M)
        det = bareiss_determinant(M)
        assert (rank == n) == (det != 0)
        assert rank == len(divisors)
        if det:
            assert math.prod(divisors) == abs(det)
        if rank:
            assert divisors[0] == math.gcd(*itertools.chain(*M))
        minors = minors_gcd(M)
        assert (rank >= 2) == (minors != 0)
        if rank >= 2:
            assert divisors[0] * divisors[1] == minors


def diagonal_invariant_factors(diagonal):
    """Invariant factors of a diagonal of positive integers, prime by
    prime: the i-th takes the i-th smallest power of each prime."""
    powers = {}
    for i, d in enumerate(diagonal):
        q = 2
        while d > 1:
            while d % q == 0:
                powers.setdefault(q, [0] * len(diagonal))[i] += 1
                d //= q
            q += 1
    factors = [1] * len(diagonal)
    for q, exponents in powers.items():
        for i, e in enumerate(sorted(exponents)):
            factors[i] *= q ** e
    return factors


def test_snf_large_entries_with_known_factors():
    """U D V with D diagonal, its entries not dividing each other (as 6,
    10 and 15), and U, V unimodular: random row and column additions
    within two diagonal blocks, until some entry exceeds 1000.  The
    invariant factors are those of D, and the two blocks reduce apart,
    so the divisibility fixup must merge their pivots."""
    rng = random.Random(67)
    for _ in range(30):
        n = rng.randint(4, 12)
        cut = rng.randint(2, n - 2)
        blocks = [range(cut), range(cut, n)]
        diagonal = [rng.choice([1, 2, 3, 4, 5, 6, 9, 10, 15])
                    for _ in range(n)]
        M = [[diagonal[i] if i == j else 0 for j in range(n)]
             for i in range(n)]
        while max(abs(v) for row in M for v in row) <= 1000:
            i, j = rng.sample(rng.choice(blocks), 2)
            c = rng.choice([-2, -1, 1, 2])
            if rng.random() < 0.5:
                M[i] = [a + c * b for a, b in zip(M[i], M[j])]
            else:
                for row in M:
                    row[i] += c * row[j]
        assert snf(M) == (n, diagonal_invariant_factors(diagonal))


def counting_smith_normal_form(monkeypatch):
    """Patch ``homology.smith_normal_form`` to record each call."""
    calls = []
    original = homology_module.smith_normal_form

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(homology_module, "smith_normal_form", counting)
    return calls


def test_large_boundaries_leave_no_large_dense_block(monkeypatch):
    """Boundaries that took seconds when the Smith normal form rescanned
    large dense blocks: the empty sieve at p = 1 on 7 points, and the
    strict sieve at p = inf on the space of the first ph_inf benchmark
    input of seed 11 (14 points, up to the names and order of its
    vertices).  The Z mode of the column reduction ranks these without a
    Smith normal form, so it is made to flag every boundary here, and the
    Smith normal form must give the same tables.  The 7 points also run
    under the strict sieve and a custom one (floor g - g % 3 at grade
    index g) whose runs are grades that share a floor followed by one
    that keeps only itself."""
    calls = counting_smith_normal_form(monkeypatch)
    seven = enumerate_complex(random_honest_space(random.Random(7), 7), 1.0, 3)
    custom = SieveSpec(CUSTOM_GRID,
                       [g - g % 3 for g in range(len(seven.grades))])
    fourteen = enumerate_complex(
        random_honest_space(random.Random("ph_inf:11"), 14), INF, 3)
    for fc, sieve in [(seven, GLOBAL), (seven, STRICT), (seven, custom),
                      (fourteen, STRICT)]:
        rows = homology_table(fc, [0, 1, 2], sieve)
        with monkeypatch.context() as m:
            m.setattr(kernels, "reduce_faces", lambda *args: None)
            assert homology_table(fc, [0, 1, 2], sieve) == rows
    assert calls


def test_rank_planted_torsion():
    M = dense_to_columns([[2, 0], [0, 3]])
    assert smith_normal_form(*M) == (2, [1, 6])


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


def test_homology_at_grade_off_the_complex():
    """A grade index outside the complex is bad input under every sieve."""
    fc = enumerate_complex(VGraph(["a", "b", "c"], np.array([
        [0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])), 1.0, 2)
    n = len(fc.grades)
    for sieve in (GLOBAL, STRICT, SieveSpec(CUSTOM_GRID, [0] + [1] * (n - 1))):
        for g in (-1, n):
            for coefficients in (INTEGERS, GF2):
                with pytest.raises(InputError):
                    homology_at(fc, 1, g, sieve, coefficients)


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


@pytest.mark.parametrize("degrees", [[], [-1], [0, -1], range(0),
                                     range(-1, 2), range(2, -2, -1)])
def test_magnitude_homology_bad_degrees(degrees):
    X = random_honest_space(random.Random(7), 3)
    with pytest.raises(InputError):
        magnitude_homology(X, 1.0, degrees)


def test_magnitude_homology_reads_a_range_by_its_ends():
    """Two points infinitely far apart store degrees 0 and 1 only, so
    ``range(10**15)`` gives the rows of ``range(2)``: the range is never
    listed, and read no further than the complex's last stored degree.
    A decreasing range reads as the increasing one."""
    X = VGraph(["a", "b"], np.array([[0.0, INF], [INF, 0.0]]))
    rows = magnitude_homology(X, 1.0, range(2))
    assert rows == [HomologySummary(0.0, 0, 2, ())]
    assert magnitude_homology(X, 1.0, range(10 ** 15)) == rows
    assert magnitude_homology(X, 1.0, range(10 ** 15, -1, -1)) == rows


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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       make=st.sampled_from([random_honest_space, random_l1_space,
                             random_vgraph]),
       n=st.integers(2, 5), p=st.sampled_from([1.0, 2.0, INF]),
       max_dim=st.integers(1, 4))
def test_barcode_matches_global_filtration(seed, make, n, p, max_dim):
    """Reducing each d_k on its own gives the bars of one reduction of the
    whole filtration, over GF(2) and GF(3), for every max_degree below
    max_dim (max_dim up to 2 above the need)."""
    fc = enumerate_complex(make(random.Random(seed), n), p, max_dim)
    for max_degree in range(max(max_dim - 3, 0), max_dim):
        for q in (2, 3):
            assert persistence_barcode(fc, max_degree, Coefficients(q)) == \
                global_filtration_barcode(fc, max_degree, q)


def test_barcode_reduces_each_degree_once(monkeypatch):
    """Bars up to degree d reduce the coboundaries delta_0 .. delta_d, one
    ``reduce_cofaces`` call each, on the face tables of d_1 .. d_(d+1),
    and no boundary."""
    calls = []
    reduce_cofaces = kernels.reduce_cofaces

    def counting(table, *args):
        calls.append(table.shape[1] - 1)
        return reduce_cofaces(table, *args)

    monkeypatch.setattr(kernels, "reduce_cofaces", counting)
    monkeypatch.setattr(kernels, "reduce_faces", None)
    for d in range(3):
        fc = enumerate_complex(random_honest_space(random.Random(d), 5),
                               INF, d + 3)
        calls.clear()
        persistence_barcode(fc, d)
        assert calls == list(range(1, d + 2))


def test_empty_sieve_table_reduces_the_barcode_face_tables(monkeypatch):
    """Under the empty sieve all grades make one run, so over GF(2) and
    over Z ``homology_table`` reduces each d_k once, as a boundary, on the
    face table whose coboundary ``persistence_barcode`` reduces."""
    tables, cotables = [], []

    def recording(into, reduce):
        def call(table, *args):
            into.append(table.copy())
            return reduce(table, *args)
        return call

    monkeypatch.setattr(kernels, "reduce_faces",
                        recording(tables, kernels.reduce_faces))
    monkeypatch.setattr(kernels, "reduce_cofaces",
                        recording(cotables, kernels.reduce_cofaces))
    rng = random.Random(53)
    for make in (random_honest_space, random_vgraph):
        X = make(rng, 5)
        for p in (1.0, INF):
            fc = enumerate_complex(X, p, 3)
            cotables.clear()
            persistence_barcode(fc, 2)
            barcode = {t.shape[1] - 1: t for t in cotables}
            assert sorted(barcode) == [1, 2, 3] and len(cotables) == 3
            for ring in (GF2, INTEGERS):
                tables.clear()
                homology_table(fc, [0, 1, 2], GLOBAL, ring)
                assert len(tables) == 3
                for t in tables:
                    assert np.array_equal(t, barcode[t.shape[1] - 1])


def test_vr_oracle_agreement_random():
    """At every max_degree below max_dim, so that the top degree's
    essential bars are compared too (degree 0 always has one), on
    connected spaces and on disjoint unions, whose infinite distances
    leave several classes that never die."""
    rng = random.Random(11)
    for _ in range(8):
        X = random_honest_space(rng, rng.randint(2, 6))
        for Y in (X, coproduct([X, random_honest_space(rng, 3)])):
            fc = enumerate_complex(Y, INF, 3)
            for max_degree in range(3):
                assert persistence_barcode(fc, max_degree).bars == \
                    vr_oracle(Y, max_degree).bars


def test_vr_oracle_is_scale_free():
    """The oracle's default tolerance is relative to the largest distance,
    so a scaled space gives the scaled bars."""
    X = random_honest_space(random.Random(5), 5)
    base = vr_oracle(X, 2).bars
    assert base
    for lam in (1e-9, 1e-11):
        assert vr_oracle(VGraph(X.vertices, X.dist * lam), 2).bars == \
            [Bar(b.degree, b.birth * lam, b.death * lam) for b in base]


def test_vr_oracle_input_checks():
    asym = VGraph(["a", "b"], np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InputError):
        vr_oracle(asym, 1)
    # the oracle works over GF(2) alone and takes no ring, so a ring given
    # (where ``eps`` is keyword-only) is refused rather than ignored
    for ring in (INTEGERS, GF2, Coefficients(5)):
        with pytest.raises(TypeError):
            vr_oracle(cycle4(), 1, ring)
        with pytest.raises(TypeError):
            vr_oracle(cycle4(), 1, field_coeffs=ring)


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
        rows = magnitude_homology(X, 1.0, range(5))
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


def test_torsion_of_the_projective_plane(monkeypatch):
    """The subdivided RP^2 at p = inf under the empty sieve: at grade 1,
    H_1 = Z/2 has rank 0 and torsion (2,) over Z, rank 1 over GF(2) and
    rank 0 over GF(3).  The empty sieve makes one run of the 4 grades,
    so the table builds d_1 and d_2 once each.  d_2 reduces to a pivot of
    2 over Z, so the Z mode flags it, and the Smith normal form runs once
    on each grade's columns: 4 calls, one of them on grade 0's d_2, which
    has no columns.  The field ranks never need it."""
    fc = enumerate_complex(asymmetrize(rp2_subdivision()), INF, 2)
    assert fc.size() == 4991
    calls = counting_smith_normal_form(monkeypatch)
    for q, rank, torsion in [(None, 0, (2,)), (2, 1, ()), (3, 0, ())]:
        rows = homology_table(fc, [0, 1], GLOBAL, Coefficients(q))
        assert HomologySummary(1.0, 1, rank, torsion) in rows
        assert len(calls) == 4


def test_forced_flag_keeps_the_strict_torsion_of_the_projective_plane(
        monkeypatch):
    """The subdivided RP^2 at p = inf under the strict sieve has torsion
    Z/2 in H_1 at grade 1 and (Z/2)^2 in H_2 at grade 2.  With every
    reduction flagged, each grade's columns go to the Smith normal form
    with the faces below their floor masked out, and the table is the
    same."""
    fc = enumerate_complex(asymmetrize(rp2_subdivision()), INF, 3)
    rows = homology_table(fc, [0, 1, 2], STRICT)
    assert [r for r in rows if r.torsion] == [
        HomologySummary(1.0, 1, 30, (2,)), HomologySummary(2.0, 2, 0, (2, 2))]
    calls = counting_smith_normal_form(monkeypatch)
    monkeypatch.setattr(kernels, "reduce_faces", lambda *args: None)
    assert homology_table(fc, [0, 1, 2], STRICT) == rows
    assert calls


def test_honest_strict_tables_need_no_smith_normal_form(monkeypatch):
    """Under the strict sieve every pivot of an honest space's boundaries
    is a unit, so integer tables come from the column reduction alone."""
    calls = counting_smith_normal_form(monkeypatch)
    rng = random.Random(89)
    for _ in range(8):
        X = random_honest_space(rng, rng.randint(3, 6))
        for p in (1.0, 2.0, INF):
            fc = enumerate_complex(X, p, 3)
            assert magnitude_homology(X, p, [0, 1, 2]) == \
                whole_matrix_table(fc, [0, 1, 2], STRICT)
    assert calls == []


def assert_universal_coefficients(fc, degrees, sieve, primes):
    """dim H_n(GF(q)) = rank H_n(Z) + the torsion factors of H_n divisible
    by q + those of H_(n-1), on every row."""
    integral = {(r.grade, r.degree): r
                for r in homology_table(fc, degrees, sieve)}
    for q in primes:
        rows = homology_table(fc, degrees, sieve, Coefficients(q))
        assert [(r.grade, r.degree) for r in rows] == list(integral)
        for r in rows:
            below = integral.get((r.grade, r.degree - 1))
            torsion = integral[r.grade, r.degree].torsion + (
                below.torsion if below else ())
            assert r.torsion == ()
            assert r.rank == integral[r.grade, r.degree].rank + sum(
                d % q == 0 for d in torsion)


def test_universal_coefficients_on_every_row():
    """On random spaces and on the subdivided RP^2, under the empty,
    strict and a custom sieve; RP^2 has 2-torsion in degrees 1 and 2."""
    rng = random.Random(97)
    for make in (random_honest_space, random_l1_space, random_vgraph):
        for p in (1.0, 2.0, INF):
            fc = enumerate_complex(make(rng, rng.randint(3, 4)), p, 3)
            custom = SieveSpec(CUSTOM_GRID, random_floors(rng, len(fc.grades)))
            for sieve in (GLOBAL, STRICT, custom):
                assert_universal_coefficients(fc, [0, 1, 2], sieve, (2, 3, 5))
    X = asymmetrize(rp2_subdivision())
    assert_universal_coefficients(enumerate_complex(X, INF, 2), [0, 1],
                                  GLOBAL, (2, 3))
    fc = enumerate_complex(X, INF, 3)
    for sieve in (STRICT, SieveSpec(CUSTOM_GRID, [0, 0, 1, 3])):
        assert_universal_coefficients(fc, [0, 1, 2], sieve, (2, 3))
