import inspect
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpnerve import kernels
from lpnerve.chain import (CUSTOM_GRID, EMPTY, STRICT_PREDECESSORS, SieveSpec,
                           columns)
from lpnerve.homology import (INTEGERS, Coefficients, homology_table,
                              persistence_barcode)
from lpnerve.io import barcode_to_csv, barcode_to_json, dumps
from lpnerve.kernels import _reduction_py, reduce_columns
from lpnerve.nerve import enumerate_complex
from lpnerve.values import INF, BudgetExceededError
from lpnerve.vgraph import asymmetrize
from util import (KERNELS, random_floors, random_honest_space, random_vgraph,
                  spaces)

#: the largest prime below MAX_ORDER
BIG_PRIME = 2147483647


def random_table(rng, ncols, nrows, width, density=0.7):
    """A face table: distinct rows in some of each column's slots, -1 in
    the others."""
    table = np.full((ncols, width), -1, dtype=np.int64)
    for j in range(ncols):
        k = sum(rng.random() < density for _ in range(min(width, nrows)))
        slots = rng.sample(range(width), k)
        table[j, slots] = rng.sample(range(nrows), k)
    return table


def run(backend, table, nrows, q, floor=None):
    """The lows ``backend.reduce_faces`` returns, as a list, or None where
    it flags Z; by default with a floor of 0, which keeps every face.
    Checks that the lows come as a new int64 array, one per column, and
    that the table and the floor, passed read-only, are left as they
    were."""
    table = np.array(table, dtype=np.int64)  # copies, made read-only
    floor = np.zeros(len(table), dtype=np.int64) if floor is None \
        else floor.copy()
    saved = table.copy(), floor.copy()
    table.flags.writeable = floor.flags.writeable = False
    lows = backend.reduce_faces(table, nrows, q, floor)
    assert np.array_equal(table, saved[0]) and np.array_equal(floor, saved[1])
    if lows is None:
        return None
    assert lows.dtype == np.int64 and lows.shape == (len(table),)
    assert lows.flags.c_contiguous and lows.flags.writeable
    return lows.tolist()


def oracle(table, q):
    """Lows of the plain list reduction over GF(q)."""
    return reduce_columns(*columns(table, table >= 0), q)


def fibonacci_table(n):
    """Columns r_0, r_1 - r_0 and r_k - r_(k-1) - r_(k-2) for k = 2..n, then
    r_n.  Reducing the last column over Z takes Fibonacci multiples:
    a r_m + b r_(m-1) becomes (a + b) r_(m-1) + a r_(m-2), so its
    entries pass 2^63 once n is above 90.  Over a field, or over Z in
    exact arithmetic, it reduces to zero."""
    rows = [[0, -1, -1, -1], [1, 0, -1, -1]]
    rows += [[k, k - 1, -1, k - 2] for k in range(2, n + 1)]  # signs + - -
    rows.append([n, -1, -1, -1])
    return np.array(rows, dtype=np.int64)


def test_empty_matrix():
    assert reduce_columns([], [], 2) == []
    for module in (kernels, _reduction_py):
        for q in (0, 2, 3):
            assert run(module, np.zeros((0, 3), dtype=np.int64), 0, q) == []
            assert run(module, np.full((2, 2), -1), 0, q) == [-1, -1]


def test_small_reduction():
    # three vertices and the triangle's boundary: two edges share a pivot,
    # the third reduces to zero; edge (a, b) has faces b, then a
    table = np.array([[-1, -1]] * 3 + [[1, 0], [2, 1], [2, 0]])
    expected = [-1, -1, -1, 1, 2, -1]  # a cycle is created
    assert oracle(table, 2) == expected
    for module in (kernels, _reduction_py):
        for q in (0, 2, 3):
            assert run(module, table, 3, q) == expected


def test_backends_agree(compiled_kernels):
    """Over GF(2), GF(3), larger fields and Z, on tables of every width up
    to 5: the same lows, or None on both where Z flagged."""
    rng = random.Random(61)
    flagged = 0
    for q in (2, 3, 5, 7, BIG_PRIME, 0):
        for _ in range(40):
            nrows = rng.randint(1, 40)
            table = random_table(rng, rng.randint(0, 60), nrows,
                                 rng.randint(1, 5))
            compiled = run(compiled_kernels, table, nrows, q)
            assert compiled == run(_reduction_py, table, nrows, q)
            flagged += compiled is None
    assert 0 < flagged < 40  # Z mode both reduces and flags here


def test_lows_match_the_list_oracle(backend):
    """Over GF(q), the lows are those of ``reduce_columns`` on the column
    lists of the table.  Over Z, when no pivot was flagged, every pivot is
    a unit, so the reduction is one over any field as well: its lows are
    the oracle's over GF(2) and over a large prime."""
    rng = random.Random(83)
    checked_z = 0
    for _ in range(60):
        nrows = rng.randint(1, 30)
        table = random_table(rng, rng.randint(0, 40), nrows, rng.randint(1, 4))
        for q in (2, 3, 5):
            assert run(backend, table, nrows, q) == oracle(table, q)
        lows = run(backend, table, nrows, 0)
        if lows is not None:
            assert lows == oracle(table, 2) == oracle(table, BIG_PRIME)
            checked_z += 1
    assert checked_z > 20


def test_z_flags_a_planted_non_unit_pivot(backend):
    """r_0 - r_1, then r_1 + r_0: the second reduces to 2 r_0 over Z, a
    pivot of 2, which is zero over GF(2) and a pivot over GF(3)."""
    table = np.array([[0, 1, -1], [1, -1, 0]])
    assert run(backend, table, 2, 0) is None
    assert run(backend, table, 2, 2) == [1, -1]
    assert run(backend, table, 2, 3) == [1, 0]


def test_z_flags_int64_overflow(backend, compiled_kernels):
    """The Fibonacci column reduces to zero over Z while its entries fit
    in int64, and is flagged from the first n where one would not; both
    backends flag at the same n."""
    assert run(backend, fibonacci_table(20), 21, 0) == list(range(21)) + [-1]
    assert run(backend, fibonacci_table(120), 121, 0) is None
    first = [n for n in range(80, 100)
             if run(backend, fibonacci_table(n), n + 1, 0) is None][0]
    assert 85 < first < 95
    assert run(backend, fibonacci_table(first - 1), first, 0) == \
        list(range(first)) + [-1]
    for module in (compiled_kernels, _reduction_py):
        assert run(module, fibonacci_table(first), first + 1, 0) is None
    for q in (2, 3, BIG_PRIME):
        assert run(backend, fibonacci_table(120), 121, q) == \
            list(range(121)) + [-1]


@settings(max_examples=100, deadline=None)
@given(X=spaces(), twist=st.booleans(),
       p=st.sampled_from([1.0, 1.5, 2.0, INF]), seed=st.integers(0, 2 ** 32))
def test_floor_drops_the_faces_below_it(compiled_kernels, X, twist, p, seed):
    """On the face tables of degrees 1..3, with a random floor per column
    (from below the first row to past the last): each backend's reduction
    equals, over GF(2), GF(3) and Z, its reduction with a zero floor of
    the table with -1 for every face below the floor, and the two
    backends agree (both None where Z flagged)."""
    if twist and np.array_equal(X.dist, X.dist.T):
        X = asymmetrize(X)
    rng = random.Random(seed)
    fc = enumerate_complex(X, p, 3, budget=None)
    for k in range(1, 4):
        faces, nrows = fc.faces(k), len(fc.degree(k - 1).grade)
        floor = np.array([rng.randint(-1, nrows + 1) for _ in faces],
                         dtype=np.int64)
        masked = np.where(faces >= floor[:, None], faces, -1)
        for q in (2, 3, 0):
            compiled, python = (run(backend, faces, nrows, q, floor)
                                for backend in (compiled_kernels, _reduction_py))
            assert compiled == run(compiled_kernels, masked, nrows, q)
            assert python == run(_reduction_py, masked, nrows, q)
            assert compiled == python


def test_pivots_are_unique():
    rng = random.Random(67)
    for q in (0, 5):
        lows = run(kernels, random_table(rng, 60, 40, 4), 40, q)
        used = [low for low in lows or [] if low >= 0]
        assert len(used) == len(set(used))


def test_backend_flag():
    assert kernels.BACKEND in ("compiled", "python")


def test_backends_give_the_same_barcodes(compiled_kernels, monkeypatch):
    rng = random.Random(73)
    for q in (2, 3, 5):
        X = random_honest_space(rng, rng.randint(4, 7))
        for space in (X, asymmetrize(X)):
            fc = enumerate_complex(space, INF, 3)
            monkeypatch.setattr(kernels, "reduce_faces",
                                compiled_kernels.reduce_faces)
            compiled = persistence_barcode(fc, 2, Coefficients(q)).bars
            monkeypatch.setattr(kernels, "reduce_faces",
                                _reduction_py.reduce_faces)
            assert compiled == persistence_barcode(fc, 2, Coefficients(q)).bars


def test_backends_give_the_same_tables(compiled_kernels, monkeypatch):
    """Under the empty, strict and a custom sieve, over Z, GF(2) and
    GF(3)."""
    rng = random.Random(79)
    for make in (random_honest_space, random_vgraph):
        X = make(rng, 5)
        for p in (1.0, INF):
            fc = enumerate_complex(X, p, 3)
            custom = SieveSpec(CUSTOM_GRID, random_floors(rng, len(fc.grades)))
            for sieve in (SieveSpec(EMPTY), SieveSpec(STRICT_PREDECESSORS),
                          custom):
                for ring in (INTEGERS, Coefficients(2), Coefficients(3)):
                    monkeypatch.setattr(kernels, "reduce_faces",
                                        compiled_kernels.reduce_faces)
                    compiled = homology_table(fc, [0, 1, 2], sieve, ring)
                    monkeypatch.setattr(kernels, "reduce_faces",
                                        _reduction_py.reduce_faces)
                    assert compiled == homology_table(fc, [0, 1, 2], sieve,
                                                      ring)


def copairs(backend, fc, q):
    """Per degree k from 0 while degree k + 1 is stored, the pairs (row,
    coface) of ``backend.reduce_cofaces`` on delta_k, each with the rows
    paired by delta_(k-1) cleared, and the pairs (face row, column) of
    ``backend.reduce_faces`` on d_(k+1).  Checks that no cleared row is
    paired and that the pivot cofaces are distinct, and that a row is
    skipped where it is cleared even if its column would pair: with every
    row cleared, none pairs."""
    out = []
    cleared = np.zeros(len(fc.grade[0]), dtype=bool)
    for k in range(len(fc.tuples) - 1):
        faces, nrows = fc.faces(k + 1), len(fc.grade[k])
        cofaces = backend.reduce_cofaces(faces, nrows, q, cleared)
        assert cofaces.dtype == np.int64 and cofaces.shape == (nrows,)
        paired = cofaces >= 0
        assert not (paired & cleared).any()
        assert len(set(cofaces[paired].tolist())) == paired.sum()
        assert (backend.reduce_cofaces(faces, nrows, q, np.ones(
            nrows, dtype=bool)) == -1).all()
        lows = run(backend, faces, nrows, q)
        out.append(({(s, t) for s, t in enumerate(cofaces.tolist()) if t >= 0},
                    {(low, j) for j, low in enumerate(lows) if low >= 0}))
        cleared = np.zeros(len(faces), dtype=bool)
        cleared[cofaces[paired]] = True
    return out


@settings(max_examples=80, deadline=None)
@given(X=spaces(), twist=st.booleans(), p=st.sampled_from([1.0, 2.0, INF]),
       q=st.sampled_from([2, 3]))
def test_coboundary_pairs_are_the_boundary_pairs(compiled_kernels, X, twist,
                                                 p, q):
    """Over GF(2) and GF(3), at p = 1, 2 and inf, on spaces with and
    without ``asymmetrize``: on every coboundary up to delta_2, the
    clearing reduction pairs each row with the coface that the boundary
    reduction of d_(k+1) pairs it with, on both backends, and the two
    backends give the same pairs."""
    if twist and np.array_equal(X.dist, X.dist.T):
        X = asymmetrize(X)
    fc = enumerate_complex(X, p, 3, budget=None)
    compiled, python = (copairs(backend, fc, q)
                        for backend in (compiled_kernels, _reduction_py))
    for cofaces, faces in compiled:
        assert cofaces == faces
    assert compiled == python


def test_coboundary_pairs_with_degenerate_faces(compiled_kernels):
    """Spaces where a tuple revisits a vertex, so that degree 2 and up
    have degenerate faces (-1 in the face table): the pairs of each
    coboundary with clearing are the boundary's, on both backends."""
    rng = random.Random(97)
    for n in (2, 3, 4):
        for make in (random_honest_space, random_vgraph):
            X = make(rng, n)
            for p in (1.0, INF):
                fc = enumerate_complex(X, p, 4, budget=None)
                assert (fc.faces(2) < 0).any()
                for q in (2, 3):
                    pairs = copairs(compiled_kernels, fc, q)
                    assert pairs == copairs(_reduction_py, fc, q)
                    for cofaces, faces in pairs:
                        assert cofaces == faces


def test_backends_give_byte_identical_bars(compiled_kernels, monkeypatch):
    """``persistence_barcode`` with the compiled and the python
    ``reduce_cofaces``: the same bars, printed to the same bytes, over
    GF(2), GF(3) and GF(5), at p = 1, 2 and inf, with and without
    ``asymmetrize``."""
    rng = random.Random(101)
    for q in (2, 3, 5):
        X = random_honest_space(rng, rng.randint(4, 6))
        for space in (X, asymmetrize(X)):
            for p in (1.0, 2.0, INF):
                fc = enumerate_complex(space, p, 3)
                printed = []
                for backend in (compiled_kernels, _reduction_py):
                    monkeypatch.setattr(kernels, "reduce_cofaces",
                                        backend.reduce_cofaces)
                    bc = persistence_barcode(fc, 2, Coefficients(q))
                    printed.append((repr(bc.bars), dumps(barcode_to_json(bc)),
                                    barcode_to_csv(bc)))
                assert printed[0] == printed[1]


TABLE = np.array([[0, 1], [1, 2]], dtype=np.int64)
#: a floor of 0 for each column of TABLE
FLOOR = np.zeros(2, dtype=np.int64)


@pytest.mark.parametrize("args,error,message", [
    ((TABLE[0], 3, 2, FLOOR), ValueError, "face table must be"),
    ((TABLE.astype(np.int32), 3, 2, FLOOR), ValueError, "face table must be"),
    ((TABLE.astype(np.float64), 3, 2, FLOOR), ValueError,
     "face table must be"),
    ((TABLE.T, 3, 2, FLOOR), ValueError, "face table must be"),
    ((np.array([[0, -2]]), 3, 2, FLOOR[:1]), ValueError,
     "column 0 has the face -2, outside -1..2"),
    ((TABLE, 2, 2, FLOOR), ValueError,
     "column 1 has the face 2, outside -1..1"),
    ((TABLE, 1 << 63, 2, FLOOR), ValueError, "nrows"),
    ((np.array([[0, 1], [2, 2]]), 3, 2, FLOOR), ValueError,
     "column 1 has the row 2 twice"),
    ((TABLE, 3, 1, FLOOR), ValueError, "q must be 0"),
    ((TABLE, 3, -2, FLOOR), ValueError, "q must be 0"),
    ((TABLE, 3, 1 << 31, FLOOR), ValueError, "q must be 0"),
    ((TABLE, 3, 2, np.zeros(3, dtype=np.int64)), ValueError,
     "2 columns but floor has 3 entries"),
    ((TABLE, 3, 2, FLOOR[:1]), ValueError,
     "2 columns but floor has 1 entries"),
    ((TABLE, 3, 2, FLOOR.astype(np.int32)), ValueError,
     "floor must be a 1-d C-contiguous int64 array"),
    ((TABLE, 3, 2, FLOOR.astype(np.float64)), ValueError, "floor must be"),
    ((TABLE, 3, 2, np.zeros(4, dtype=np.int64)[::2]), ValueError,
     "floor must be"),
    ((TABLE, 3, 2, np.zeros((2, 1), dtype=np.int64)), ValueError,
     "floor must be"),
    (([[0, 1]], 3, 2, FLOOR[:1]), TypeError, None),
    ((TABLE, 3, 2, [0, 0]), TypeError, None),
    ((TABLE, 3.0, 2, FLOOR), TypeError, None),
], ids=["ndim", "itemsize", "float-row", "not-contiguous", "negative-row",
        "row-beyond-nrows", "row-beyond-int64", "repeated-row",
        "order-too-small", "order-negative", "order-too-large",
        "floor-too-long", "floor-too-short", "floor-int32", "floor-float",
        "floor-not-contiguous", "floor-ndim", "not-a-buffer",
        "floor-not-a-buffer", "float-nrows"])
def test_out_of_contract_input_raises(backend, args, error, message):
    """Both backends check their input the same way."""
    with pytest.raises(error, match=message):
        backend.reduce_faces(*args)


#: no row of TABLE cleared
CLEARED = np.zeros(3, dtype=bool)


@pytest.mark.parametrize("args,error,message", [
    ((np.array([[0, -2]]), 3, 2, CLEARED), ValueError,
     "column 0 has the face -2, outside -1..2"),
    ((TABLE, 2, 2, CLEARED[:2]), ValueError,
     "column 1 has the face 2, outside -1..1"),
    ((np.array([[0, 1], [2, 2]]), 3, 2, CLEARED), ValueError,
     "column 1 has the row 2 twice"),
    ((TABLE, 3, 2, CLEARED[:2]), ValueError,
     "cleared has 2 entries but there are 3 rows"),
    ((TABLE, 3, 2, np.zeros(4, dtype=bool)), ValueError,
     "cleared has 4 entries but there are 3 rows"),
    ((TABLE, 3, 2, CLEARED.astype(np.int64)), ValueError,
     "cleared must be a 1-d C-contiguous bool array"),
    ((TABLE, 3, 2, CLEARED.astype(np.uint8)), ValueError, "cleared must be"),
    ((TABLE, 3, 2, np.zeros(6, dtype=bool)[::2]), ValueError,
     "cleared must be"),
    ((TABLE, 3, 2, np.zeros((3, 1), dtype=bool)), ValueError,
     "cleared must be"),
    ((TABLE.astype(np.int32), 3, 2, CLEARED), ValueError,
     "face table must be"),
    ((TABLE, 1 << 63, 2, CLEARED), ValueError, "nrows"),
    ((TABLE, 3, 0, CLEARED), ValueError, r"q must be a prime in \[2, 2\^31\)"),
    ((TABLE, 3, 1 << 31, CLEARED), ValueError, "q must be a prime"),
    ((TABLE, 3, 2, [False] * 3), TypeError, None),
    ((TABLE.tolist(), 3, 2, CLEARED), TypeError, None),
], ids=["negative-row", "row-beyond-nrows", "repeated-row", "cleared-short",
        "cleared-long", "cleared-int64", "cleared-uint8",
        "cleared-not-contiguous", "cleared-ndim", "table-int32",
        "row-beyond-int64", "order-zero", "order-too-large",
        "cleared-not-a-buffer", "not-a-buffer"])
def test_coboundary_out_of_contract_input_raises(backend, args, error,
                                                 message):
    """Both backends check ``reduce_cofaces``'s input the same way."""
    with pytest.raises(error, match=message):
        backend.reduce_cofaces(*args)


@pytest.mark.parametrize("col_rows,col_coeffs,q,error,message", [
    ([[-1]], [[1]], 2, ValueError, "rows of column 0"),
    ([[0, 0]], [[1, 1]], 2, ValueError, "rows of column 0"),
    ([[0], [2, 1]], [[1], [1, 1]], 2, ValueError, "rows of column 1"),
    ([[1 << 63]], [[1]], 2, ValueError, "rows of column 0"),
    ([[0, 1]], [[1]], 2, ValueError, "column 0 has 2 rows but 1 coefficients"),
    ([[0], [1]], [[1]], 2, ValueError, "2 columns of rows but 1 of coefficients"),
    ([[0, 1]], [[1, -3]], 3, ValueError, "column 0 has a coefficient that is 0 mod 3"),
    ([[0]], [[1]], 1, ValueError, "field order"),
    ([[0]], [[1]], 1 << 31, ValueError, "field order"),
    ([[0.0]], [[1]], 2, TypeError, "column 0 holds something other than an int"),
], ids=["negative-row", "repeated-row", "decreasing-rows", "row-beyond-int64",
        "column-lengths", "column-counts", "zero-coefficient", "order-too-small",
        "order-too-large", "float-row"])
def test_list_oracle_out_of_contract_input_raises(col_rows, col_coeffs, q,
                                                  error, message):
    """The list reduction, the oracle of both backends, checks its own
    contract."""
    with pytest.raises(error, match=message):
        reduce_columns(col_rows, col_coeffs, q)


W = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


@pytest.mark.parametrize("args,error,message", [
    ((W[0], INF, 2, 10), ValueError, "w must be a 2-d C-contiguous float64"),
    ((W.astype(np.float32), INF, 2, 10), ValueError, "w must be"),
    ((W.astype(np.int64), INF, 2, 10), ValueError, "w must be"),
    ((W[:, ::2], INF, 2, 10), ValueError, "w must be"),
    ((W[:2], INF, 2, 10), ValueError, "w must be square, got 2 x 3"),
    ((W, INF, -1, 10), ValueError, "max_dim must be >= 0, got -1"),
    ((W, INF, 2, -1), ValueError, "limit must be >= 0, got -1"),
    ((W, INF, 2, float("nan")), TypeError, None),
    ((W, INF, 2, 10.0), TypeError, None),
    ((W, 0.5, 2, 10), ValueError, r"p must lie in \[1, inf\], got 0.5"),
    ((W, 0, 2, 10), ValueError, r"p must lie in \[1, inf\], got 0"),
    ((W, -INF, 2, 10), ValueError, "p must lie in"),
    ((W, float("nan"), 2, 10), ValueError, "p must lie in"),
    ((W.tolist(), INF, 2, 10), TypeError, None),
    ((W, INF, 2.0, 10), TypeError, None),
    ((W, INF, 2, "10"), TypeError, None),
    ((W, "2", 2, 10), TypeError, None),
    ((W, None, 2, 10), TypeError, None),
], ids=["ndim", "float32", "int64", "not-contiguous", "not-square",
        "negative-max-dim", "negative-limit", "nan-limit", "float-limit",
        "p-below-one", "p-zero", "p-minus-inf", "p-nan", "not-a-buffer",
        "float-max-dim", "string-limit", "string-p", "no-p"])
def test_search_out_of_contract_input_raises(backend, args, error, message):
    with pytest.raises(error, match=message):
        backend.expand(*args)


def test_search_stops_at_the_budget(backend):
    """The 3-point space has 3 * 2^k tuples in degree k: 21 up to degree
    2, so a budget of 20 raises and one of 21 passes; a huge ``max_dim``
    costs nothing before the budget stops the search, nor past the first
    empty degree, where the degrees end."""
    found = backend.expand(W, 1.0, 2, 21)
    assert [len(tuples) for tuples, _, _, _ in found] == [3, 6, 12]
    for limit, max_dim in ((20, 2), (2, 0), (100, 10 ** 6), (100, 1 << 70)):
        with pytest.raises(BudgetExceededError,
                           match=f"exceeded the budget of {limit}$"):
            backend.expand(W, 1.0, max_dim, limit)
    assert len(backend.expand(W, 1.0, 0, 3)) == 1
    for max_dim in (1, 3, 1 << 70):
        assert [len(tuples) for tuples, _, _, _ in backend.expand(
            np.full((2, 2), INF), INF, max_dim, sys.maxsize)] == [2, 0]


def test_search_sorts_each_degree(backend):
    """On the 3-point line at p = 1 and p = 2, each degree comes back in
    (birth, vertices) order, with its distinct births, birth codes and
    face table; -0.0 is the top 0 and no birth is -0.0."""
    found = backend.expand(W, 1.0, 1, sys.maxsize)
    tuples, level, code, faces = found[1]
    assert tuples.tolist() == [[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]]
    assert level.tolist() == [1.0, 2.0] and code.tolist() == [0] * 4 + [1] * 2
    assert faces.tolist() == [[1, 0], [0, 1], [2, 1], [1, 2], [2, 0], [0, 2]]
    assert [a.tolist() for a in found[0]] == [[[0], [1], [2]], [0.0],
                                              [0, 0, 0], [[-1], [-1], [-1]]]
    # at p = 2 the births of degree 1 are the square roots of the tops
    _, level, _, _ = backend.expand(W, 2.0, 1, sys.maxsize)[1]
    assert level.tolist() == [1.0, 2.0 ** 0.5]
    zeros = np.array([[0.0, -0.0], [-0.0, 0.0]])
    for p in (1.0, INF):
        tuples, level, code, faces = backend.expand(zeros, p, 2,
                                                    sys.maxsize)[2]
        assert tuples.tolist() == [[0, 1, 0], [1, 0, 1]]
        assert level.tolist() == [0.0] and not np.signbit(level).any()
        assert code.tolist() == [0, 0]
        # deleting the middle vertex makes a degenerate face
        assert faces.tolist() == [[1, -1, 0], [0, -1, 1]]


def face_args(backend, degree=2):
    """``reduce_faces`` arguments for the face table ``backend.expand``
    gives a degree of the complete 3-point space, each its own array."""
    found = backend.expand(W, 1.0, degree, sys.maxsize)
    table = found[degree][3].copy()
    return {"table": table, "nrows": len(found[degree - 1][0]), "q": 2,
            "floor": np.zeros(len(table), dtype=np.int64)}


def _set(index, value):
    def change(args):
        args["table"][index] = value
    return change


def _replace(name, make):
    def change(args):
        args[name] = make(args[name])
    return change


def _repeat_the_prefix(args):
    args["table"][1, 0] = args["table"][1, -1]


@pytest.mark.parametrize("change,error,message", [
    (_set((3, 2), 6), ValueError, "column 3 has the face 6, outside -1..5"),
    (_set((0, 2), -2), ValueError, "column 0 has the face -2, outside -1..5"),
    (_set((2, 0), 6), ValueError, "column 2 has the face 6, outside -1..5"),
    (_set((0, 0), -2), ValueError, "column 0 has the face -2"),
    (_replace("nrows", lambda n: 2), ValueError, "outside -1..1"),
    (_replace("nrows", lambda n: -1), ValueError,
     r"nrows must be a count of rows in \[0, 2\^63\), got -1"),
    (_replace("nrows", lambda n: 1 << 63), ValueError,
     "nrows must be a count of rows"),
    (_replace("nrows", float), TypeError, None),
    (_repeat_the_prefix, ValueError, "column 1 has the row 0 twice"),
    (_replace("table", lambda a: np.repeat(a, 2, axis=0)[::2]), ValueError,
     "the face table must be"),
    (_replace("table", lambda a: a.tolist()), TypeError, None),
], ids=["prefix-beyond-rows", "prefix-negative", "face-beyond-rows",
        "face-below-minus-one", "nrows-below-a-prefix", "nrows-negative",
        "nrows-beyond-int64", "nrows-float", "repeated-row", "not-contiguous",
        "not-a-buffer"])
def test_face_table_out_of_contract_input_raises(backend, change, error,
                                                 message):
    """A face table from ``expand`` reduces as the list oracle does; with
    one entry or argument out of contract, ``reduce_faces``, which checks
    every table it is given, raises on both backends.  The last column is
    the prefix: a face like the others."""
    args = face_args(backend)
    assert args["table"].shape == (12, 3)
    assert backend.reduce_faces(**args).tolist() == oracle(args["table"], 2)
    change(args)
    with pytest.raises(error, match=message):
        backend.reduce_faces(**args)


def test_backends_have_the_same_signatures(compiled_kernels):
    """``lpnerve.kernels`` exports only entries that both backends have
    (and the list oracle), and each compiled entry names its parameters
    as its twin does, so a call by keyword reads the same on either."""
    entries = [name for name in kernels.__all__
               if callable(getattr(kernels, name)) and name != "reduce_columns"]
    assert entries == ["expand", "reduce_faces", "reduce_cofaces"]
    for name in entries:
        compiled = inspect.signature(getattr(compiled_kernels, name))
        twin = inspect.signature(getattr(_reduction_py, name))
        assert list(compiled.parameters) == list(twin.parameters)


def test_face_table_fuzz_raises_or_agrees(compiled_kernels):
    """Random entries written into the face tables ``expand`` gives
    degrees 2 and 3: the compiled ``reduce_faces`` and ``reduce_cofaces``
    (with random rows cleared) raise the twin's error, or return the
    array the twin does (None where Z flagged); they never read outside
    their buffers (an out-of-range face would crash them)."""
    rng = random.Random(89)
    for degree in (2, 3):
        for _ in range(300):
            args = face_args(_reduction_py, degree)
            args["q"] = rng.choice([2, 3, 0])
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.2:  # its memory grows with nrows
                    args["nrows"] = rng.choice([-2, -1, 0, 1, 2, 3, 5, 6, 12])
                    continue
                flat = args["table"].reshape(-1)
                flat[rng.randrange(len(flat))] = rng.choice(
                    [-2, -1, 0, 1, 2, 3, 5, 6, 12, 1 << 30])
            coargs = dict(args, q=rng.choice([2, 3]), cleared=np.array(
                [rng.random() < 0.3 for _ in range(max(args["nrows"], 0))],
                dtype=bool))
            del coargs["floor"]
            results = []
            for module in (compiled_kernels, _reduction_py):
                for reduce, kwargs in ((module.reduce_faces, args),
                                       (module.reduce_cofaces, coargs)):
                    try:
                        lows = reduce(**kwargs)
                        results.append(lows if lows is None
                                       else (lows.dtype, lows.tolist()))
                    except ValueError as exc:
                        results.append(str(exc))
            assert results[:2] == results[2:]


def test_sparse_huge_rows(backend):
    """Rows far above the number of nonzeros: a few columns near the top
    of 2^20 rows, which the pivot array indexes directly; the lows come
    back as they went in, and agree with the list oracle, which keys its
    pivots by row."""
    top = 1 << 20
    assert run(backend, [[top - 1]], top, 2) == [top - 1]
    assert run(backend, [[5, top - 1], [top - 1, -1]], top, 2) == [top - 1, 5]
    rng = random.Random(79)
    pool = sorted(rng.sample(range(top), 12))
    for q in (2, 3, 7):
        for _ in range(20):
            table = np.full((rng.randint(1, 15), 4), -1, dtype=np.int64)
            for column in table:
                k = rng.randint(0, 4)
                column[rng.sample(range(4), k)] = rng.sample(pool, k)
            assert run(backend, table, top, q) == oracle(table, q)


def test_build_without_a_compiler_falls_back(tmp_path):
    """The kernel is optional: with a C compiler that always fails, the
    build still succeeds, and the package it builds runs in Python."""
    root = KERNELS.parents[2]
    lib = tmp_path / "lib"
    subprocess.run([sys.executable, "setup.py", "-q", "build",
                    "--build-base", str(tmp_path / "build"), "--build-lib", str(lib)],
                   cwd=root, env=dict(os.environ, CC="false"), check=True,
                   capture_output=True)
    done = subprocess.run(
        [sys.executable, "-c", "from lpnerve import kernels; "
         "print(kernels.BACKEND, kernels.__file__)"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(lib)), check=True,
        capture_output=True, text=True)
    backend, path = done.stdout.split()
    assert backend == "python"
    assert path.startswith(str(lib))
