import os
import random
import subprocess
import sys

import numpy as np
import pytest

from lpnerve import kernels
from lpnerve.chain import (CUSTOM_GRID, EMPTY, STRICT_PREDECESSORS, SieveSpec,
                           columns)
from lpnerve.homology import (INTEGERS, Coefficients, homology_table,
                              persistence_barcode)
from lpnerve.kernels import _reduction_py, reduce_columns, reduce_faces
from lpnerve.nerve import enumerate_complex
from lpnerve.values import INF
from lpnerve.vgraph import asymmetrize
from util import KERNELS, random_floors, random_honest_space, random_vgraph

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


def run(backend, table, nrows, q):
    """The return value of ``backend.reduce_faces`` and the lows it wrote."""
    table = np.asarray(table, dtype=np.int64)
    lows = np.full(len(table), -2, dtype=np.int64)
    return backend.reduce_faces(table, nrows, q, lows), lows.tolist()


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


@pytest.fixture(params=["compiled", "python"])
def backend(request):
    if request.param == "python":
        return _reduction_py
    return request.getfixturevalue("compiled_reduction")


def test_empty_matrix():
    assert reduce_columns([], [], 2) == []
    for module in (kernels, _reduction_py):
        for q in (0, 2, 3):
            assert run(module, np.zeros((0, 3), dtype=np.int64), 0, q) == (0, [])
            assert run(module, np.full((2, 2), -1), 0, q) == (0, [-1, -1])


def test_small_reduction():
    # three vertices and the triangle's boundary: two edges share a pivot,
    # the third reduces to zero; edge (a, b) has faces b, then a
    table = np.array([[-1, -1]] * 3 + [[1, 0], [2, 1], [2, 0]])
    expected = [-1, -1, -1, 1, 2, -1]  # a cycle is created
    assert oracle(table, 2) == expected
    for module in (kernels, _reduction_py):
        for q in (0, 2, 3):
            assert run(module, table, 3, q) == (2, expected)


def test_backends_agree(compiled_reduction):
    """Over GF(2), GF(3), larger fields and Z, on tables of every width up
    to 5: the same return value, and the same lows unless Z flagged."""
    rng = random.Random(61)
    flagged = 0
    for q in (2, 3, 5, 7, BIG_PRIME, 0):
        for _ in range(40):
            nrows = rng.randint(1, 40)
            table = random_table(rng, rng.randint(0, 60), nrows,
                                 rng.randint(1, 5))
            compiled = run(compiled_reduction, table, nrows, q)
            python = run(_reduction_py, table, nrows, q)
            assert compiled[0] == python[0]
            if compiled[0] >= 0:
                assert compiled == python
            flagged += compiled[0] < 0
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
            lows = oracle(table, q)
            assert run(backend, table, nrows, q) == (
                sum(low >= 0 for low in lows), lows)
        count, lows = run(backend, table, nrows, 0)
        if count >= 0:
            assert lows == oracle(table, 2) == oracle(table, BIG_PRIME)
            assert count == sum(low >= 0 for low in lows)
            checked_z += 1
    assert checked_z > 20


def test_z_flags_a_planted_non_unit_pivot(backend):
    """r_0 - r_1, then r_1 + r_0: the second reduces to 2 r_0 over Z, a
    pivot of 2, which is zero over GF(2) and a pivot over GF(3)."""
    table = np.array([[0, 1, -1], [1, -1, 0]])
    assert run(backend, table, 2, 0)[0] == -1
    assert run(backend, table, 2, 2) == (1, [1, -1])
    assert run(backend, table, 2, 3) == (2, [1, 0])


def test_z_flags_int64_overflow(backend, compiled_reduction):
    """The Fibonacci column reduces to zero over Z while its entries fit
    in int64, and is flagged from the first n where one would not; both
    backends flag at the same n."""
    assert run(backend, fibonacci_table(20), 21, 0) == (
        21, list(range(21)) + [-1])
    assert run(backend, fibonacci_table(120), 121, 0)[0] == -1
    first = [n for n in range(80, 100)
             if run(backend, fibonacci_table(n), n + 1, 0)[0] < 0][0]
    assert 85 < first < 95
    assert run(backend, fibonacci_table(first - 1), first, 0) == (
        first, list(range(first)) + [-1])
    assert run(compiled_reduction, fibonacci_table(first), first + 1, 0)[0] \
        == run(_reduction_py, fibonacci_table(first), first + 1, 0)[0] == -1
    for q in (2, 3, BIG_PRIME):
        assert run(backend, fibonacci_table(120), 121, q) == (
            121, list(range(121)) + [-1])


def test_pivots_are_unique():
    rng = random.Random(67)
    for q in (0, 5):
        count, lows = run(kernels, random_table(rng, 60, 40, 4), 40, q)
        used = [low for low in lows if low >= 0]
        assert count < 0 or len(used) == len(set(used)) == count


def test_backend_flag():
    assert kernels.BACKEND in ("compiled", "python")


def test_backends_give_the_same_barcodes(compiled_reduction, monkeypatch):
    rng = random.Random(73)
    for q in (2, 3, 5):
        X = random_honest_space(rng, rng.randint(4, 7))
        for space in (X, asymmetrize(X)):
            fc = enumerate_complex(space, INF, 3)
            monkeypatch.setattr(kernels, "reduce_faces",
                                compiled_reduction.reduce_faces)
            compiled = persistence_barcode(fc, 2, Coefficients(q)).bars
            monkeypatch.setattr(kernels, "reduce_faces",
                                _reduction_py.reduce_faces)
            assert compiled == persistence_barcode(fc, 2, Coefficients(q)).bars


def test_backends_give_the_same_tables(compiled_reduction, monkeypatch):
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
                                        compiled_reduction.reduce_faces)
                    compiled = homology_table(fc, [0, 1, 2], sieve, ring)
                    monkeypatch.setattr(kernels, "reduce_faces",
                                        _reduction_py.reduce_faces)
                    assert compiled == homology_table(fc, [0, 1, 2], sieve,
                                                      ring)


def _writable(n):
    return np.zeros(n, dtype=np.int64)


def _read_only(n):
    lows = np.zeros(n, dtype=np.int64)
    lows.flags.writeable = False
    return lows


TABLE = np.array([[0, 1], [1, 2]], dtype=np.int64)


@pytest.mark.parametrize("args,error,message", [
    ((TABLE[0], 3, 2, _writable(2)), ValueError, "face table must be"),
    ((TABLE.astype(np.int32), 3, 2, _writable(2)), ValueError,
     "face table must be"),
    ((TABLE.astype(np.float64), 3, 2, _writable(2)), ValueError,
     "face table must be"),
    ((TABLE.T, 3, 2, _writable(2)), ValueError, "face table must be"),
    ((np.array([[0, -2]]), 3, 2, _writable(1)), ValueError,
     "column 0 has the face -2, outside -1..2"),
    ((TABLE, 2, 2, _writable(2)), ValueError,
     "column 1 has the face 2, outside -1..1"),
    ((TABLE, 1 << 63, 2, _writable(2)), ValueError, "nrows"),
    ((np.array([[0, 1], [2, 2]]), 3, 2, _writable(2)), ValueError,
     "column 1 has the row 2 twice"),
    ((TABLE, 3, 1, _writable(2)), ValueError, "q must be 0"),
    ((TABLE, 3, -2, _writable(2)), ValueError, "q must be 0"),
    ((TABLE, 3, 1 << 31, _writable(2)), ValueError, "q must be 0"),
    ((TABLE, 3, 2, _writable(3)), ValueError,
     "2 columns but lows has 3 slots"),
    ((TABLE, 3, 2, _read_only(2)), ValueError, "lows must be a writable"),
    ((TABLE, 3, 2, np.zeros((2, 1), dtype=np.int64)), ValueError,
     "lows must be"),
    (([[0, 1]], 3, 2, _writable(1)), TypeError, None),
    ((TABLE, 3.0, 2, _writable(2)), TypeError, None),
], ids=["ndim", "itemsize", "float-row", "not-contiguous", "negative-row",
        "row-beyond-nrows", "row-beyond-int64", "repeated-row",
        "order-too-small", "order-negative", "order-too-large",
        "column-counts", "lows-read-only", "lows-ndim", "not-a-buffer",
        "float-nrows"])
def test_out_of_contract_input_raises(backend, args, error, message):
    """Both backends check their input the same way, and raise before
    they write to ``lows``."""
    lows = args[3]
    before = lows.copy()
    with pytest.raises(error, match=message):
        backend.reduce_faces(*args)
    assert (lows == before).all()


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


def test_sparse_huge_rows(backend):
    """Rows far above the number of nonzeros: a few columns near the top
    of 2^20 rows, which the pivot array indexes directly; the lows come
    back as they went in, and agree with the list oracle, which keys its
    pivots by row."""
    top = 1 << 20
    assert run(backend, [[top - 1]], top, 2) == (1, [top - 1])
    assert run(backend, [[5, top - 1], [top - 1, -1]], top, 2) == (
        2, [top - 1, 5])
    rng = random.Random(79)
    pool = sorted(rng.sample(range(top), 12))
    for q in (2, 3, 7):
        for _ in range(20):
            table = np.full((rng.randint(1, 15), 4), -1, dtype=np.int64)
            for column in table:
                k = rng.randint(0, 4)
                column[rng.sample(range(4), k)] = rng.sample(pool, k)
            lows = oracle(table, q)
            assert run(backend, table, top, q) == (
                sum(low >= 0 for low in lows), lows)


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
