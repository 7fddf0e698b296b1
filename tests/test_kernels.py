import os
import random
import subprocess
import sys

import pytest

from lpnerve import kernels
from lpnerve.homology import Coefficients, persistence_barcode
from lpnerve.kernels import _reduction_py, reduce_columns
from lpnerve.nerve import enumerate_complex
from lpnerve.values import INF
from lpnerve.vgraph import asymmetrize
from util import KERNELS, random_honest_space


def random_columns(rng, n, q, density=0.4):
    """Signed coefficients, as ``chain.columns`` passes boundary signs of -1."""
    col_rows, col_coeffs = [], []
    for _ in range(n):
        rows = sorted(rng.sample(range(n), rng.randint(0, max(1, int(n * density)))))
        coeffs = [rng.choice((-1, 1)) * rng.randint(1, q - 1) for _ in rows]
        col_rows.append(rows)
        col_coeffs.append(coeffs)
    return col_rows, col_coeffs


def test_empty_matrix():
    assert reduce_columns([], [], 2) == []
    assert _reduction_py.reduce_columns([], [], 2) == []


def test_small_reduction():
    # triangle boundary: two columns share a pivot, the third reduces to zero
    col_rows = [[], [], [], [0, 1], [1, 2], [0, 2]]
    col_coeffs = [[], [], [], [1, 1], [1, 1], [1, 1]]
    lows = reduce_columns(col_rows, col_coeffs, 2)
    assert lows[:3] == [-1, -1, -1]
    assert lows[3] == 1
    assert lows[4] == 2
    assert lows[5] == -1  # cycle created
    assert _reduction_py.reduce_columns(col_rows, col_coeffs, 2) == lows


def test_backends_agree(compiled_reduction):
    rng = random.Random(61)
    for q in (2, 3, 5, 7, 2147483647):  # the largest prime below MAX_ORDER
        for _ in range(25):
            n = rng.randint(1, 60)
            col_rows, col_coeffs = random_columns(rng, n, q)
            assert compiled_reduction.reduce_columns(col_rows, col_coeffs, q) == \
                _reduction_py.reduce_columns(col_rows, col_coeffs, q)


def test_pivots_are_unique():
    rng = random.Random(67)
    col_rows, col_coeffs = random_columns(rng, 60, 5)
    lows = reduce_columns(col_rows, col_coeffs, 5)
    used = [low for low in lows if low >= 0]
    assert len(used) == len(set(used))


def test_backend_flag():
    assert kernels.BACKEND in ("compiled", "python")


def test_backends_give_the_same_barcodes(compiled_reduction, monkeypatch):
    rng = random.Random(73)
    for q in (2, 3, 5):
        X = random_honest_space(rng, rng.randint(4, 7))
        for space in (X, asymmetrize(X)):
            fc = enumerate_complex(space, INF, 3)
            monkeypatch.setattr(kernels, "reduce_columns",
                                compiled_reduction.reduce_columns)
            compiled = persistence_barcode(fc, 2, Coefficients(q)).bars
            monkeypatch.setattr(kernels, "reduce_columns",
                                _reduction_py.reduce_columns)
            assert compiled == persistence_barcode(fc, 2, Coefficients(q)).bars


@pytest.fixture(params=["compiled", "python"])
def backend(request):
    if request.param == "python":
        return _reduction_py
    return request.getfixturevalue("compiled_reduction")


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
def test_out_of_contract_input_raises(backend, col_rows, col_coeffs, q, error,
                                      message):
    """Both backends check their input the same way; the compiled one
    once read past its arrays on such columns and crashed the process."""
    with pytest.raises(error, match=message):
        backend.reduce_columns(col_rows, col_coeffs, q)


def test_sparse_huge_rows(backend):
    """Rows far above the number of nonzeros: the compiled kernel keys
    its pivot table by row instead of indexing it by row (sized by the
    largest row, which once raised MemoryError), and both backends give
    the rows back as they came in."""
    assert backend.reduce_columns([[1 << 62]], [[1]], 2) == [1 << 62]
    assert backend.reduce_columns([[5, (1 << 63) - 1], [(1 << 63) - 1]],
                                  [[1, 1], [1]], 2) == [(1 << 63) - 1, 5]
    rng = random.Random(79)
    pool = sorted(rng.sample(range(1 << 62), 12))
    for q in (2, 3, 7):
        for _ in range(20):
            col_rows = [sorted(rng.sample(pool, rng.randint(0, 4)))
                        for _ in range(rng.randint(1, 15))]
            col_coeffs = [[rng.choice((-1, 1)) * rng.randint(1, q - 1)
                           for _ in rows] for rows in col_rows]
            assert backend.reduce_columns(col_rows, col_coeffs, q) == \
                _reduction_py.reduce_columns(col_rows, col_coeffs, q)


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
