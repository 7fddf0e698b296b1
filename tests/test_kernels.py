import random
import re

import pytest

from lpnerve import kernels
from lpnerve.homology import Coefficients, persistence_barcode
from lpnerve.kernels import reduce_columns, reduce_columns_py
from lpnerve.nerve import enumerate_complex
from lpnerve.values import INF
from lpnerve.vgraph import asymmetrize
from util import KERNELS, random_honest_space


def random_columns(rng, n, q, density=0.4):
    col_rows, col_coeffs = [], []
    for _ in range(n):
        rows = sorted(rng.sample(range(n), rng.randint(0, max(1, int(n * density)))))
        coeffs = [rng.randint(1, q - 1) for _ in rows]
        col_rows.append(rows)
        col_coeffs.append(coeffs)
    return col_rows, col_coeffs


def test_empty_matrix():
    assert reduce_columns([], [], 2) == []
    assert reduce_columns_py([], [], 2) == []


def test_small_reduction():
    # triangle boundary: two columns share a pivot, the third reduces to zero
    col_rows = [[], [], [], [0, 1], [1, 2], [0, 2]]
    col_coeffs = [[], [], [], [1, 1], [1, 1], [1, 1]]
    lows = reduce_columns(col_rows, col_coeffs, 2)
    assert lows[:3] == [-1, -1, -1]
    assert lows[3] == 1
    assert lows[4] == 2
    assert lows[5] == -1  # cycle created
    assert reduce_columns_py(col_rows, col_coeffs, 2) == lows


def test_backends_agree(compiled_reduction):
    rng = random.Random(61)
    for q in (2, 3, 5, 7):
        for _ in range(25):
            n = rng.randint(1, 60)
            col_rows, col_coeffs = random_columns(rng, n, q)
            assert compiled_reduction.reduce_columns(col_rows, col_coeffs, q) == \
                reduce_columns_py(col_rows, col_coeffs, q)


def test_pivots_are_unique():
    rng = random.Random(67)
    col_rows, col_coeffs = random_columns(rng, 60, 5)
    lows = reduce_columns(col_rows, col_coeffs, 5)
    used = [low for low in lows if low >= 0]
    assert len(used) == len(set(used))


def test_backend_flag():
    assert kernels.BACKEND in ("compiled", "python")


def test_sweep_kernel_small_codes():
    if kernels.fwsweep is None:
        pytest.skip("sweep kernel not built")
    failures, first_bad = kernels.fwsweep.sweep_four_vertex(0, 10000)
    assert failures == 0
    assert first_bad == -1


def test_backends_give_the_same_barcodes(compiled_reduction, monkeypatch):
    rng = random.Random(73)
    for q in (2, 3, 5):
        X = random_honest_space(rng, rng.randint(4, 7))
        for space in (X, asymmetrize(X)):
            fc = enumerate_complex(space, INF, 3)
            monkeypatch.setattr(kernels, "reduce_columns",
                                compiled_reduction.reduce_columns)
            compiled = persistence_barcode(fc, 2, Coefficients(q)).bars
            monkeypatch.setattr(kernels, "reduce_columns", reduce_columns_py)
            assert compiled == persistence_barcode(fc, 2, Coefficients(q)).bars


#: Cython's quote of a .pyx line in the generated C: a comment headed by
#: the source position, whose line N carries this marker
QUOTE_HEADER = re.compile(r'^\s*/\* "lpnerve/kernels/(\w+)\.pyx":(\d+)$')
QUOTE_MARK = "# <<<<<<<<<<<<<<"


@pytest.mark.parametrize("name", ["_reduction", "_fwsweep"])
def test_committed_c_matches_its_pyx(name):
    """The C that setup.py compiles was generated from the .pyx as it
    stands: every source line the C quotes is still that line of the .pyx.
    On a mismatch, regenerate with ``cython -3`` (see README)."""
    pyx = (KERNELS / f"{name}.pyx").read_text().splitlines()
    c = (KERNELS / f"{name}.c").read_text().splitlines()
    quoted = 0
    for i, line in enumerate(c):
        header = QUOTE_HEADER.match(line)
        if header is None:
            continue
        assert header.group(1) == name
        n = int(header.group(2))
        end = c.index("*/", i)
        marked = [q for q in c[i + 1:end] if q.endswith(QUOTE_MARK)]
        assert len(marked) == 1, f"{name}.c:{i + 1}"
        assert marked[0][3:-len(QUOTE_MARK)].rstrip() == pyx[n - 1].rstrip(), \
            f"{name}.c:{i + 1} quotes a different line {n} of {name}.pyx"
        quoted += 1
    assert quoted > 100  # the generated C quotes its source throughout
