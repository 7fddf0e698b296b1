"""Pure-Python column reductions over a prime field, and over Z.

``reduce_faces`` is the reference implementation of the compiled kernel
in ``_reduction.c``, with the same contract.  ``table`` is a 2-d
C-contiguous int64 buffer: row j lists the faces of column j, entry i a
row index in [0, nrows) with the sign (-1)^i, or -1 for a face not kept;
no row may repeat within a column.  ``lows`` is a writable 1-d int64
buffer with one slot per column, filled with the lowest row of each
reduced column, or -1 where it reduces to zero.  The return value is the
number of pivots.  q is a prime below 2^31, so that the compiled kernel's
products fit in int64, or 0 for the integers: then every pivot must be
+-1 and every entry, and every product that forms one, must stay below
2^63 in magnitude, and the return value is -1 as soon as either fails.
Input outside this contract raises ValueError, or TypeError for
something other than a buffer or an int.

``reduce_columns`` is the plain reduction over GF(q) of sparse columns
given as lists: parallel lists of strictly increasing int rows in
[0, 2^63) and int coefficients that are nonzero mod q (a negative one
means its residue mod q).  It returns the list of lows.  The library does
not call it; it is the test oracle of ``reduce_faces``.
"""

from __future__ import annotations

import operator
from typing import Dict, List

import numpy as np

#: bound on the field order: (q - 1)^2 must fit in int64
MAX_ORDER = 1 << 31
#: entries over Z must stay strictly inside (-2^63, 2^63)
_INT64 = 1 << 63


def reduce_faces(table, nrows, q, lows) -> int:
    q = operator.index(q)
    if q != 0 and not 2 <= q < MAX_ORDER:
        raise ValueError(f"q must be 0 (the integers) or a prime in "
                         f"[2, 2^31), got {q}")
    nrows = operator.index(nrows)
    if not 0 <= nrows < _INT64:
        raise ValueError(f"nrows must be a count of rows in [0, 2^63), "
                         f"got {nrows}")
    faces = _int64_array(table, 2, "the face table")
    out = _int64_array(lows, 1, "lows", writable=True)
    ncols, width = faces.shape
    if len(out) != ncols:
        raise ValueError(f"the face table has {ncols} columns but lows has "
                         f"{len(out)} slots")
    _check_table(faces, nrows)
    counts = (faces >= 0).sum(axis=1)
    live = np.flatnonzero(counts)  # a column with no face has no pivot
    faces = faces[live]
    order = np.argsort(np.where(faces >= 0, faces, np.iinfo(np.int64).max),
                       axis=1, kind="stable")
    minus = -1 if q == 0 else q - 1
    found: List[int] = [-1] * ncols
    pivots: Dict[int, Dict[int, int]] = {}  # low -> its column, low entry 1
    for j, m, rows, signs in zip(
            live.tolist(), counts[live].tolist(),
            np.take_along_axis(faces, order, axis=1).tolist(),
            np.where(order % 2, minus, 1).tolist()):
        col = dict(zip(rows[:m], signs[:m]))
        low = rows[m - 1]
        while low in pivots:
            if not _subtract(col, pivots[low], col[low], q):
                return -1  # an entry over Z reached 2^63
            if not col:
                break
            low = max(col)
        if not col:
            continue
        unit = col[low]
        if q == 0 and unit != 1:
            if unit != -1:
                return -1
            col = {r: -c for r, c in col.items()}  # 1/u = u over Z
        elif unit != 1:
            inverse = pow(unit, q - 2, q)
            col = {r: c * inverse % q for r, c in col.items()}
        pivots[low] = col
        found[j] = low
    out[:] = found
    return len(pivots)


def _int64_array(obj, ndim: int, what: str, writable: bool = False
                 ) -> np.ndarray:
    """``obj`` as an int64 array on its own buffer, which must have the
    given ndim and be C-contiguous (and writable if asked)."""
    view = memoryview(obj)
    fmt = view.format[1:] if view.format[:1] in ("@", "=") else view.format
    if (view.ndim != ndim or view.itemsize != 8 or fmt not in ("q", "l")
            or not view.c_contiguous or (writable and view.readonly)):
        raise ValueError(f"{what} must be a {'writable ' if writable else ''}"
                         f"{ndim}-d C-contiguous int64 array")
    return np.asarray(view)


def _check_table(faces: np.ndarray, nrows: int) -> None:
    """Every face in -1..nrows-1, no row twice in a column; ValueError at
    the first column that breaks this, as the compiled kernel finds it."""
    ordered = np.sort(faces, axis=1)
    bad = (((faces < -1) | (faces >= nrows)).any(axis=1)
           | ((ordered[:, 1:] == ordered[:, :-1])
              & (ordered[:, 1:] >= 0)).any(axis=1))
    for j in np.flatnonzero(bad)[:1].tolist():
        face = faces[j].tolist()
        for i, row in enumerate(face):
            if not -1 <= row < nrows:
                raise ValueError(f"column {j} has the face {row}, outside "
                                 f"-1..{nrows - 1}")
            if row >= 0 and row in face[:i]:
                raise ValueError(f"column {j} has the row {row} twice")


def _subtract(col: Dict[int, int], pivot: Dict[int, int], f: int,
              q: int) -> bool:
    """col -= f * pivot in place, over GF(q), or over Z when q is 0; False
    over Z once an entry or a product reaches 2^63 in magnitude, where
    the compiled kernel's int64 would overflow."""
    scale = q - f  # -f mod q
    for r, y in pivot.items():
        if q:
            c = (col.get(r, 0) + y * scale) % q
        else:
            product = f * y
            c = col.get(r, 0) - product
            if not (-_INT64 < product < _INT64 and -_INT64 < c < _INT64):
                return False
        if c:
            col[r] = c
        else:
            col.pop(r, None)
    return True


def reduce_columns(col_rows: List[List[int]], col_coeffs: List[List[int]],
                   q: int) -> List[int]:
    if not 2 <= q < MAX_ORDER:
        raise ValueError(f"field order must be a prime in [2, 2^31), got {q}")
    ncols = len(col_rows)
    if len(col_coeffs) != ncols:
        raise ValueError(f"{ncols} columns of rows but {len(col_coeffs)} "
                         f"of coefficients")
    lows = [-1] * ncols
    pivot_of_row: dict[int, int] = {}
    rows_store: List[List[int]] = [None] * ncols  # reduced columns kept for reuse
    coeffs_store: List[List[int]] = [None] * ncols
    for j in range(ncols):
        rows = list(col_rows[j])
        coeffs = [c % q for c in col_coeffs[j]]
        _check_column(j, rows, coeffs, q)
        while rows:
            low = rows[-1]
            k = pivot_of_row.get(low)
            if k is None:
                break
            factor = (coeffs[-1] * pow(coeffs_store[k][-1], q - 2, q)) % q
            rows, coeffs = _axpy(rows, coeffs, rows_store[k], coeffs_store[k],
                                 q - factor, q)
        if rows:
            lows[j] = rows[-1]
            pivot_of_row[rows[-1]] = j
            rows_store[j] = rows
            coeffs_store[j] = coeffs
    return lows


def _check_column(j, rows, coeffs, q):
    if not all(isinstance(x, int) for x in rows + coeffs):
        raise TypeError(f"column {j} holds something other than an int")
    if len(rows) != len(coeffs):
        raise ValueError(f"column {j} has {len(rows)} rows but {len(coeffs)} "
                         f"coefficients")
    if rows and (rows[0] < 0 or rows[-1] >= 1 << 63
                 or any(a >= b for a, b in zip(rows, rows[1:]))):
        raise ValueError(f"the rows of column {j} must be strictly increasing "
                         f"integers in [0, 2^63)")
    if not all(coeffs):
        raise ValueError(f"column {j} has a coefficient that is 0 mod {q}")


def _axpy(rows_a, coeffs_a, rows_b, coeffs_b, scale, q):
    """a + scale * b over GF(q), both sparse and sorted by row."""
    out_rows: List[int] = []
    out_coeffs: List[int] = []
    i = k = 0
    na, nb = len(rows_a), len(rows_b)
    while i < na or k < nb:
        if k >= nb or (i < na and rows_a[i] < rows_b[k]):
            out_rows.append(rows_a[i])
            out_coeffs.append(coeffs_a[i])
            i += 1
        elif i >= na or rows_b[k] < rows_a[i]:
            c = (coeffs_b[k] * scale) % q
            if c:
                out_rows.append(rows_b[k])
                out_coeffs.append(c)
            k += 1
        else:
            c = (coeffs_a[i] + coeffs_b[k] * scale) % q
            if c:
                out_rows.append(rows_a[i])
                out_coeffs.append(c)
            i += 1
            k += 1
    return out_rows, out_coeffs
