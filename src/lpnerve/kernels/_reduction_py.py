"""Pure-Python persistence column reduction over a prime field.

Reference implementation; the compiled extension in ``_reduction.c``
implements the same contract.  Columns are given as parallel lists of
strictly increasing int rows in [0, 2^63) and int coefficients that are
nonzero mod q; a negative coefficient means its residue mod q.  The
return value is ``low[j]``: the row index of the lowest entry of the
reduced column j, or -1 if the column reduced to zero.  The field order
q must be below 2^31, so that the compiled kernel's products fit in
int64.  Input outside this contract raises ValueError, or TypeError for
something other than an int.
"""

from __future__ import annotations

from typing import List

#: bound on the field order: (q - 1)^2 must fit in int64
MAX_ORDER = 1 << 31


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
