"""The pure-Python twin of the compiled kernel in ``_reduction.c``: the
nerve's tuple search with its face tables (``expand``), the column
reduction of a face table over a prime field or Z (``reduce_faces``) and
that of the coboundary it transposes, over a prime field
(``reduce_cofaces``).
Each has the contract of its compiled twin; input outside it raises
ValueError, or TypeError for something other than a buffer or a number.
Arrays are read through the buffer protocol and must be C-contiguous
with the stated element type.

``expand(w, p, max_dim, limit)`` returns, per degree k from 0, the
finite-birth nondegenerate tuples sorted by (birth, vertices): their
column-major int32 vertex matrix ``tuples``, the increasing distinct
births ``level`` (float64), each row's index among them ``code`` (intp)
and the face table ``faces`` (intp, rows x (k + 1)): entry [r, i] is the
row one degree down of tuple r with vertex i deleted, or -1 where that
face is degenerate, and the last column is the prefix's row (-1 at
degree 0).  A chain sum that overflows is an infinite birth.  The
degrees end at max_dim or at the first empty one: every tuple's prefix
is a tuple.  ``w`` is the n x n float64 matrix of p-th-power distances
(plain distances at p = inf), and p lies in [1, inf].  A birth is
top^(1/p) of the tuple's top chain value (0 for a top of 0) by Python's
float power, which is libm's pow, and the top itself at p = inf; it is
never -0.0.  It raises ``BudgetExceededError`` as soon as more than
``limit`` tuples are found; ``limit`` is an int >= 0 (a float raises
TypeError).
``search(w, at_inf, max_dim, limit)`` is its raw search, which only the
twin has: per degree, with the same end, the last vertex (int32), the
top (float64) and the prefix row (intp) of each tuple, in the
lexicographic order it finds them.

``reduce_faces(table, nrows, q, floor)``: ``table`` is a 2-d int64
buffer: row j lists the faces of column j, entry i a row index in [0,
nrows) with the sign (-1)^i, or -1 for a face not kept; no row may
repeat within a column.  ``floor`` is a 1-d int64 buffer with one entry
per column, the lowest row it keeps: a face below it counts as absent,
as -1 does.  It returns a new int64 array with the lowest row of each
reduced column, or -1 where it reduces to zero.  q is a prime below
2^31, so that the compiled kernel's products fit in int64, or 0 for the
integers: then every pivot must be +-1 and every entry, and every
product that forms one, must stay below 2^63 in magnitude, and it
returns None as soon as either fails.

``reduce_cofaces(table, nrows, q, cleared)``: ``table`` is a face table
as for ``reduce_faces``, that of d_(k+1), read with every face kept, and
``cleared`` a 1-d bool buffer with one entry per row.  It reduces the
coboundary delta_k, the anti-transpose of d_(k+1), over GF(q), q a prime
below 2^31: one column per row, youngest first, whose pivot is its
oldest coface, and a column is skipped where ``cleared`` is true.  It
returns a new int64 array with each row's pivot coface, or -1 where its
column is skipped or reduces to zero.  The pairs are those of
``reduce_faces`` on the same table.

``reduce_columns`` is the plain reduction over GF(q) of sparse columns
given as lists: parallel lists of strictly increasing int rows in
[0, 2^63) and int coefficients that are nonzero mod q (a negative one
means its residue mod q).  It returns the list of lows.  The library does
not call it; it is the test oracle of ``reduce_faces``.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional

import numpy as np

from ..values import INF, BudgetExceededError, python_power

#: bound on the field order: (q - 1)^2 must fit in int64
MAX_ORDER = 1 << 31
#: entries over Z must stay strictly inside (-2^63, 2^63)
_INT64 = 1 << 63

#: cells (rows times points) of the reach matrix of one search block; the
#: search keeps at most one block per degree alive (and at least one row).
#: ``expand`` gathers and looks up at most this many cells at once (or one
#: row)
BLOCK = 2 ** 14

#: vertex index type of the search's output
VERTEX = np.int32

#: element type -> (buffer item size, buffer formats)
_TYPES = {"int64": (8, ("q", "l")), "float64": (8, ("d",)),
          "bool": (1, ("?",))}


def expand(w, p, max_dim, limit):
    """``search``, then each degree sorted, with its face table.  A degree
    has few distinct tops: one ``np.unique`` finds them and each row's
    code among them, only they are powered to births, and tops with one
    birth merge.  The search finds each degree in lexicographic order, so
    a stable sort of the codes (a radix sort on their small integer type)
    puts it in (birth, vertices) order, and its keys (prefix row) * n +
    (last vertex) increase in search order: a face (F, v) is one
    ``searchsorted`` among the keys of the degree below, with F mapped to
    its search row by the sort two degrees down."""
    if isinstance(p, (str, bytes, bytearray)):  # float() would parse these
        raise TypeError(f"p must be a number, got {p!r}")
    p = float(p)
    if not 1.0 <= p <= INF:
        raise ValueError(f"p must lie in [1, inf], got {p!r}")
    found = search(w, p == INF, max_dim, limit)
    n = len(found[0][0])
    out, below_order, keys = [], None, None
    for k in range(len(found)):
        last, top, parent = found[k]
        found[k] = None
        level, code = np.unique(top, return_inverse=True)
        if p == INF:
            level = level + 0.0  # -0.0 and +0.0 share a code; births are +0.0
        else:  # tops that power to one birth share a code, so that rows
            # with equal births keep their lexicographic order
            level, merge = np.unique(python_power(level, 1.0 / p),
                                     return_inverse=True)
            code = merge[code]
        order = np.argsort(code.astype(np.min_scalar_type(len(level))),
                           kind="stable")
        code = code[order]
        verts = np.empty((len(order), k + 1), dtype=VERTEX, order="F")
        verts[:, k] = last[order]
        below_keys, keys = keys, parent * n + last
        # parents were numbered in search order; renumber them sorted
        parent = rank[parent[order]] if k else parent
        del last, top  # the search's arrays go before the tables come
        faces = np.empty((len(order), k + 1), dtype=np.intp)
        faces[:, k] = parent  # the last face is the prefix
        del parent
        if k == 1:
            faces[:, 0] = verts[:, 1]  # degree-0 rows are the vertices
        # blocks of rows bound the scratch to BLOCK cells (or one row)
        step = max(1, BLOCK // (k + 1))
        for lo in range(0, len(order) if k else 0, step):
            up, hi = faces[lo:lo + step, k], lo + step
            # each row is its prefix's row, then its last vertex
            verts[lo:hi, :k] = below[up]
            if k > 1:  # face i < k is (face i of the prefix, last vertex)
                face = inner[up, :k]
                want = np.where(face >= 0, inner_order[face] * n
                                + verts[lo:hi, k:], -1)
                pos = np.searchsorted(below_keys, want)
                faces[lo:hi, :k] = np.where(
                    below_keys.take(pos, mode="clip") == want,
                    rank.take(pos, mode="clip"), -1)
        out.append((verts, level, code, faces))
        below, inner = verts, faces
        inner_order, below_order = below_order, order
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
    return out


def search(w, at_inf, max_dim, limit):
    """Depth first over blocks of at most ``BLOCK`` reach cells.

    A block's reach matrix holds, per row and vertex v, the longest-chain
    value (p-th-power domain; plain max at p = inf) of the row extended by
    v.  Extending by ``nxt`` appends the chain entry ``top = reach[nxt]``,
    and the child's reach is ``max(reach, top + w[nxt])``
    (``max(reach, max(top, w[nxt]))`` at p = inf).  Every candidate is the
    same single addition that ``membership_scale`` makes and maxima are
    exact, so the births are bit-identical to it.  Extending a tuple can
    only raise its birth, so infinite branches are pruned; a sum that
    overflows counts as infinite.

    Rows are numbered in search order, which is lexicographic: blocks of
    each degree are popped in row order and a row's children come in
    next-vertex order.  A block has ``BLOCK // n`` rows (at least one), so
    its reach holds at most ``BLOCK`` cells.  Blocks are expanded depth
    first and a block's reach is built only when it is expanded, so the
    reach alive at once is at most one block per degree reached.  A
    block's children are counted before they are built, and the budget is
    checked on a running total of that count; the per-degree lists grow
    only as degrees are reached.
    """
    w = _typed_array(w, 2, "w", "float64")
    n = len(w)
    if w.shape[1] != n:
        raise ValueError(f"w must be square, got {n} x {w.shape[1]}")
    if n > 2 ** 31 - 1:
        raise ValueError(f"w has {n} points, more than 2^31 - 1")
    max_dim = operator.index(max_dim)
    if max_dim < 0:
        raise ValueError(f"max_dim must be >= 0, got {max_dim}")
    limit = operator.index(limit)
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if n > limit:
        raise BudgetExceededError(f"tuple count exceeded the budget of {limit}")
    vertices = np.arange(n, dtype=VERTEX)
    found = [[(vertices, np.zeros(n), np.full(n, -1))]]
    rows = [n]
    total = n
    # pending blocks: degree, first row, and what its reach is built from
    # (the parent block's reach and rows, new vertex, top)
    step = max(1, BLOCK // max(n, 1))  # rows per block
    stack = []
    if max_dim > 0:
        for lo in reversed(range(0, n, step)):
            stack.append((0, lo, None, None, vertices[lo:lo + step], None))
    while stack:
        k, first, base, parents, last, top = stack.pop()
        if base is None:
            reach = w[last]
        elif at_inf:
            reach = np.maximum(base[parents], np.maximum(top[:, None], w[last]))
        else:  # a sum that overflows is inf, and is pruned like one
            with np.errstate(over="ignore"):
                reach = np.maximum(base[parents], top[:, None] + w[last])
        grow = reach < np.inf
        grow[np.arange(len(last)), last] = False
        count = int(np.count_nonzero(grow))
        if total + count > limit:
            raise BudgetExceededError(
                f"tuple count exceeded the budget of {limit}")
        total += count
        local, nxt = np.nonzero(grow)
        child_top = reach[local, nxt]
        if k + 1 == len(rows):  # the first block to reach this degree
            found.append([])
            rows.append(0)
        start = rows[k + 1]
        rows[k + 1] += count
        found[k + 1].append((nxt.astype(VERTEX), child_top, first + local))
        if k + 1 < max_dim:
            for lo in reversed(range(0, count, step)):
                hi = lo + step
                stack.append((k + 1, start + lo, reach, local[lo:hi],
                              nxt[lo:hi], child_top[lo:hi]))
    joined = []
    for k in range(len(found)):
        joined.append(tuple(np.concatenate(parts) for parts in zip(*found[k])))
        found[k] = None  # drop the chunks once joined
    return joined


def reduce_faces(table, nrows, q, floor) -> Optional[np.ndarray]:
    q = operator.index(q)
    if q != 0 and not 2 <= q < MAX_ORDER:
        raise ValueError(f"q must be 0 (the integers) or a prime in "
                         f"[2, 2^31), got {q}")
    nrows = _row_count(nrows)
    faces = _typed_array(table, 2, "the face table")
    lowest = _typed_array(floor, 1, "floor")
    ncols = len(faces)
    if len(lowest) != ncols:
        raise ValueError(f"the face table has {ncols} columns but floor has "
                         f"{len(lowest)} entries")
    _check_table(faces, nrows)
    faces = np.where(faces >= lowest[:, None], faces, -1)
    counts = (faces >= 0).sum(axis=1)
    live = np.flatnonzero(counts)  # a column with no face has no pivot
    faces = faces[live]
    order = np.argsort(np.where(faces >= 0, faces, np.iinfo(np.int64).max),
                       axis=1, kind="stable")
    minus = -1 if q == 0 else q - 1
    return _reduce(((j, rows[:m], signs[:m]) for j, m, rows, signs in zip(
        live.tolist(), counts[live].tolist(),
        np.take_along_axis(faces, order, axis=1).tolist(),
        np.where(order % 2, minus, 1).tolist())), ncols, q)


def reduce_cofaces(table, nrows, q, cleared) -> np.ndarray:
    """The transpose of the face table as numpy index arrays: its entries
    sorted by row, youngest first, and within a row by coface, youngest
    first, each coface renumbered in reverse order; then the column loop
    of ``reduce_faces``."""
    q = operator.index(q)
    if not 2 <= q < MAX_ORDER:
        raise ValueError(f"q must be a prime in [2, 2^31), got {q}")
    nrows = _row_count(nrows)
    faces = _typed_array(table, 2, "the face table")
    skip = _typed_array(cleared, 1, "cleared", "bool")
    if len(skip) != nrows:
        raise ValueError(f"cleared has {len(skip)} entries but there are "
                         f"{nrows} rows")
    _check_table(faces, nrows)
    coface, position = np.nonzero(faces >= 0)
    row = faces[coface, position]
    kept = ~skip[row]
    coface, position, row = coface[kept], position[kept], row[kept]
    order = np.lexsort((-coface, -row))  # row, then coface, decreasing
    row = row[order]
    first = np.flatnonzero(np.diff(row, prepend=-1)).tolist()  # of each row
    row = row.tolist()
    cofaces = (len(faces) - 1 - coface[order]).tolist()
    signs = np.where(position[order] % 2, q - 1, 1).tolist()
    lows = _reduce(((row[lo], cofaces[lo:hi], signs[lo:hi])
                    for lo, hi in zip(first, first[1:] + [len(row)])),
                   nrows, q)
    return np.where(lows >= 0, len(faces) - 1 - lows, -1)


def _reduce(columns, ncols: int, q: int) -> Optional[np.ndarray]:
    """The column loop of both reductions.  ``columns`` yields, in the
    order they are reduced, the nonzero columns: each one's index among
    the ``ncols``, its increasing rows and their coefficients.  Returns
    each column's low (-1 for one not given or reducing to zero), or None
    over Z as ``reduce_faces`` does."""
    found: List[int] = [-1] * ncols
    pivots: Dict[int, Dict[int, int]] = {}  # low -> its column, low entry 1
    for j, rows, signs in columns:
        col = dict(zip(rows, signs))
        low = rows[-1]
        while low in pivots:
            if not _subtract(col, pivots[low], col[low], q):
                return None  # an entry over Z reached 2^63
            if not col:
                break
            low = max(col)
        if not col:
            continue
        unit = col[low]
        if q == 0 and unit != 1:
            if unit != -1:
                return None
            col = {r: -c for r, c in col.items()}  # 1/u = u over Z
        elif unit != 1:
            inverse = pow(unit, q - 2, q)
            col = {r: c * inverse % q for r, c in col.items()}
        pivots[low] = col
        found[j] = low
    return np.array(found, dtype=np.int64)


def _row_count(nrows) -> int:
    nrows = operator.index(nrows)
    if not 0 <= nrows < _INT64:
        raise ValueError(f"nrows must be a count of rows in [0, 2^63), "
                         f"got {nrows}")
    return nrows


def _typed_array(obj, ndim: int, what: str, kind: str = "int64"
                 ) -> np.ndarray:
    """``obj`` as an array on its own buffer, which must have the given
    ndim and element type and be C-contiguous."""
    view = memoryview(obj)
    fmt = view.format[1:] if view.format[:1] in ("@", "=") else view.format
    itemsize, formats = _TYPES[kind]
    if (view.ndim != ndim or view.itemsize != itemsize or fmt not in formats
            or not view.c_contiguous):
        raise ValueError(f"{what} must be a {ndim}-d C-contiguous {kind} "
                         f"array")
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
