"""Smith normal form over the integers, by unit pivots on sparse entries.

The library's integer ranks come from the Z mode of the column reduction
(``kernels.reduce_faces``), which needs no Smith normal form when every
pivot is +-1.  ``smith_normal_form`` is the fallback for one boundary
that reduction flags, as one with torsion; ``homology._ranks`` calls it
once per grade index of such a boundary.

Rank and invariant factors are exact (Python integers, so no overflow),
in three steps.  Entries of +-1 are eliminated first, one pivot at a
time and sparsest row first (``_unit_pivots``): a unit pivot clears its
row by unimodular column operations and splits off an invariant factor
1, so the rank and the other invariant factors do not change (Dumas,
Heckenbach, Saunders and Welker, "Computing simplicial homology based on
efficient Smith normal form algorithms", 2003).  Only the residue, the
columns left with no unit entry, is split into connected blocks
(``_blocks``) and made dense for the elimination loop (``_eliminate``).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Sequence, Set, Tuple


def smith_normal_form(col_rows: Sequence[Sequence[int]],
                      col_coeffs: Sequence[Sequence[int]]
                      ) -> Tuple[int, List[int]]:
    """Rank and elementary divisors of an integer matrix (exact), given as
    sparse columns of distinct rows (any integers) and nonzero
    coefficients (Python integers, so no overflow).

    Each unit pivot taken by ``_unit_pivots`` splits off an invariant
    factor 1.  The residue falls apart into connected blocks (rows and
    columns linked by a nonzero entry); each is made dense and
    diagonalized on its own by ``_eliminate``.  Invariant factors are
    unique, so normalizing the pooled diagonal gives the divisors of the
    whole matrix.
    """
    cols = {j: dict(zip(rows, coeffs))
            for j, (rows, coeffs) in enumerate(zip(col_rows, col_coeffs))}
    units = _unit_pivots(cols)
    divisors: List[int] = []
    for block in _blocks(cols):
        local: Dict[int, int] = {}
        for j in block:
            for i in cols[j]:
                local.setdefault(i, len(local))
        dense = [[0] * len(block) for _ in local]
        for c, j in enumerate(block):
            for i, v in cols[j].items():
                dense[local[i]][c] = v
        divisors.extend(_eliminate(dense))
    return units + len(divisors), [1] * units + _divisibility_fixup(divisors)


def _unit_pivots(cols: Dict[int, Dict[int, int]]) -> int:
    """Eliminate on entries of +-1 in place; the number of pivots.

    ``cols[j]`` maps the rows of column j to its nonzero entries.  The
    next pivot is a unit in the row with the fewest entries left, taken in
    its sparsest column j.  The column operations col_k -= c * u * col_j,
    where c is col_k's entry in row i and u = +-1 the pivot, clear row i
    but for the pivot; row operations would then clear column j without
    touching any other column.  Both are unimodular, so the pivot splits
    off as an invariant factor 1 and the rest of the matrix keeps the
    other invariant factors.  Column j and row i are dropped, and the
    columns left hold the residue.
    """
    where: Dict[int, Set[int]] = {}  # row -> the columns with an entry in it
    for j, col in cols.items():
        for i in col:
            where.setdefault(i, set()).add(j)
    heap = [(len(js), i) for i, js in where.items()]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        size, i = heapq.heappop(heap)
        js = where.get(i)
        if js is None or len(js) != size:
            continue  # stale: the row was dropped or has changed since
        units = [k for k in js if cols[k][i] in (1, -1)]
        if not units:
            continue  # pushed again if a later pivot changes the row
        j = min(units, key=lambda k: len(cols[k]))
        del where[i]
        pivot = cols[j]
        u = pivot.pop(i)
        for k in js:
            if k == j:
                continue
            col = cols[k]
            c = col.pop(i) * u
            for r, v in pivot.items():
                w = col.get(r, 0) - c * v
                if w:
                    if r not in col:
                        where[r].add(k)
                    col[r] = w
                else:
                    del col[r]
                    where[r].discard(k)
        for r in pivot:
            rest = where[r]
            rest.discard(j)
            heapq.heappush(heap, (len(rest), r))
        pivot.clear()
        pivots += 1
    return pivots


def _blocks(cols: Dict[int, Dict[int, int]]) -> List[List[int]]:
    """The nonzero columns grouped into connected blocks: union-find over
    the nonzeros, with column j as node j and row i as node ~i."""
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = parent.setdefault(x, x)
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        return root

    live = [j for j, col in cols.items() if col]
    for j in live:
        rj = find(j)
        for i in cols[j]:
            ri = find(~i)
            if ri != rj:
                parent[ri] = rj
    blocks: Dict[int, List[int]] = {}
    for j in live:
        blocks.setdefault(find(j), []).append(j)
    return list(blocks.values())


def _eliminate(a: List[List[int]]) -> List[int]:
    """Diagonalize ``a`` in place; the nonzero diagonal, not yet normalized."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    divisors: List[int] = []
    t = 0
    while t < nrows and t < ncols:
        # pick the first nonzero pivot of smallest magnitude in row-major
        # order; nothing is smaller than a unit, so the scan stops there
        pivot = best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
                    if v == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # clear the pivot column
            dirty = False
            for i in range(nrows):
                if i != t and a[i][t]:
                    qt = a[i][t] // a[t][t]
                    for j in range(ncols):
                        a[i][j] -= qt * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            # clear the pivot row
            for j in range(ncols):
                if j != t and a[t][j]:
                    qt = a[t][j] // a[t][t]
                    for i in range(nrows):
                        a[i][j] -= qt * a[i][t]
                    if a[t][j]:
                        for i in range(nrows):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
            if not dirty and all(a[t][j] == 0 for j in range(ncols) if j != t) \
                    and all(a[i][t] == 0 for i in range(nrows) if i != t):
                break
        divisors.append(abs(a[t][t]))
        t += 1
    return divisors


def _divisibility_fixup(divisors: List[int]) -> List[int]:
    """Invariant factors of a nonzero diagonal: make d_i | d_{i+1}."""
    changed = True
    while changed:
        changed = False
        for i in range(len(divisors) - 1):
            x, y = divisors[i], divisors[i + 1]
            if y % x != 0:
                g = math.gcd(x, y)
                divisors[i], divisors[i + 1] = g, x * y // g
                changed = True
    return divisors
