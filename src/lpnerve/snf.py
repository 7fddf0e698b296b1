"""Smith normal form over the integers, by one sparse elimination loop.

The library's integer ranks come from the Z mode of the column reduction
(``kernels.reduce_faces``), which needs no Smith normal form when every
pivot is +-1.  ``smith_normal_form`` is the fallback for one boundary
that reduction flags, as one with torsion; ``homology._ranks`` calls it
once per grade index of such a boundary.

Rank and invariant factors are exact (Python integers, so no overflow).
The matrix stays sparse: dict columns plus an index of the columns in
each row.  Every step is unimodular, so the invariant factors do not
change.  While an entry of +-1 is left, the pivot is a unit in the
sparsest row; otherwise it is an entry of least magnitude.  Column
operations subtract floor-quotient multiples of the pivot's column from
the other columns of its row, which leaves remainders smaller than the
pivot.  Once the row holds only the pivot, row operations reduce its
column modulo the pivot without touching any other column, and a pivot
left alone in its row and column splits off as an invariant factor.  A
unit pivot always splits off at once (Dumas, Heckenbach, Saunders and
Welker, "Computing simplicial homology based on efficient Smith normal
form algorithms", 2003); any other step either splits off its pivot or
leaves a smaller entry, so the loop ends.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple


def smith_normal_form(col_rows: Sequence[Sequence[int]],
                      col_coeffs: Sequence[Sequence[int]]
                      ) -> Tuple[int, List[int]]:
    """Rank and elementary divisors of an integer matrix (exact), given as
    sparse columns of distinct rows (any integers) and nonzero
    coefficients (Python integers, so no overflow).

    The pivots split off make a diagonal matrix equivalent to the input;
    invariant factors are unique, so normalizing that diagonal gives the
    divisors of the whole matrix.  Unit pivots are counted apart.
    """
    cols = {j: dict(zip(rows, coeffs))
            for j, (rows, coeffs) in enumerate(zip(col_rows, col_coeffs))}
    where: Dict[int, Set[int]] = {}  # row -> the columns with an entry in it
    for j, col in cols.items():
        for i in col:
            where.setdefault(i, set()).add(j)
    heap = [(len(js), i) for i, js in where.items()]
    heapq.heapify(heap)
    units = 0
    divisors: List[int] = []
    while True:
        pick = _unit(cols, where, heap)
        if pick is None:
            least = min(((abs(v), i, j) for j, col in cols.items()
                         for i, v in col.items()), default=None)
            if least is None:
                break
            pick = least[1:]
        i, j = pick
        pivot = cols[j]
        p = pivot.pop(i)  # column j is held without its pivot from here
        left = {j}  # the columns with an entry in row i after this step
        # col_k -= (col_k[i] // p) * col_j leaves a remainder in row i
        for k in where[i]:
            if k == j:
                continue
            col = cols[k]
            c, rem = divmod(col.pop(i), p)
            if rem:
                col[i] = rem
                left.add(k)
            for r, v in pivot.items():
                w = col.get(r, 0) - c * v
                if w:
                    if r not in col:
                        where[r].add(k)
                    col[r] = w
                else:
                    del col[r]
                    where[r].discard(k)
        where[i] = left
        # once row i holds only the pivot, row_r -= q * row_i changes
        # column j alone: reduce it modulo the pivot
        row_clear = len(left) == 1
        for r, v in list(pivot.items()):
            if row_clear:
                if v % p:
                    pivot[r] = v % p
                else:
                    del pivot[r]
                    where[r].discard(j)
            heapq.heappush(heap, (len(where[r]), r))
        if row_clear and not pivot:  # an invariant factor
            del cols[j], where[i]
            if p in (1, -1):
                units += 1
            else:
                divisors.append(abs(p))
        else:
            pivot[i] = p
            heapq.heappush(heap, (len(left), i))
    return units + len(divisors), [1] * units + _divisibility_fixup(divisors)


def _unit(cols: Dict[int, Dict[int, int]], where: Dict[int, Set[int]],
          heap: List[Tuple[int, int]]) -> Optional[Tuple[int, int]]:
    """The next unit pivot (row i, column j), or None when no +-1 entry is
    left: a unit in the row with the fewest entries, taken in its
    sparsest column.  ``heap`` holds (entry count, row) and gets a fresh
    item whenever a row changes; stale items and rows with no unit are
    dropped as they come up."""
    while heap:
        size, i = heapq.heappop(heap)
        js = where.get(i)
        if js is None or len(js) != size:
            continue  # stale: the row was dropped or has changed since
        units = [k for k in js if cols[k][i] in (1, -1)]
        if units:
            return i, min(units, key=lambda k: len(cols[k]))
    return None


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
