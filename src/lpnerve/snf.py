"""Smith normal form over the integers, by unit pivots on sparse entries.

Rank and invariant factors of a boundary are exact (Python integers, so
no overflow).  Entries of +-1 are eliminated first: a unit pivot clears
its row by unimodular column operations and splits off an invariant
factor 1, so the rank and the other invariant factors do not change
(Dumas, Heckenbach, Saunders and Welker, "Computing simplicial homology
based on efficient Smith normal form algorithms", 2003).  Units alone in
their row or column cost no arithmetic and are taken in whole numpy
steps; the rest go one at a time, sparsest row first.  Only the residue,
the columns left with no unit entry, is split into connected blocks and
made dense for the elimination loop.  ``smith_normal_forms`` does this
for a direct sum of blocks at once, with the pivots counted per block.

The library's integer ranks come first from the Z mode of the column
reduction (``kernels.reduce_faces``), which needs no Smith normal form
when every pivot is +-1; ``homology._ranks`` calls ``smith_normal_forms``
only for a boundary that reduction flags, as one with torsion.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np


def smith_normal_form(col_rows: Sequence[Sequence[int]],
                      col_coeffs: Sequence[Sequence[int]]
                      ) -> Tuple[int, List[int]]:
    """Rank and elementary divisors of an integer matrix (exact), given as
    sparse columns of increasing rows in [0, 2^63) and nonzero
    coefficients (Python integers, so no overflow).

    Entries of +-1 are eliminated first: in whole-array steps where that
    costs no arithmetic (``_free_pivots``), then one pivot at a time
    (``_unit_pivots``); each such pivot splits off an invariant factor 1.
    The residue, the columns left with no unit entry, falls apart into
    connected blocks (rows and columns linked by a nonzero entry); each is
    made dense and diagonalized on its own by ``_eliminate``.  Invariant
    factors are unique, so normalizing the pooled diagonal gives the
    divisors of the whole matrix.
    """
    counts = [len(rows) for rows in col_rows]
    col = np.repeat(np.arange(len(counts)), counts)
    row = np.fromiter(itertools.chain.from_iterable(col_rows), np.int64,
                      len(col))
    value = np.array(list(itertools.chain.from_iterable(col_coeffs)),
                     dtype=object)
    labels = np.zeros(len(counts), dtype=np.intp)
    return smith_normal_forms(col, row, value, labels, 1)[0]


def smith_normal_forms(col: np.ndarray, row: np.ndarray, value: np.ndarray,
                       labels: np.ndarray, nlabels: int
                       ) -> List[Tuple[int, List[int]]]:
    """``smith_normal_form`` of each block of a direct sum, in one pass.

    The matrix has the entries ``value[e]`` at (``row[e]``, ``col[e]``),
    at most one per position and none zero.  ``labels[j]`` in
    0..nlabels-1 names the block of column j, and columns of different
    blocks share no row, so no column operation mixes two blocks: the unit
    pivots are counted per label, and every connected block of the
    residue lies in one label.
    """
    row = np.unique(row, return_inverse=True)[1].reshape(-1)  # rows 0, 1, ...
    units, left = _free_pivots(col, row, (value == 1) | (value == -1),
                               labels, nlabels)
    cols: Dict[int, Dict[int, int]] = {}
    for j, i, v in zip(col[left].tolist(), row[left].tolist(),
                       value[left].tolist()):
        cols.setdefault(j, {})[i] = v
    units += np.bincount(labels[_unit_pivots(cols)], minlength=nlabels)
    residue: List[List[int]] = [[] for _ in range(nlabels)]
    for block in _blocks(cols):
        local: Dict[int, int] = {}
        for j in block:
            for i in cols[j]:
                local.setdefault(i, len(local))
        dense = [[0] * len(block) for _ in local]
        for c, j in enumerate(block):
            for i, v in cols[j].items():
                dense[local[i]][c] = v
        residue[labels[block[0]]].extend(_eliminate(dense))
    return [(int(n) + len(divisors),
             [1] * int(n) + _divisibility_fixup(divisors))
            for n, divisors in zip(units, residue)]


def _free_pivots(col: np.ndarray, row: np.ndarray, unit: np.ndarray,
                 labels: np.ndarray, nlabels: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """The unit pivots that need no arithmetic, taken in whole-array steps;
    the pivot count per label, and the entries left.

    Columns are numbered 0..len(labels)-1 and rows 0..max(row).  A unit
    alone in its row is a pivot whose row needs no clearing: its column
    is dropped (and with it the row).  A unit alone in its column clears
    its row by dropping the row's other entries: its row is dropped.
    Either splits off an invariant factor 1 (see ``_unit_pivots``), and
    neither changes an entry that stays, so the steps repeat on what is
    left.  Each round scans every entry left, so a round repeats only
    after one that dropped over half of them: the scans then add up to
    less than twice the entries, where a chain peeled a few pivots per
    round would cost rounds x entries.  ``_unit_pivots`` takes the rest.
    """
    ncols, nrows = len(labels), int(row.max(initial=-1)) + 1
    units = np.zeros(nlabels, dtype=np.intp)
    left = np.arange(len(col))
    while True:
        before = len(left)
        r = row[left]
        alone = left[unit[left] & (np.bincount(r, minlength=nrows)[r] == 1)]
        pivots = np.zeros(ncols, dtype=bool)
        pivots[col[alone]] = True
        units += np.bincount(labels[pivots], minlength=nlabels)
        left = left[~pivots[col[left]]]
        c = col[left]
        alone = left[unit[left] & (np.bincount(c, minlength=ncols)[c] == 1)]
        cleared, first = np.unique(row[alone], return_index=True)
        units += np.bincount(labels[col[alone[first]]], minlength=nlabels)
        dropped = np.zeros(nrows, dtype=bool)
        dropped[cleared] = True
        left = left[~dropped[row[left]]]
        if 2 * len(left) >= before:
            return units, left


def _unit_pivots(cols: Dict[int, Dict[int, int]]) -> List[int]:
    """Eliminate on entries of +-1 in place; the pivot columns, in order.

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
    pivots: List[int] = []
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
        pivots.append(j)
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
