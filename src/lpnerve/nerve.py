"""Grade-filtered tuple nerve of a generalized metric space.

Every nondegenerate vertex tuple gets a birth grade: the smallest scale at
which some witness assignment of hop grades covers all forward distances.
For finite p the birth is computed by a longest-chain dynamic program in
the p-th-power domain (the witness LP has an interval constraint matrix,
so its optimum is attained on a chain of index pairs); for p = inf it is
the maximum forward distance.

The complex is columnar.  Vertices are numbered in sorted-name order, so
ordering index rows is ordering name tuples, and each degree is an
integer matrix (one row of vertex indices per tuple, stored
column-major) with a float64 births vector, both sorted by (birth,
vertices), and a face table (``FilteredComplex.faces``), whose last
column is the row one degree down of each tuple's prefix (the tuple
without its last vertex).  Names appear only when a result is emitted
(``FilteredComplex.labels``).

Births are compared once, here: ``enumerate_complex`` clusters all births
of all degrees by single linkage at a tolerance relative to the largest
finite distance (``grade_clusters``), and gives every tuple the integer
index of its cluster.  Everything downstream compares grade indices, so
results do not depend on the scale of the input and a tuple sits in
exactly one grade.

``kernels.expand`` searches depth first and carries the dynamic program
down: a tuple's chain values are those of its prefix plus one new entry,
so no birth is recomputed from scratch.  The compiled search visits one
tuple at a time; its pure-Python twin expands blocks of tuples with
numpy.  ``membership_scale`` computes one birth on its own and is the
reference the search agrees with bit for bit.

A birth is a non-decreasing function of one float, the tuple's top chain
value, and a degree has few distinct tops.  So ``kernels.expand`` gives
each tuple a code while it searches, the index of its top among the
degree's distinct tops, and afterwards sorts and powers only those tops;
tops with one birth merge into one birth code.  It finds each degree in
lexicographic order, so a stable counting sort of the codes puts it in
(birth, vertices) order.  It returns per degree the sorted vertex
matrix, the increasing distinct births, each row's code among them and
the face table, and stops at the first degree it found empty.  A face
is found from the prefix's faces: deleting i < k from a tuple of degree
k is deleting i from its prefix and appending its last vertex, and in
search order the rows one degree down with one prefix are together, in
last-vertex order.
``enumerate_complex`` clusters those few births into grades, and a
tuple's birth and grade index are gathers through its code.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .values import (EPS, INF, InputError, check_exponent, check_powers,
                     python_power)
from .vgraph import VGraph, tolerance

#: default cap on the number of enumerated tuples
DEFAULT_BUDGET = 2_000_000


#: one degree of a complex, as ``FilteredComplex.degree`` gives it
Degree = namedtuple("Degree", "tuples births grade starts faces")


@dataclass(eq=False)
class FilteredComplex:
    """All finite-birth nondegenerate tuples of degree <= ``max_dim``.

    Vertex index ``i`` stands for ``names[i]``, and ``names`` is sorted.
    Per stored degree k: ``tuples[k]`` is a (rows, k + 1) integer matrix
    of vertex indices (column-major, so each position is contiguous),
    ``births[k]`` the float64 births, both sorted by (birth, vertices),
    ``tables[k]`` the face table (see ``faces``) and ``grade[k]`` the
    grade index of each tuple, non-decreasing.  ``grades[g]`` is the
    value of grade index g, the smallest birth of its cluster
    (``grades[0]`` is 0), and ``starts[k][g]`` the first row of degree k
    with grade index >= g, for g up to ``len(grades)``.  The stored
    degrees end at ``max_dim`` or one past the last nonempty degree,
    whichever comes first; ``degree`` reads any degree up to ``max_dim``.
    """

    p: float
    max_dim: int
    names: List[str]
    tuples: List[np.ndarray]
    births: List[np.ndarray]
    tables: List[np.ndarray]
    grade: List[np.ndarray]
    grades: List[float]
    starts: List[np.ndarray]

    def size(self) -> int:
        return sum(len(level) for level in self.tuples)

    def labels(self, degree: int,
               rows: Optional[Sequence[int]] = None) -> List[Tuple[str, ...]]:
        """Vertex-name tuples of the given rows (default all) of a degree."""
        level = self.degree(degree).tuples
        if rows is not None:
            level = level[np.asarray(rows, dtype=np.intp)]
        names = self.names
        return [tuple(names[i] for i in row) for row in level.tolist()]

    def degree(self, k: int) -> Degree:
        """The tuples, births, grade indices, grade offsets and face table
        of a degree k in 0..max_dim.  Every degree above the stored ones is
        empty, since every tuple's prefix is a tuple; ``InputError`` for a
        degree outside 0..max_dim."""
        if not 0 <= k <= self.max_dim:
            raise InputError(f"degree {k} is outside the complex: "
                             f"degrees 0..{self.max_dim}")
        if k < len(self.tuples):
            return Degree(self.tuples[k], self.births[k], self.grade[k],
                          self.starts[k], self.tables[k])
        return Degree(np.empty((0, k + 1), np.int32, order="F"),
                      np.empty(0), np.empty(0, np.intp),
                      np.zeros(len(self.grades) + 1, np.intp),
                      np.empty((0, k + 1), np.intp))

    def faces(self, degree: int) -> np.ndarray:
        """Face-index table of a degree in 1..max_dim.

        Entry [r, i] is the row in ``degree - 1`` of tuple r with vertex i
        deleted, or -1 when that face is degenerate (0 < i < degree and the
        two neighbours of i are equal).  The last column is the prefix.
        ``InputError`` for a degree outside 1..max_dim.
        """
        if not 1 <= degree <= self.max_dim:
            raise InputError(f"a face table needs a degree in "
                             f"1..{self.max_dim}, got {degree}")
        return self.degree(degree).faces


def grade_clusters(values: np.ndarray, tol: float, hops: int = 1
                   ) -> List[float]:
    """The smallest value of each single-linkage cluster of finite values,
    increasing: sorted neighbours at most ``tol`` apart share a cluster.

    A value v lies in cluster ``searchsorted(clusters, v, "right") - 1``.
    A value folded from at most ``hops`` distances, each known to within
    ``tol``, is known to within ``hops * tol``; a cluster wider than that
    links values that can be told apart, and raises ``InputError``.
    """
    ordered = np.sort(values)
    # the first value starts a cluster even when tol is infinite; a value
    # ends one where the next starts one (the last wraps to the first)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = np.diff(ordered) > tol
    firsts, lasts = ordered[first], ordered[np.roll(first, -1)]
    wide = np.flatnonzero(lasts - firsts > hops * tol)
    if len(wide):
        low, high = float(firsts[wide[0]]), float(lasts[wide[0]])
        raise InputError(f"grades {low!r} to {high!r} span more than "
                         f"{hops * tol!r} in steps of at most {tol!r}, so "
                         f"they cannot be told apart")
    return firsts.tolist()


def membership_scale(X: VGraph, verts: Sequence[str], p: float) -> float:
    """Birth grade of a vertex tuple in the +_p nerve.

    Returns inf when some required forward distance is infinite.
    """
    p = check_exponent(p)
    if not verts:
        raise ValueError("tuple must be nonempty")
    idx = [X.index(v) for v in verts]
    n = len(idx) - 1
    if n == 0:
        return 0.0
    d = X.dist
    if p == math.inf:
        best = 0.0
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                best = max(best, d[idx[i], idx[j]])
        return float(best)
    # longest chain of forward p-th-power distances
    w = [[float(d[idx[i], idx[j]]) for j in range(n + 1)] for i in range(n + 1)]
    best = [0.0] * (n + 1)
    for j in range(1, n + 1):
        for i in range(j):
            if math.isinf(w[i][j]):
                return INF
            cand = best[i] + w[i][j] ** p
            if cand > best[j]:
                best[j] = cand
    total = max(best)
    return total ** (1.0 / p) if total > 0.0 else 0.0


def enumerate_complex(X: VGraph, p: float, max_dim: int,
                      budget: int | None = DEFAULT_BUDGET,
                      eps: float = EPS) -> FilteredComplex:
    """All nondegenerate tuples of degree <= max_dim with finite birth.

    Births are clustered by ``grade_clusters`` at ``tolerance(X, eps)``,
    ``eps`` times the largest finite distance; a birth of degree k folds
    at most k hops, so a grade may span as many tolerances as the last
    nonempty degree (at least one).

    Raises ``BudgetExceededError`` as soon as more than ``budget`` tuples
    have been found, and ``InputError`` for a negative ``max_dim`` or
    ``budget``, an ``eps`` that is not a finite number >= 0, births that
    cannot be told apart, or a chain sum at finite p that could overflow:
    the search prunes a sum that overflows as infinite, and the check
    after it is sized by the degrees it reached.
    """
    p = check_exponent(p)
    if max_dim < 0:
        raise InputError(f"max_dim must be >= 0, got {max_dim}")
    if budget is not None and budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    if not 0.0 <= eps < INF:
        raise InputError(f"eps must be a finite number >= 0, got {eps}")
    check_powers(X.dist.flat, p, 1)  # the powers themselves are finite
    names = sorted(X.vertices)
    perm = [X.index(v) for v in names]
    d = X.dist[np.ix_(perm, perm)]
    w = d if p == INF else python_power(d, p)
    limit = INF if budget is None else budget
    found = kernels.expand(w, p, max_dim, limit)
    # a chain sum that overflows is inf and its tuple was pruned, but in a
    # degree the search reached, so the chain had at most len(found) - 1
    # hops: if no such chain can overflow, no tuple was lost
    check_powers(X.dist.flat, p, len(found) - 1)
    # a birth of degree k folds k hops; only the last degree may be empty
    last = len(found) - 1 - (len(found[-1][0]) == 0)
    # a leading 0 keeps grade 0 when there are no vertices
    grades = grade_clusters(
        np.concatenate([np.zeros(1), *(level for _, level, _, _ in found)]),
        tolerance(X, eps), max(last, 1))
    values = np.array(grades)
    tuples, tables, births, grade = [], [], [], []
    for k, (verts, level, code, table) in enumerate(found):
        found[k] = None  # drop each degree's births and codes once read
        tuples.append(verts)
        tables.append(table)
        # a tuple's birth and grade index are those of its birth code
        births.append(level[code])
        grade.append((values.searchsorted(level, side="right") - 1)[code])
    ramp = np.arange(len(grades) + 1)
    starts = [level.searchsorted(ramp) for level in grade]
    return FilteredComplex(p, max_dim, names, tuples, births, tables,
                           grade, grades, starts)
