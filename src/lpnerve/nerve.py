"""Grade-filtered tuple nerve of a generalized metric space.

Every nondegenerate vertex tuple gets a birth grade: the smallest scale at
which some witness assignment of hop grades covers all forward distances.
For finite p the birth is computed by a longest-chain dynamic program in
the p-th-power domain (the witness LP has an interval constraint matrix,
so its optimum is attained on a chain of index pairs); for p = inf it is
the maximum forward distance.

The complex is columnar.  Vertices are numbered in sorted-name order, so
ordering index rows is ordering name tuples, and each degree is an
integer matrix (one row of vertex indices per tuple) with a float64
births vector, both sorted by (birth, vertices).  Each row also records
the row of its prefix (the tuple without its last vertex) one degree
down; ``FilteredComplex.faces`` derives every face from it.  Names appear
only when a result is emitted (``FilteredComplex.labels``).

Births are compared once, here: ``enumerate_complex`` clusters all births
of all degrees by single linkage at a tolerance relative to the largest
finite distance (``grade_clusters``), and gives every tuple the integer
index of its cluster.  Everything downstream compares grade indices, so
results do not depend on the scale of the input and a tuple sits in
exactly one grade.

``enumerate_complex`` searches depth first over blocks of at most
``BLOCK`` rows and carries the dynamic program down: a tuple's chain
values are those of its prefix plus one new entry, so no birth is
recomputed from scratch.  ``membership_scale`` computes one birth on its
own and is the reference the search agrees with bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .values import (EPS, INF, BudgetExceededError, InputError,
                     check_exponent, check_powers)
from .vgraph import VGraph, tolerance

#: default cap on the number of enumerated tuples
DEFAULT_BUDGET = 2_000_000

#: rows expanded together by the search; the reach vectors alive at once
#: number at most BLOCK per degree
BLOCK = 64

#: vertex index type of the tuple matrices
VERTEX = np.int32


@dataclass(eq=False)
class FilteredComplex:
    """All finite-birth nondegenerate tuples of degree <= ``max_dim``.

    Vertex index ``i`` stands for ``names[i]``, and ``names`` is sorted.
    Per degree k: ``tuples[k]`` is a (rows, k + 1) integer matrix of vertex
    indices, ``births[k]`` the float64 births, both sorted by (birth,
    vertices), ``prefix[k]`` the row in degree k - 1 of each tuple
    without its last vertex (-1 at degree 0), and ``grade[k]`` the grade
    index of each tuple, non-decreasing.  ``grades[g]`` is the value of
    grade index g, the smallest birth of its cluster (``grades[0]`` is 0),
    and ``starts[k][g]`` the first row of degree k with grade index >= g,
    for g up to ``len(grades)``.
    """

    space: VGraph
    p: float
    max_dim: int
    names: List[str]
    tuples: List[np.ndarray]
    births: List[np.ndarray]
    prefix: List[np.ndarray]
    grade: List[np.ndarray]
    grades: List[float]
    starts: List[np.ndarray]
    _faces: Dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False)

    def size(self) -> int:
        return sum(len(level) for level in self.tuples)

    def labels(self, degree: int,
               rows: Optional[Sequence[int]] = None) -> List[Tuple[str, ...]]:
        """Vertex-name tuples of the given rows (default all) of a degree."""
        level = self.tuples[degree]
        if rows is not None:
            level = level[np.asarray(rows, dtype=np.intp)]
        names = self.names
        return [tuple(names[i] for i in row) for row in level.tolist()]

    def faces(self, degree: int) -> np.ndarray:
        """Face-index table of a degree >= 1, computed once.

        Entry [r, i] is the row in ``degree - 1`` of tuple r with vertex i
        deleted, or -1 when that face is degenerate (0 < i < degree and the
        two neighbours of i are equal).  The last column is the prefix.
        Other faces are found from the prefix's faces: deleting i < degree
        from v is deleting i from the prefix and appending the last vertex.
        A row one degree down is keyed by (its prefix row) * n + (its last
        vertex), below (rows two degrees down) * n + n, so no key overflows.
        """
        table = self._faces.get(degree)
        if table is not None:
            return table
        level = self.tuples[degree]
        table = np.empty(level.shape, dtype=np.intp)
        table[:, degree] = self.prefix[degree]
        if degree == 1:
            table[:, 0] = level[:, 1]  # degree-0 rows are the vertices
        else:
            n = len(self.names)
            below = self.tuples[degree - 1]
            keys = self.prefix[degree - 1] * n + below[:, -1]
            order = np.argsort(keys, kind="stable")
            keys = np.append(keys[order], -1)  # -1 matches no face
            order = np.append(order, -1)
            last = level[:, -1].astype(np.intp)
            inner = self.faces(degree - 1)
            for i in range(degree):  # one column at a time bounds the scratch
                face = inner[self.prefix[degree], i]
                want = face * n + last
                pos = np.searchsorted(keys[:-1], want)
                hit = (face >= 0) & (keys[pos] == want)
                table[:, i] = np.where(hit, order[pos], -1)
        self._faces[degree] = table
        return table


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
    firsts = ordered[np.diff(ordered, prepend=-INF) > tol]
    lasts = ordered[np.diff(ordered, append=INF) > tol]
    wide = np.flatnonzero(lasts - firsts > hops * tol)
    if len(wide):
        raise InputError(f"grades {firsts[wide[0]]!r} to {lasts[wide[0]]!r} "
                         f"span more than {hops * tol!r} in steps of at most "
                         f"{tol!r}, so they cannot be told apart")
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


def _python_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """``x ** exponent`` (0 for x = 0) by Python's float power, once per
    distinct value; numpy's power may differ in the last bit."""
    distinct, inverse = np.unique(values, return_inverse=True)
    powered = np.array([x ** exponent if x > 0.0 else 0.0
                        for x in distinct.tolist()], dtype=float)
    return powered[inverse].reshape(values.shape)


def _expand(w: np.ndarray, at_inf: bool, max_dim: int, limit: float
            ) -> List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """All finite-birth nondegenerate tuples, per degree, in unsorted
    chunks: the vertex matrix, the top chain value and the prefix row of
    each tuple, rows numbered in search order.

    A block's reach matrix holds, per row and vertex v, the longest-chain
    value (p-th-power domain; plain max at p = inf) of the row extended by
    v.  Extending by ``nxt`` appends the chain entry ``top = reach[nxt]``,
    and the child's reach is ``max(reach, top + w[nxt])``
    (``max(reach, max(top, w[nxt]))`` at p = inf).  Every candidate is the
    same single addition that ``membership_scale`` makes and maxima are
    exact, so the births are bit-identical to it.  Extending a tuple can
    only raise its birth, so infinite branches are pruned.

    Blocks are expanded depth first and a block's reach is built only when
    it is expanded, so the reach alive at once is at most ``max_dim``
    blocks of ``BLOCK`` rows.  A block's children are counted before they
    are built, and the budget is checked on that count.
    """
    n = len(w)
    vertices = np.arange(n, dtype=VERTEX)
    found = [[(vertices[:, None], np.zeros(n), np.full(n, -1))]]
    found += [[(np.empty((0, k + 1), VERTEX), np.empty(0), np.empty(0, np.intp))]
              for k in range(1, max_dim + 1)]
    rows = [n] + [0] * max_dim
    if n > limit:
        raise BudgetExceededError(f"tuple count exceeded the budget of {limit}")
    # pending blocks: degree, first row, vertex matrix, and what its reach
    # is built from (the parent block's reach and rows, new vertex, top)
    stack = []
    if max_dim > 0:
        for lo in reversed(range(0, n, BLOCK)):
            block = vertices[lo:lo + BLOCK]
            stack.append((0, lo, block[:, None], None, None, block, None))
    while stack:
        k, first, verts, base, parents, last, top = stack.pop()
        if base is None:
            reach = w[last]
        elif at_inf:
            reach = np.maximum(base[parents], np.maximum(top[:, None], w[last]))
        else:
            reach = np.maximum(base[parents], top[:, None] + w[last])
        grow = reach < INF
        grow[np.arange(len(last)), last] = False
        count = int(np.count_nonzero(grow))
        if sum(rows) + count > limit:
            raise BudgetExceededError(
                f"tuple count exceeded the budget of {limit}")
        local, nxt = np.nonzero(grow)
        child_top = reach[local, nxt]
        child = np.concatenate([verts[local], nxt[:, None]], axis=1,
                               dtype=VERTEX)
        start = rows[k + 1]
        rows[k + 1] += count
        found[k + 1].append((child, child_top, first + local))
        if k + 1 < max_dim:
            for lo in reversed(range(0, count, BLOCK)):
                hi = lo + BLOCK
                stack.append((k + 1, start + lo, child[lo:hi], reach,
                              local[lo:hi], nxt[lo:hi], child_top[lo:hi]))
    return found


def enumerate_complex(X: VGraph, p: float, max_dim: int,
                      budget: int | None = DEFAULT_BUDGET,
                      eps: float = EPS) -> FilteredComplex:
    """All nondegenerate tuples of degree <= max_dim with finite birth.

    Births are clustered by ``grade_clusters`` at ``tolerance(X, eps)``,
    ``eps`` times the largest finite distance; a birth folds at most
    ``max_dim`` hops, so a grade may span ``max_dim`` tolerances.

    Raises ``BudgetExceededError`` as soon as more than ``budget`` tuples
    have been found, and ``InputError`` for a negative ``max_dim`` or
    ``budget``, an ``eps`` that is not a finite number >= 0, births that
    cannot be told apart, or when a birth at finite p would overflow.
    """
    p = check_exponent(p)
    if max_dim < 0:
        raise InputError(f"max_dim must be >= 0, got {max_dim}")
    if budget is not None and budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    if not 0.0 <= eps < INF:
        raise InputError(f"eps must be a finite number >= 0, got {eps}")
    check_powers(X.dist.flat, p, max_dim)
    n = len(X)
    if budget is not None and n ** (max_dim + 1) > budget:
        warnings.warn(
            f"up to {n}^{max_dim + 1} tuples may be enumerated, "
            f"which exceeds the budget of {budget}",
            RuntimeWarning,
        )
    names = sorted(X.vertices)
    perm = [X.index(v) for v in names]
    d = X.dist[np.ix_(perm, perm)]
    at_inf = p == INF
    w = d if at_inf else _python_power(d, p)
    limit = INF if budget is None else budget
    tuples, births, prefix = [], [], []
    found = _expand(w, at_inf, max_dim, limit)
    for k in range(len(found)):
        verts, top, parent = (np.concatenate(parts) for parts in zip(*found[k]))
        found[k] = None  # drop the chunks once joined
        birth = top if at_inf else _python_power(top, 1.0 / p)
        order = np.lexsort((*verts.T[::-1], birth))
        tuples.append(verts[order])
        births.append(birth[order])
        # parents were numbered in search order; renumber them sorted
        prefix.append(rank[parent[order]] if k else parent)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
    # each degree is sorted, so its distinct births are cheap to take;
    # a leading 0 keeps grade 0 when there are no vertices
    distinct = [level[np.diff(level, prepend=-INF) > 0] for level in births]
    grades = grade_clusters(np.concatenate([np.zeros(1), *distinct]),
                            tolerance(X, eps), max(max_dim, 1))
    grade = [np.searchsorted(grades, level, side="right") - 1
             for level in births]
    starts = [np.searchsorted(level, np.arange(len(grades) + 1))
              for level in grade]
    return FilteredComplex(X, p, max_dim, names, tuples, births, prefix,
                           grade, grades, starts)
