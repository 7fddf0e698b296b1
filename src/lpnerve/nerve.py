"""Grade-filtered tuple nerve of a generalized metric space.

Every nondegenerate vertex tuple gets a birth grade: the smallest scale at
which some witness assignment of hop grades covers all forward distances.
For finite p the birth is computed by a longest-chain dynamic program in
the p-th-power domain (the witness LP has an interval constraint matrix,
so its optimum is attained on a chain of index pairs); for p = inf it is
the maximum forward distance.

``enumerate_complex`` runs one depth-first search over all tuples and
carries the dynamic program down it: a tuple's chain values are those of
its parent plus one new entry, so no birth is recomputed from scratch.
``membership_scale`` computes one birth on its own and is the reference
the search agrees with bit for bit.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from .values import (EPS, INF, BudgetExceededError, check_exponent,
                     check_powers)
from .vgraph import VGraph

#: default cap on the number of enumerated tuples
DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class SimplexTuple:
    verts: Tuple[str, ...]
    birth: float

    @property
    def degree(self) -> int:
        return len(self.verts) - 1


@dataclass
class FilteredComplex:
    space: VGraph
    p: float
    max_dim: int
    tuples: List[List[SimplexTuple]]  # per degree, sorted by (birth, verts)

    def degree(self, n: int) -> List[SimplexTuple]:
        if n < 0 or n > self.max_dim:
            return []
        return self.tuples[n]

    @cached_property
    def births(self) -> List[List[float]]:
        """Per degree, the births of ``tuples`` in order, for bisection."""
        return [[t.birth for t in level] for level in self.tuples]

    @property
    def grades(self) -> List[float]:
        """Sorted finite birth grades, deduplicated at ``EPS``; contains 0."""
        return self.merged_grades(EPS)

    def merged_grades(self, eps: float) -> List[float]:
        """Sorted finite birth grades, each more than ``eps`` above the
        last one kept; contains 0."""
        births = sorted(
            t.birth for level in self.tuples for t in level
            if math.isfinite(t.birth)
        )
        out = [0.0]
        for b in births:
            if b > out[-1] + eps:
                out.append(b)
        return out

    def size(self) -> int:
        return sum(len(level) for level in self.tuples)


def is_degenerate(verts: Sequence[str]) -> bool:
    return any(verts[i] == verts[i + 1] for i in range(len(verts) - 1))


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


def _search(X: VGraph, p: float, max_dim: int,
            budget: int | None) -> List[List[Tuple[float, Tuple[str, ...]]]]:
    """All finite-birth nondegenerate tuples as (birth, verts), per degree,
    in one depth-first search.

    Each stacked tuple carries its reach vector: ``reach[v]`` is the
    longest-chain value (p-th-power domain; plain max at p = inf) of the
    tuple extended by vertex index ``v``.  Extending by ``nxt`` appends the
    chain entry ``top = reach[nxt]``, and the child's reach is
    ``max(reach[v], top + w[nxt][v])`` (``max(top, d[nxt][v])`` at
    p = inf).  Every candidate is the same single addition that
    ``membership_scale`` makes and maxima are exact, so the births are
    bit-identical to it.  Extending a tuple can only raise its birth, so
    infinite branches are pruned.
    """
    names = X.vertices
    n = len(names)
    limit = INF if budget is None else budget
    out: List[List[Tuple[float, Tuple[str, ...]]]] = [[] for _ in range(max_dim + 1)]
    out[0] = [(0.0, (v,)) for v in names]
    count = n
    stack: List[Tuple[Tuple[str, ...], int, List[float]]] = []
    if max_dim > 0:
        d = X.dist.tolist()
        if p == INF:
            op, w, root = max, d, None
        else:
            op, w, root = operator.add, [[x ** p for x in row] for row in d], 1.0 / p
        stack = [((v,), i, [op(0.0, x) for x in w[i]]) for i, v in enumerate(names)]
    while count <= limit and stack:
        verts, last, reach = stack.pop()
        found = out[len(verts)]
        deeper = len(verts) < max_dim
        for nxt in range(n):
            top = reach[nxt]
            if nxt == last or top == INF:
                continue
            count += 1
            if count > limit:
                break
            child = verts + (names[nxt],)
            if root is None:
                found.append((top, child))
            else:
                found.append((top ** root if top > 0.0 else 0.0, child))
            if deeper:
                stack.append((child, nxt, list(map(
                    max, reach, [op(top, x) for x in w[nxt]]))))
    if count > limit:
        raise BudgetExceededError(f"tuple count exceeded the budget of {budget}")
    return out


def enumerate_complex(X: VGraph, p: float, max_dim: int,
                      budget: int | None = DEFAULT_BUDGET) -> FilteredComplex:
    """All nondegenerate tuples of degree <= max_dim with finite birth.

    Raises ``BudgetExceededError`` as soon as more than ``budget`` tuples
    have been found, and ``InputError`` when a birth at finite p would
    overflow.
    """
    p = check_exponent(p)
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    check_powers(X.dist.flat, p, max_dim)
    n = len(X)
    if budget is not None and n ** (max_dim + 1) > budget:
        warnings.warn(
            f"up to {n}^{max_dim + 1} tuples may be enumerated, "
            f"which exceeds the budget of {budget}",
            RuntimeWarning,
        )
    tuples = []
    for level in _search(X, p, max_dim, budget):
        level.sort()
        tuples.append([SimplexTuple(verts, birth) for birth, verts in level])
    return FilteredComplex(X, p, max_dim, tuples)
