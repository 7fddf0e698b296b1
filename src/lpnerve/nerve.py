"""Grade-filtered tuple nerve of a generalized metric space.

Every nondegenerate vertex tuple gets a birth grade: the smallest scale at
which some witness assignment of hop grades covers all forward distances.
For finite p the birth is computed by a longest-chain dynamic program in
the p-th-power domain (the witness LP has an interval constraint matrix,
so its optimum is attained on a chain of index pairs); for p = inf it is
the maximum forward distance.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

from .values import (EPS, INF, BudgetExceededError, check_exponent,
                     tensor_fold)
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
        """Sorted, tolerance-deduplicated finite birth grades; contains 0."""
        births = sorted(
            t.birth for level in self.tuples for t in level
            if math.isfinite(t.birth)
        )
        out = [0.0]
        for b in births:
            if b > out[-1] + EPS:
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


def membership_scale_category(X: VGraph, verts: Sequence[str], p: float) -> float:
    """Birth grade when X already satisfies the +_p triangle inequality:
    just the fold of consecutive forward distances."""
    idx = [X.index(v) for v in verts]
    return tensor_fold([X.dist[idx[i], idx[i + 1]] for i in range(len(idx) - 1)], p)


def _enumerate_from(X: VGraph, p: float, max_dim: int, first: int) -> List[List[Tuple[float, Tuple[int, ...]]]]:
    """All finite-birth nondegenerate tuples starting at vertex ``first``.

    Extending a tuple can only raise its birth, so infinite-birth branches
    are pruned.
    """
    n = len(X)
    out: List[List[Tuple[float, Tuple[int, ...]]]] = [[] for _ in range(max_dim + 1)]
    names = X.vertices
    stack: List[Tuple[Tuple[int, ...], float]] = [((first,), 0.0)]
    while stack:
        tup, birth = stack.pop()
        out[len(tup) - 1].append((birth, tup))
        if len(tup) - 1 == max_dim:
            continue
        last = tup[-1]
        for nxt in range(n):
            if nxt == last:
                continue
            verts = tuple(names[i] for i in tup) + (names[nxt],)
            b = membership_scale(X, verts, p)
            if math.isfinite(b):
                stack.append((tup + (nxt,), b))
    return out


def enumerate_complex(X: VGraph, p: float, max_dim: int,
                      budget: int | None = DEFAULT_BUDGET,
                      workers: int = 1) -> FilteredComplex:
    """All nondegenerate tuples of degree <= max_dim with finite birth."""
    p = check_exponent(p)
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    n = len(X)
    if budget is not None and n ** (max_dim + 1) > budget:
        warnings.warn(
            f"up to {n}^{max_dim + 1} tuples may be enumerated, "
            f"which exceeds the budget of {budget}",
            RuntimeWarning,
        )
    levels: List[List[Tuple[float, Tuple[int, ...]]]] = [[] for _ in range(max_dim + 1)]
    if workers > 1 and n > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(lambda v: _enumerate_from(X, p, max_dim, v), range(n))
    else:
        parts = (_enumerate_from(X, p, max_dim, v) for v in range(n))
    count = 0
    for part in parts:
        for deg, items in enumerate(part):
            levels[deg].extend(items)
            count += len(items)
            if budget is not None and count > budget:
                raise BudgetExceededError(
                    f"tuple count exceeded the budget of {budget}")
    names = X.vertices
    tuples = [
        sorted(
            (SimplexTuple(tuple(names[i] for i in tup), birth)
             for birth, tup in level),
            key=lambda t: (t.birth, t.verts),
        )
        for level in levels
    ]
    return FilteredComplex(X, p, max_dim, tuples)


def critical_grades(X: VGraph, p: float, max_dim: int,
                    budget: int | None = DEFAULT_BUDGET) -> List[float]:
    """Sorted deduplicated finite births of the enumerated nerve."""
    return enumerate_complex(X, p, max_dim, budget=budget).grades
