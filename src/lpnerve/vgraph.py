"""Finite generalized metric spaces and their categorical constructions.

A :class:`VGraph` is a finite vertex set with a grade-valued distance for
every ordered pair, zero on the diagonal and no other laws assumed.  On top
of that this module provides morphism checking, the +_p triangle-inequality
test, path graphs and their triangle-closed counterparts, the (min, +_p)
path closure, (co)products, (co)equalizers, and the directed trick that
turns a symmetric space into an order-filtered one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .values import (EPS, INF, InputError, check_exponent, check_powers, leq,
                     tensor, tensor_fold)


@dataclass
class VGraph:
    """Vertices plus a dense matrix of ordered-pair distances."""

    vertices: List[str]
    dist: np.ndarray  # float64, shape (n, n), entries in [0, inf]

    def __post_init__(self):
        self.dist = np.asarray(self.dist, dtype=float)
        if np.signbit(self.dist).any():  # -0.0 is the distance 0
            self.dist = self.dist + 0.0
        n = len(self.vertices)
        if self.dist.shape != (n, n):
            raise InputError(
                f"distance matrix shape {self.dist.shape} does not match "
                f"{n} vertices"
            )
        if len(set(self.vertices)) != n:
            raise InputError("duplicate vertex names")
        self._index = {v: i for i, v in enumerate(self.vertices)}

    # -- basic access -------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def d(self, a: str, b: str) -> float:
        return float(self.dist[self.index(a), self.index(b)])

    def is_symmetric(self, eps: float = EPS) -> bool:
        finite = np.isfinite(self.dist)
        if not np.array_equal(finite, finite.T):
            return False
        diff = np.abs(np.where(finite, self.dist, 0.0) - np.where(finite.T, self.dist.T, 0.0))
        return bool(np.all(diff <= eps))

    def is_strict(self, eps: float = EPS) -> bool:
        n = len(self)
        off = ~np.eye(n, dtype=bool)
        return bool(np.all(self.dist[off] > eps))

    @classmethod
    def from_entries(cls, vertices: Sequence[str], entries: Mapping[Tuple[str, str], float],
                     default: float = INF) -> "VGraph":
        """Build from sparse (a, b) -> distance entries; diagonal 0 unless set."""
        vertices = list(vertices)
        n = len(vertices)
        mat = np.full((n, n), default, dtype=float)
        np.fill_diagonal(mat, 0.0)
        idx = {v: i for i, v in enumerate(vertices)}
        for (a, b), r in entries.items():
            if a not in idx or b not in idx:
                raise InputError(f"edge ({a!r}, {b!r}) mentions an unknown vertex")
            mat[idx[a], idx[b]] = r
        return cls(vertices, mat)

    @classmethod
    def point(cls, name: str = "x") -> "VGraph":
        return cls([name], np.zeros((1, 1)))


@dataclass
class GraphMorphism:
    """A vertex map that must not increase distances."""

    source: VGraph
    target: VGraph
    map: Dict[str, str]

    def __call__(self, v: str) -> str:
        try:
            return self.map[v]
        except KeyError:
            raise InputError(f"morphism undefined on vertex {v!r}") from None


@dataclass
class ValidationReport:
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def tolerance(X: VGraph, eps: float = EPS) -> float:
    """``eps`` times the largest finite distance magnitude of ``X``: the
    absolute tolerance below which two grades of ``X`` are the same."""
    return eps * float(np.abs(X.dist[np.isfinite(X.dist)]).max(initial=0.0))


def validate(X: VGraph, eps: float = EPS) -> ValidationReport:
    """Report structural violations: a nonzero diagonal, missing or
    negative entries."""
    report = ValidationReport()
    d = X.dist
    diagonal = np.diagonal(d)
    for i in np.flatnonzero(np.isnan(diagonal) | (np.abs(diagonal) > eps)):
        report.violations.append(f"nonzero diagonal at {X.vertices[i]}")
    missing = np.isnan(d)
    for i, j in zip(*np.nonzero(missing | (d < -eps))):
        kind = "missing" if missing[i, j] else "negative"
        report.violations.append(
            f"{kind} entry at ({X.vertices[i]}, {X.vertices[j]})")
    return report


def check_morphism(f: GraphMorphism, eps: float = EPS) -> bool:
    """True iff f is distance-nonincreasing on every ordered pair."""
    X, Y = f.source, f.target
    for v in X.vertices:
        Y.index(f(v))
    for a in X.vertices:
        fa = Y.index(f(a))
        ia = X.index(a)
        for b in X.vertices:
            if not leq(Y.dist[fa, Y.index(f(b))], X.dist[ia, X.index(b)], eps):
                return False
    return True


def is_enriched_category(X: VGraph, p: float, eps: float = EPS) -> bool:
    """True iff every ordered triple satisfies the +_p triangle inequality."""
    check_exponent(p)
    n = len(X)
    d = X.dist
    for a, b, c in itertools.product(range(n), repeat=3):
        if not leq(d[a, c], tensor(d[a, b], d[b, c], p), eps):
            return False
    return True


def gamma_path(rs: Sequence[float]) -> VGraph:
    """The path graph with consecutive edge grades rs and inf elsewhere."""
    n = len(rs)
    verts = [f"x{i}" for i in range(n + 1)]
    mat = np.full((n + 1, n + 1), INF)
    np.fill_diagonal(mat, 0.0)
    for i, r in enumerate(rs):
        mat[i, i + 1] = r
    return VGraph(verts, mat)


def delta_path(rs: Sequence[float], p: float) -> VGraph:
    """The triangle-closed path: forward distances are folded hop grades."""
    check_exponent(p)
    n = len(rs)
    verts = [f"x{i}" for i in range(n + 1)]
    mat = np.full((n + 1, n + 1), INF)
    np.fill_diagonal(mat, 0.0)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            mat[i, j] = tensor_fold(rs[i:j], p)
    return VGraph(verts, mat)


def free_category(X: VGraph, p: float) -> VGraph:
    """All-pairs path closure under (min, +_p).

    Computed by Floyd-Warshall; for finite p the relaxation runs in the
    p-th-power domain so each step is a single addition.
    """
    p = check_exponent(p)
    n = len(X)
    check_powers(X.dist.flat, p, n - 1)
    d = X.dist.copy()
    np.fill_diagonal(d, 0.0)
    if p == math.inf:
        for k in range(n):
            np.minimum(d, np.maximum(d[:, k][:, None], d[k, :][None, :]), out=d)
    else:
        with np.errstate(invalid="ignore"):
            w = np.where(np.isinf(d), INF, d ** p)
        for k in range(n):
            np.minimum(w, w[:, k][:, None] + w[k, :][None, :], out=w)
        d = np.where(np.isinf(w), INF, np.maximum(w, 0.0) ** (1.0 / p))
    np.fill_diagonal(d, 0.0)
    return VGraph(list(X.vertices), d)


def product(Xs: Sequence[VGraph]) -> VGraph:
    """Cartesian product with componentwise supremum distances.

    The empty product is the one-point terminal graph.
    """
    if not Xs:
        return VGraph.point("()")
    names = [
        "(" + ",".join(combo) + ")"
        for combo in itertools.product(*(X.vertices for X in Xs))
    ]
    index_tuples = list(itertools.product(*(range(len(X)) for X in Xs)))
    n = len(index_tuples)
    mat = np.zeros((n, n))
    for ia, a in enumerate(index_tuples):
        for ib, b in enumerate(index_tuples):
            mat[ia, ib] = max(
                X.dist[ai, bi] for X, ai, bi in zip(Xs, a, b)
            )
    np.fill_diagonal(mat, 0.0)
    return VGraph(names, mat)


def coproduct(Xs: Sequence[VGraph]) -> VGraph:
    """Disjoint union; distances across components are inf."""
    names: List[str] = []
    blocks: List[np.ndarray] = []
    for k, X in enumerate(Xs):
        tag = f"{k}:" if len(Xs) > 1 else ""
        names.extend(tag + v for v in X.vertices)
        blocks.append(X.dist)
    n = sum(len(X) for X in Xs)
    mat = np.full((n, n), INF)
    offset = 0
    for block in blocks:
        m = block.shape[0]
        mat[offset:offset + m, offset:offset + m] = block
        offset += m
    if n == 0:
        return VGraph([], np.zeros((0, 0)))
    np.fill_diagonal(mat, 0.0)
    return VGraph(names, mat)


def _require_parallel(f: GraphMorphism, g: GraphMorphism) -> None:
    if f.source is not g.source and f.source.vertices != g.source.vertices:
        raise InputError("parallel morphisms must share their source")
    if f.target is not g.target and f.target.vertices != g.target.vertices:
        raise InputError("parallel morphisms must share their target")


def equalizer(f: GraphMorphism, g: GraphMorphism) -> Tuple[VGraph, GraphMorphism]:
    """Sub-graph where f and g agree, with its inclusion."""
    _require_parallel(f, g)
    X = f.source
    kept = [v for v in X.vertices if f(v) == g(v)]
    idx = [X.index(v) for v in kept]
    sub = VGraph(kept, X.dist[np.ix_(idx, idx)].copy())
    incl = GraphMorphism(sub, X, {v: v for v in kept})
    return sub, incl


def coequalizer(f: GraphMorphism, g: GraphMorphism) -> Tuple[VGraph, GraphMorphism]:
    """Quotient of the target by f(x) ~ g(x), with its projection.

    Class distances are the infimum over representatives.
    """
    _require_parallel(f, g)
    Y = f.target
    parent = {v: v for v in Y.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x in f.source.vertices:
        a, b = find(f(x)), find(g(x))
        if a != b:
            parent[b] = a
    classes: Dict[str, List[str]] = {}
    for v in Y.vertices:
        classes.setdefault(find(v), []).append(v)
    # name each class after its earliest member in vertex order
    order = {v: i for i, v in enumerate(Y.vertices)}
    reps = sorted(classes, key=order.get)
    names = [min(classes[r], key=order.get) for r in reps]
    n = len(reps)
    mat = np.zeros((n, n))
    for i, ra in enumerate(reps):
        for j, rb in enumerate(reps):
            mat[i, j] = min(
                Y.dist[Y.index(a), Y.index(b)]
                for a in classes[ra]
                for b in classes[rb]
            )
    np.fill_diagonal(mat, 0.0)
    quotient = VGraph(names, mat)
    proj_map = {}
    for i, r in enumerate(reps):
        for v in classes[r]:
            proj_map[v] = names[i]
    proj = GraphMorphism(Y, quotient, proj_map)
    return quotient, proj


def asymmetrize(X: VGraph, order: Sequence[str] | None = None) -> VGraph:
    """Keep only order-respecting distances of a symmetric space.

    Distances from a later vertex to an earlier one become inf; this turns
    unordered simplices into unique ordered ones without changing homology.
    Symmetry is checked to within ``tolerance(X)``, relative to the scale.
    """
    if not X.is_symmetric(tolerance(X)):
        raise InputError("asymmetrize requires a symmetric space")
    if order is None:
        order = list(X.vertices)
    if sorted(order) != sorted(X.vertices):
        raise InputError("order must be a permutation of the vertices")
    position = {v: i for i, v in enumerate(order)}
    rank = np.array([position[v] for v in X.vertices])
    mat = np.where(rank[:, None] > rank, INF, X.dist)
    np.fill_diagonal(mat, 0.0)
    return VGraph(list(X.vertices), mat)

