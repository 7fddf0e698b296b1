"""Automata with letter costs and the metric space of optimal transitions.

An automaton is stored by its generating transitions, each labeled by a
nonempty word over a costed alphabet.  Optimal transition costs between
states (shortest paths over the generators) form a generalized metric
space whose localized degree-1 homology picks out the cost-primitive
pairs: transitions cheaper than every two-leg composite.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .values import INF, InputError, close
from .vgraph import GraphMorphism, VGraph, coequalizer, free_category, tolerance


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    label: str


@dataclass
class Automaton:
    states: List[str]
    alphabet: Dict[str, float]  # letter -> cost
    transitions: List[Transition]

    def __post_init__(self):
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise InputError("duplicate state names")
        for letter, cost in self.alphabet.items():
            if len(letter) != 1:
                raise InputError(f"alphabet keys must be single letters, got {letter!r}")
            if not (cost >= 0.0 and math.isfinite(cost)):
                raise InputError(f"letter {letter!r} must have a finite cost >= 0")
        top = max(self.alphabet.values(), default=0.0)
        for letter, cost in self.alphabet.items():
            # scale-free: the ratio to the dearest letter, up to its rounding
            ratio = cost / top if top > 0 else 0.0
            if abs(ratio - round(ratio, 6)) > 1e-9:
                warnings.warn(
                    f"cost of letter {letter!r} is not a short decimal "
                    "fraction of the dearest letter's; the degree-1 generator "
                    "equivalence assumes a discrete cost range", RuntimeWarning)
        for t in self.transitions:
            if t.source not in state_set or t.target not in state_set:
                raise InputError(f"transition {t} mentions an unknown state")
            if not t.label:
                raise InputError("transition labels must be nonempty words")
            word_cost(t.label, self.alphabet)


def word_cost(word: str, alphabet: Dict[str, float]) -> float:
    """Sum of letter costs; the empty word costs 0."""
    total = 0.0
    for letter in word:
        try:
            total += alphabet[letter]
        except KeyError:
            raise InputError(f"unknown letter {letter!r}") from None
    return total


def cost_space(A: Automaton) -> VGraph:
    """Optimal cost between every ordered pair of states.

    Dijkstra from each source over the generator transitions; unreachable
    pairs sit at inf and the diagonal at 0 (the empty word).
    """
    n = len(A.states)
    idx = {s: i for i, s in enumerate(A.states)}
    adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for t in A.transitions:
        adj[idx[t.source]].append((idx[t.target], word_cost(t.label, A.alphabet)))
    mat = np.full((n, n), INF)
    for src in range(n):
        dist = [INF] * n
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        mat[src, :] = dist
    np.fill_diagonal(mat, 0.0)
    return VGraph(list(A.states), mat)


def cost_primitive_pairs(C: VGraph, eps: Optional[float] = None
                         ) -> List[Tuple[str, str, float]]:
    """Ordered pairs whose optimal cost beats every two-leg composite.

    Each returned pair carries its cost as the grade.  These are exactly
    the degree-1 generators of the localized homology of a strict cost
    space.  Costs are compared up to the absolute tolerance ``eps``, by
    default ``tolerance(C)``.
    """
    if eps is None:
        eps = tolerance(C)
    if not C.is_strict(eps):
        raise InputError(
            "cost space has distinct states at cost 0; apply strictify first")
    out = []
    for a in C.vertices:
        for b in C.vertices:
            if a == b:
                continue
            d = C.d(a, b)
            if d <= eps or math.isinf(d):
                continue
            if any(
                close(d, C.d(a, c) + C.d(c, b), eps)
                for c in C.vertices if c not in (a, b)
            ):
                continue
            out.append((a, b, d))
    return out


def strictify(X: VGraph, eps: Optional[float] = None
              ) -> Tuple[VGraph, GraphMorphism]:
    """Collapse mutually-zero-distance vertices and restore transitivity.

    Quotient distances take the infimum over representatives; the additive
    path closure afterwards repairs any triangle-inequality damage.  Two
    vertices are at distance zero within the absolute tolerance ``eps``,
    by default ``tolerance(X)``.
    """
    if eps is None:
        eps = tolerance(X)
    pairs = [
        (a, b)
        for a in X.vertices for b in X.vertices
        if a != b and X.d(a, b) <= eps and X.d(b, a) <= eps
    ]
    if not pairs:
        quotient = VGraph(list(X.vertices), X.dist.copy())
        return quotient, GraphMorphism(X, quotient, {v: v for v in X.vertices})
    # reuse the coequalizer quotient machinery on the identified pairs
    pair_sources = VGraph([f"w{i}" for i in range(len(pairs))],
                          np.where(np.eye(len(pairs)), 0.0, INF))
    f = GraphMorphism(pair_sources, X, {f"w{i}": a for i, (a, b) in enumerate(pairs)})
    g = GraphMorphism(pair_sources, X, {f"w{i}": b for i, (a, b) in enumerate(pairs)})
    quotient, proj = coequalizer(f, g)
    closed = free_category(quotient, 1.0)
    return closed, GraphMorphism(X, closed, dict(proj.map))
