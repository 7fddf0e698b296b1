"""Metric diagnostics: ultrametricity, interpolation, critical exponents.

A point c interpolates between a and b at exponent p when
d(a,c)^p + d(c,b)^p <= d(a,b)^p; the infimal exponent at which some point
starts to interpolate measures how close to collinear the pair's best
witness is.  Pairs with no interpolator at exponent p are exactly the
degree-1 generators of the localized +_p homology at their distance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .values import INF, InputError, check_exponent, check_powers, close
from .vgraph import VGraph, is_enriched_category, tolerance


@dataclass
class InterpolationReport:
    a: str
    b: str
    p: float
    witnesses: List[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return bool(self.witnesses)


def is_ultrametric(X: VGraph, eps: Optional[float] = None) -> bool:
    """Strict, symmetric, and max-triangle inequality, up to the absolute
    tolerance ``eps`` (by default ``tolerance(X)``)."""
    if eps is None:
        eps = tolerance(X)
    return (X.is_strict(eps) and X.is_symmetric(eps)
            and is_enriched_category(X, INF, eps))


def interpolators(X: VGraph, a: str, b: str, p: float,
                  eps: Optional[float] = None) -> InterpolationReport:
    """Points strictly between a and b at exponent p, up to the absolute
    tolerance ``eps`` (by default ``tolerance(X)``) on d(a, b): c
    interpolates when d(a,c)^p + d(c,b)^p <= (d(a,b) + eps)^p.

    p = inf is accepted with the max feasibility rule but is outside the
    scope of the degree-1 generator characterization, so it warns.
    """
    if eps is None:
        eps = tolerance(X)
    p = check_exponent(p)
    if a == b:
        raise InputError("interpolation needs two distinct endpoints")
    check_powers(X.dist.flat, p, 2)
    D = X.d(a, b)
    if p == math.inf:
        warnings.warn(
            "interpolation at p=inf uses the max rule and has no homology "
            "interpretation", RuntimeWarning)
    witnesses = []
    for c in X.vertices:
        if c in (a, b):
            continue
        u, v = X.d(a, c), X.d(c, b)
        if math.isinf(u) or math.isinf(v):
            continue
        if p == math.inf:
            ok = max(u, v) <= D + eps
        elif math.isinf(D):
            ok = True
        else:
            ok = u ** p + v ** p <= (D + eps) ** p
        if ok:
            witnesses.append(c)
    return InterpolationReport(a, b, p, witnesses)


def h1_generators(X: VGraph, p: float, grade: float,
                  eps: Optional[float] = None) -> List[Tuple[str, str]]:
    """Ordered pairs at the given distance with no interpolating point.

    On honest metric spaces these freely generate the localized degree-1
    homology at that grade.  ``eps`` is an absolute tolerance, by default
    ``tolerance(X)``.
    """
    if eps is None:
        eps = tolerance(X)
    p = check_exponent(p)
    if p == math.inf:
        raise InputError("the generator characterization requires finite p")
    if not X.is_strict(eps):
        raise InputError(
            "h1_generators requires a strict space; collapse zero-distance "
            "pairs first (automata.strictify)")
    out = []
    for a in X.vertices:
        for b in X.vertices:
            if a == b:
                continue
            d = X.d(a, b)
            if math.isinf(d) or not close(d, grade, eps):
                continue
            if not interpolators(X, a, b, p, eps).feasible:
                out.append((a, b))
    return out


def p_critical(X: VGraph, a: str, b: str, tol: float = 1e-6,
               eps: Optional[float] = None) -> float:
    """Infimal exponent at which some point starts to interpolate.

    Bisection on (u/D)^p + (v/D)^p = 1 per candidate, to within ``tol``
    or until no float lies between the ends; candidates with a
    leg not strictly shorter than D (by more than the absolute tolerance
    ``eps``, by default ``tolerance(X)``) never become feasible.
    """
    if eps is None:
        eps = tolerance(X)
    if a == b:
        raise InputError("p_critical needs two distinct endpoints")
    if not tol > 0.0:
        raise InputError(f"p_critical needs a positive tolerance, got {tol!r}")
    D = X.d(a, b)
    if D <= eps or math.isinf(D):
        raise InputError(
            f"p_critical needs a finite positive distance between {a!r} "
            f"and {b!r}")
    P_MAX = 64.0
    best = INF
    for c in X.vertices:
        if c in (a, b):
            continue
        u, v = X.d(a, c), X.d(c, b)
        if not (u < D - eps and v < D - eps):
            continue

        def excess(p: float) -> float:
            return (u / D) ** p + (v / D) ** p - 1.0

        if excess(1.0) <= 0.0:
            return 1.0
        if excess(P_MAX) > 0.0:
            continue  # would need an exponent beyond the search bracket
        lo, hi = 1.0, P_MAX
        # stop also where no float lies strictly between the ends
        while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
            if excess(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        best = min(best, hi)
    return best
