"""Extended nonnegative grades and the +_p tensor family.

Grades live in [0, inf].  ``math.inf`` is the absorbing element: it is a
genuine IEEE infinity, so max/addition absorb exactly and no sentinel
arithmetic is needed.  ``EPS`` is the one default tolerance: relative for
grades (``enumerate_complex`` and the CLI use ``EPS`` times the largest
finite distance), and absolute for the metric checks in ``vgraph``,
``analysis`` and ``automata``, which the CLI hands that same product.
"""

from __future__ import annotations

import math
from typing import Iterable

INF = math.inf

#: default tolerance, relative to the largest finite distance for grades
EPS = 1e-9


class InputError(ValueError):
    """Bad user-supplied data (unknown vertex, malformed file, ...)."""


class BudgetExceededError(RuntimeError):
    """Tuple enumeration exceeded the configured size budget."""


def check_exponent(p: float) -> float:
    """Validate an exponent in [1, inf] and return it as a float."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise InputError(f"exponent must lie in [1, inf], got {p}")
    return p


def check_powers(distances: Iterable[float], p: float, hops: int) -> None:
    """Reject distances whose p-th powers overflow when summed.

    Finite-p code adds up to ``hops`` p-th powers of distances; that sum
    stays a finite float for every path exactly when ``hops * dmax ** p``
    does, where ``dmax`` is the largest finite distance.  Raises
    ``InputError`` otherwise.  Nothing is summed at p = inf.
    """
    if p == INF or hops < 1:
        return
    dmax = max((float(d) for d in distances if d < INF), default=0.0)
    try:
        total = hops * dmax ** p
    except OverflowError:
        total = INF
    if total == INF:
        raise InputError(
            f"distance {dmax!r} is too large at p = {p!r}: {hops} times "
            f"its p-th power overflows a float")


def is_grade(r: float) -> bool:
    return not math.isnan(r) and r >= 0.0


def tensor(r: float, s: float, p: float) -> float:
    """Combine two grades with the +_p operation.

    For finite p this is (r^p + s^p)^(1/p); for p = inf it is max(r, s).
    0 is the unit and inf absorbs.
    """
    p = check_exponent(p)
    if math.isinf(r) or math.isinf(s):
        return INF
    if p == math.inf:
        return max(r, s)
    if p == 1.0:
        return r + s
    if r == 0.0:
        return s
    if s == 0.0:
        return r
    return (r ** p + s ** p) ** (1.0 / p)


def tensor_fold(rs: Iterable[float], p: float) -> float:
    """Left-fold of :func:`tensor`; the empty fold is the unit 0."""
    p = check_exponent(p)
    if p == math.inf:
        return max(rs, default=0.0)
    if p == 1.0:
        return sum(rs, 0.0)
    total = 0.0
    for r in rs:
        if math.isinf(r):
            return INF
        total += r ** p
    return total ** (1.0 / p) if total > 0.0 else 0.0


def leq(a: float, b: float, eps: float = EPS) -> bool:
    """a <= b up to tolerance; exact at infinity."""
    if math.isinf(a):
        return math.isinf(b)
    if math.isinf(b):
        return True
    return a <= b + eps


def close(a: float, b: float, eps: float = EPS) -> bool:
    """Grade equality up to tolerance; infinities only equal each other."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= eps


def grade_str(r: float) -> str:
    """Serialize a grade: "inf" for infinity, a decimal literal otherwise."""
    r = float(r)
    if math.isinf(r):
        return "inf"
    if r == int(r):
        return str(int(r))
    return repr(r)


def parse_grade(token) -> float:
    """Parse a grade from a JSON value or CSV token ("inf" allowed)."""
    if isinstance(token, str):
        token = token.strip()
        if token.lower() in ("inf", "infinity", "∞"):
            return INF
        try:
            value = float(token)
        except ValueError as exc:
            raise InputError(f"cannot parse grade {token!r}") from exc
    elif isinstance(token, (int, float)):
        value = float(token)
    else:
        raise InputError(f"cannot parse grade {token!r}")
    if not is_grade(value):
        raise InputError(f"grade must be a nonnegative real, got {token!r}")
    return value


def parse_exponent(token) -> float:
    p = parse_grade(token)
    return check_exponent(p)
