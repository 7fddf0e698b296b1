"""Integer chain groups of the filtered nerve, with grade localization.

Chains are normalized from the start: generators are the nondegenerate
tuples, and a degenerate face contributes nothing to a boundary.  A
boundary has one format, sparse columns: per column, the increasing row
indices of its nonzero entries and a parallel list of their coefficients.
``columns`` is the one builder of that format, from the alternating faces
of ``faces``; ``boundary_matrix`` calls it per grade and
``homology.persistence_barcode`` on the whole filtration.  A sieve
selects which births survive at each grade; the strict-predecessor sieve
keeps only generators born exactly at the grade under inspection, which
is the magnitude-style localization.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .values import EPS, InputError, close
from .nerve import FilteredComplex, SimplexTuple

EMPTY = "empty"
STRICT_PREDECESSORS = "strict"
CUSTOM_GRID = "custom"

#: sparse columns: per column, increasing row indices and their coefficients
Columns = Tuple[List[List[int]], List[List[int]]]


@dataclass(frozen=True)
class SieveSpec:
    """Which birth grades are quotiented away at each grade.

    kind "empty": nothing is killed (global chains).
    kind "strict": every birth strictly below the grade is killed.
    kind "custom": an explicit down-closed, grade-monotone assignment on
    the critical grid, given as {grade: frozenset of killed grades}.
    """

    kind: str = EMPTY
    grid: Optional[Dict[float, frozenset]] = None

    def __post_init__(self):
        if self.kind not in (EMPTY, STRICT_PREDECESSORS, CUSTOM_GRID):
            raise InputError(f"unknown sieve kind {self.kind!r}")
        if self.kind == CUSTOM_GRID:
            if self.grid is None:
                raise InputError("custom sieve requires a grid assignment")
            self._check_grid()

    def _check_grid(self):
        grades = sorted(self.grid)
        for r, killed in self.grid.items():
            for s in killed:
                if s >= r - EPS:
                    raise InputError(
                        f"sieve at grade {r} may only contain grades below it")
            # down-closed on the grid: anything below a killed grade is killed
            for t in grades:
                if t not in killed and any(t < s - EPS for s in killed):
                    raise InputError(
                        f"sieve at grade {r} is not down-closed (misses {t})")
        for lo, hi in zip(grades, grades[1:]):
            if not self.grid[lo] <= self.grid[hi]:
                raise InputError("sieve assignment must be monotone in the grade")

    def kills(self, birth: float, grade: float, eps: float = EPS) -> bool:
        if self.kind == EMPTY:
            return False
        if self.kind == STRICT_PREDECESSORS:
            return birth < grade - eps
        killed = self._lookup(grade)
        return any(close(birth, s, eps) for s in killed)

    def _lookup(self, grade: float) -> frozenset:
        for r, killed in self.grid.items():
            if close(r, grade):
                return killed
        raise InputError(f"grade {grade} is not on the sieve grid")


def faces(verts: Tuple[str, ...]) -> Iterator[Tuple[Tuple[str, ...], int]]:
    """The nondegenerate faces of a tuple with their boundary signs.

    ``verts`` must itself be nondegenerate (no two equal neighbours).  Then
    deleting vertex ``i`` makes a degenerate face exactly when ``i`` is
    inner and its two neighbours are equal, and distinct deletions give
    distinct faces, so each face appears once with coefficient +1 or -1.
    """
    last = len(verts) - 1
    if last < 1:
        return
    for i in range(last + 1):
        if 0 < i < last and verts[i - 1] == verts[i + 1]:
            continue
        yield verts[:i] + verts[i + 1:], -1 if i % 2 else 1


def columns(tuples: Sequence[SimplexTuple],
            index: Dict[Tuple[str, ...], int]) -> Columns:
    """Boundary columns of ``tuples`` over the rows numbered by ``index``.

    Column j holds the faces of ``tuples[j]`` that ``index`` numbers, with
    their signs; a face missing from ``index`` (killed by a sieve, or not
    yet born) contributes nothing.
    """
    col_rows: List[List[int]] = []
    col_coeffs: List[List[int]] = []
    for t in tuples:
        rows: List[int] = []
        coeffs: List[int] = []
        for face, sign in faces(t.verts):
            k = index.get(face)
            if k is not None:
                rows.append(k)
                coeffs.append(sign)
        if len(rows) > 1:
            pairs = sorted(zip(rows, coeffs))
            rows = [k for k, _ in pairs]
            coeffs = [c for _, c in pairs]
        col_rows.append(rows)
        col_coeffs.append(coeffs)
    return col_rows, col_coeffs


def generators_at(fc: FilteredComplex, degree: int, grade: float,
                  sieve: SieveSpec, eps: float = EPS) -> List[SimplexTuple]:
    """Surviving tuples of the given degree at the given grade."""
    if degree > fc.max_dim:
        raise InputError(
            f"degree {degree} exceeds the enumerated max_dim {fc.max_dim}")
    if degree < 0:
        return []
    tuples = fc.degree(degree)
    births = fc.births[degree]  # sorted, like the tuples
    hi = bisect_right(births, grade + eps)
    if sieve.kind == EMPTY:
        return tuples[:hi]
    if sieve.kind == STRICT_PREDECESSORS:
        return tuples[bisect_left(births, grade - eps, 0, hi):hi]
    return [t for t in tuples[:hi] if not sieve.kills(t.birth, grade, eps)]


def boundary_matrix(fc: FilteredComplex, degree: int, grade: float,
                    sieve: SieveSpec, eps: float = EPS) -> Columns:
    """Alternating-face boundary from degree to degree-1 survivors.

    Rows follow ``generators_at(degree - 1)`` and columns follow
    ``generators_at(degree)``; faces that are degenerate or killed by the
    sieve contribute zero.
    """
    if degree < 1:
        raise InputError("boundary_matrix requires degree >= 1")
    rows = generators_at(fc, degree - 1, grade, sieve, eps)
    return columns(generators_at(fc, degree, grade, sieve, eps),
                   {t.verts: i for i, t in enumerate(rows)})
