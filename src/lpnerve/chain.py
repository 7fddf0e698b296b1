"""Integer chain groups of the filtered nerve, with grade localization.

Chains are normalized from the start: generators are the nondegenerate
tuples, and a degenerate face contributes nothing to a boundary.  A chain
group is a set of rows of one degree of the columnar complex: since each
degree is sorted by birth, ``generators_at`` finds the rows that survive
at a grade by bisecting the births (a contiguous run under the empty and
strict sieves).  Every boundary is read from the complex's face-index
table (``FilteredComplex.faces``), which holds for each tuple and deleted
vertex the row of the face one degree down.

A boundary has one format, sparse columns: per column, the increasing row
indices of its nonzero entries and a parallel list of their coefficients.
``columns`` is the one builder of that format, from rows of the face
table; ``boundary_matrix`` calls it per grade and
``homology.persistence_barcode`` on the whole filtration.  A sieve
selects which births survive at each grade; the strict-predecessor sieve
keeps only generators born exactly at the grade under inspection, which
is the magnitude-style localization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .values import EPS, InputError, close
from .nerve import FilteredComplex

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


def columns(faces: np.ndarray, rows: np.ndarray) -> Columns:
    """Boundary columns of tuples with face table ``faces`` (as from
    ``FilteredComplex.faces``) over the sorted rows ``rows`` one degree down.

    Column j holds, with their signs, the faces of tuple j found in
    ``rows``, numbered by position there; a degenerate face (-1) or one
    missing from ``rows`` (killed by a sieve, or not yet born) contributes
    nothing.
    """
    pos = np.searchsorted(rows, faces)
    # pos == len(rows) reads the -1 pad, which only a degenerate face matches
    hit = (np.append(rows, -1)[pos] == faces) & (faces >= 0)
    local = np.where(hit, pos, len(rows))
    order = np.argsort(local, axis=1, kind="stable")
    local = np.take_along_axis(local, order, axis=1).tolist()
    signs = np.where(order % 2, -1, 1).tolist()
    counts = hit.sum(axis=1).tolist()
    return ([r[:c] for r, c in zip(local, counts)],
            [s[:c] for s, c in zip(signs, counts)])


def generators_at(fc: FilteredComplex, degree: int, grade: float,
                  sieve: SieveSpec, eps: float = EPS) -> np.ndarray:
    """Rows of the tuples of the given degree that survive at the given
    grade, increasing."""
    if degree > fc.max_dim:
        raise InputError(
            f"degree {degree} exceeds the enumerated max_dim {fc.max_dim}")
    if degree < 0:
        return np.empty(0, np.intp)
    births = fc.births[degree]  # sorted
    hi = int(np.searchsorted(births, grade + eps, side="right"))
    if sieve.kind == EMPTY:
        return np.arange(hi)
    if sieve.kind == STRICT_PREDECESSORS:
        return np.arange(np.searchsorted(births[:hi], grade - eps), hi)
    return np.array([i for i, b in enumerate(births[:hi].tolist())
                     if not sieve.kills(b, grade, eps)], dtype=np.intp)


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
    cols = generators_at(fc, degree, grade, sieve, eps)
    return columns(fc.faces(degree)[cols], rows)
