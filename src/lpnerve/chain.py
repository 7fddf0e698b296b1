"""Integer chain groups of the filtered nerve, with grade localization.

Chains are normalized from the start: generators are the nondegenerate
tuples, and a degenerate face contributes nothing to a boundary.  A chain
group is a set of rows of one degree of the columnar complex.  Grades are
the integer grade indices the complex gave every tuple, and a sieve kills,
at grade index g, every grade below its floor ``floor(g) <= g``, so the
rows that survive have grade index in floor(g)..g.  Each degree is sorted
by birth, so these rows are one contiguous slice, read from the complex's
per-degree grade offsets (``FilteredComplex.starts``).  Every boundary is
read from the complex's face-index table (``FilteredComplex.faces``),
which holds for each tuple and deleted vertex the row of the face one
degree down.

Every boundary is built by ``sieve_boundary`` for a run of consecutive
grade indices, each after the first keeping only itself, as one slice of
the face table with a mask of the faces kept: the direct sum of the
boundaries at the run's grades.  The empty sieve kills nothing, so each
grade is a run of its own; the strict-predecessor sieve, the
magnitude-style localization, keeps only generators born exactly at the
grade, so all its grades make one run.  ``boundary_matrix`` is a
one-grade run renumbered to its generators, in the sparse column format
of ``columns``: per column, the increasing row indices of its nonzero
entries and a parallel list of their coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .values import InputError
from .nerve import FilteredComplex

EMPTY = "empty"
STRICT_PREDECESSORS = "strict"
CUSTOM_GRID = "custom"

#: sparse columns: per column, increasing row indices and their coefficients
Columns = Tuple[List[List[int]], List[List[int]]]


@dataclass(frozen=True)
class SieveSpec:
    """Which grade indices are quotiented away at each grade index.

    At grade index g every grade index below ``floor(g)`` is killed, with
    ``floor`` non-decreasing and ``floor(g) <= g``: a down-closed killed
    set below the grade is always such a prefix.
    kind "empty": floor(g) = 0, nothing is killed (global chains).
    kind "strict": floor(g) = g, every birth below the grade is killed.
    kind "custom": floor(g) = floors[g], given for each grade index.
    """

    kind: str = EMPTY
    floors: Optional[Sequence[int]] = None  # custom only

    def __post_init__(self):
        if self.kind not in (EMPTY, STRICT_PREDECESSORS, CUSTOM_GRID):
            raise InputError(f"unknown sieve kind {self.kind!r}")
        floors = self.floors
        if self.kind == CUSTOM_GRID and (
                floors is None
                or any(not 0 <= f <= g for g, f in enumerate(floors))
                or any(lo > hi for lo, hi in zip(floors, floors[1:]))):
            raise InputError("a custom sieve needs floors that never fall "
                             "and lie in 0..g at each grade index g")

    def floor(self, g: int) -> int:
        """The lowest grade index that survives at grade index g."""
        if self.kind == CUSTOM_GRID:
            if not 0 <= g < len(self.floors):
                raise InputError(f"grade index {g} is not on the sieve")
            return self.floors[g]
        return g if self.kind == STRICT_PREDECESSORS else 0


def columns(faces: np.ndarray, keep: np.ndarray) -> Columns:
    """Boundary columns of tuples with face table ``faces`` (as from
    ``FilteredComplex.faces``, possibly renumbered), keeping the entries
    where ``keep`` is true.

    Column j holds the kept faces of tuple j, increasing, with the sign
    (-1)^i of the deleted vertex i; a face not kept (degenerate, killed by
    a sieve, or not yet born) contributes nothing.
    """
    local = np.where(keep, faces, np.iinfo(faces.dtype).max)
    order = np.argsort(local, axis=1, kind="stable")
    local = np.take_along_axis(local, order, axis=1).tolist()
    signs = np.where(order % 2, -1, 1).tolist()
    counts = keep.sum(axis=1).tolist()
    return ([r[:c] for r, c in zip(local, counts)],
            [s[:c] for s, c in zip(signs, counts)])


def _span(fc: FilteredComplex, degree: int, g: int,
          sieve: SieveSpec) -> Tuple[int, int]:
    """First and past-last row of the given degree that survive at grade
    index g: those with grade index in ``sieve.floor(g) .. g``."""
    if not (0 <= degree <= fc.max_dim and 0 <= g < len(fc.grades)):
        raise InputError(
            f"degree {degree} or grade index {g} is outside the complex: "
            f"degrees 0..{fc.max_dim}, grade indices 0..{len(fc.grades) - 1}")
    starts = fc.starts[degree]
    return int(starts[sieve.floor(g)]), int(starts[g + 1])


def generators_at(fc: FilteredComplex, degree: int, g: int,
                  sieve: SieveSpec) -> np.ndarray:
    """Rows of the tuples of the given degree that survive at grade index
    g, increasing."""
    return np.arange(*_span(fc, degree, g, sieve))


def sieve_boundary(fc: FilteredComplex, degree: int, first: int, last: int,
                   sieve: SieveSpec
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boundaries d_degree at the grade indices ``first..last`` as one
    matrix: the face table of its columns, the mask of the faces kept (the
    form ``columns`` takes) and the grade index of each column.

    Each grade index after ``first`` must keep only itself, so the columns
    are one slice of the face table, taken with no copy: those at ``first``
    (grade indices ``floor(first)..first``), then those of each later
    grade.  A face is kept where it lies in the rows one degree down that
    survive at its column's grade, so columns of different grades share
    no row.
    """
    if degree < 1:
        raise InputError("a boundary needs degree >= 1")
    if any(sieve.floor(g) != g for g in range(first + 1, last + 1)):
        raise InputError(f"grade indices {first}..{last} are not one run")
    lo = _span(fc, degree, first, sieve)[0]
    hi = _span(fc, degree, last, sieve)[1]
    faces, grade = fc.faces(degree)[lo:hi], fc.grade[degree][lo:hi]
    floor = sieve.floor(first)
    if floor < first:
        grade = np.maximum(grade, first)  # columns below first are at first
    below = fc.starts[degree - 1]  # the rows of each grade one degree down
    lowest = below.copy()  # the first row that survives at each grade
    lowest[first] = below[floor]
    keep = (faces >= lowest[grade, None]) & (faces < below[grade + 1, None])
    return faces, keep, grade


def boundary_matrix(fc: FilteredComplex, degree: int, g: int,
                    sieve: SieveSpec) -> Columns:
    """Alternating-face boundary from degree to degree-1 survivors at
    grade index g: the one-grade ``sieve_boundary``, renumbered.

    Rows follow ``generators_at(degree - 1)`` and columns follow
    ``generators_at(degree)``; faces that are degenerate or killed by the
    sieve contribute zero.
    """
    faces, keep, _ = sieve_boundary(fc, degree, g, g, sieve)
    return columns(faces - fc.starts[degree - 1][sieve.floor(g)], keep)
