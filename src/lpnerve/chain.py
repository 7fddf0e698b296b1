"""Integer chain groups of the filtered nerve, with grade localization.

Chains are normalized from the start: generators are the nondegenerate
tuples, and a degenerate face contributes nothing to a boundary.  A chain
group is a set of rows of one degree of the columnar complex.  Grades are
the integer grade indices the complex gave every tuple, and a sieve kills,
at grade index g, every grade below its floor ``floor(g) <= g``, so the
rows that survive have grade index in floor(g)..g.  Each degree is sorted
by birth, so these rows are one contiguous slice, found by a binary
search of the degree's grade indices (``FilteredComplex.degree``).
Every boundary is read from the complex's face-index table
(``FilteredComplex.faces``), which holds for each tuple and deleted
vertex the row of the face one degree down.

Every boundary is built by ``sieve_boundary`` for a run of consecutive
grade indices as one slice of the face table, with the lowest row each
column keeps (its floor), which is the form ``kernels.reduce_faces``
takes: a face below its column's floor counts as absent.  A run's
grades share its first grade's floor, or keep only themselves: the
empty sieve kills nothing, so all its grades make one run (the whole
face table, whose coboundary the barcode reduces), and so does the
strict-predecessor sieve, the
magnitude-style localization, which keeps only generators born exactly
at the grade.  A face is never born after its tuple, so the columns of
the shared-floor grades are the boundary at the last of them, and each
prefix of those columns is the boundary at an earlier one; the columns
of each later grade, which share no row with any other grade, add its
boundary as a direct summand.  ``boundary_matrix`` is a one-grade run
renumbered to its generators, in the sparse column format of
``columns``: per column, the increasing row indices of its nonzero
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
    (-1)^i of the deleted vertex i; a face not kept (degenerate or killed
    by a sieve) contributes nothing.
    """
    local = np.where(keep, faces, np.iinfo(faces.dtype).max)
    order = np.argsort(local, axis=1, kind="stable")
    local = np.take_along_axis(local, order, axis=1).tolist()
    signs = np.where(order % 2, -1, 1).tolist()
    counts = keep.sum(axis=1).tolist()
    return ([r[:c] for r, c in zip(local, counts)],
            [s[:c] for s, c in zip(signs, counts)])


def check_grade(fc: FilteredComplex, g: int) -> None:
    """Raises ``InputError`` unless g is a grade index of the complex."""
    if not 0 <= g < len(fc.grades):
        raise InputError(f"grade index {g} is outside the complex: "
                         f"grade indices 0..{len(fc.grades) - 1}")


def generators_at(fc: FilteredComplex, degree: int, g: int,
                  sieve: SieveSpec) -> np.ndarray:
    """Rows of the tuples of the given degree that survive at grade index
    g, those with grade index in ``sieve.floor(g) .. g``, increasing."""
    grade = fc.degree(degree).grade
    check_grade(fc, g)
    return np.arange(*grade.searchsorted([sieve.floor(g), g + 1]))


def sieve_boundary(fc: FilteredComplex, degree: int, floors: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boundaries d_degree at the grade indices of a run as one
    matrix: the face table of its columns, the lowest row each column
    keeps (the form ``kernels.reduce_faces`` takes) and the grade index
    of each column.  ``floors`` holds the run's floors, one per grade
    index from the first one's floor to its last: that floor below the
    first grade index and each grade index's own floor from it on.

    The columns are one slice of the face table, taken with no copy:
    those of the grade indices from ``floors[0]`` to the run's last.  A
    column of grade index h keeps the faces that survive at h, those of
    grade index ``floor(h)`` and up (a column below the run's first grade
    those that survive at the first grade), and a face is never born
    after its tuple.  So the columns of grade
    indices ``floor(g)..g`` are the boundary at each g of the run, and the
    pivots of a left-to-right column reduction count its rank there.
    """
    faces = fc.faces(degree)  # InputError for a degree outside 1..max_dim
    base = int(floors[0])
    level = fc.degree(degree)
    lo, hi = level.grade.searchsorted([base, base + len(floors)]).tolist()
    grade = level.grade[lo:hi]
    # the first row kept per grade
    lowest = fc.degree(degree - 1).grade.searchsorted(floors)
    return faces[lo:hi], lowest[grade - base], grade


def boundary_matrix(fc: FilteredComplex, degree: int, g: int,
                    sieve: SieveSpec) -> Columns:
    """Alternating-face boundary from degree to degree-1 survivors at
    grade index g: the one-grade ``sieve_boundary``, renumbered.

    Rows follow ``generators_at(degree - 1)`` and columns follow
    ``generators_at(degree)``; faces that are degenerate or killed by the
    sieve contribute zero.
    """
    check_grade(fc, g)
    f = sieve.floor(g)
    faces, floor, _ = sieve_boundary(fc, degree, np.full(g - f + 1, f))
    # every column's floor is the first row of grade index f one degree down
    return columns(faces - floor[:, None], faces >= floor[:, None])
