"""Integer chain groups of the filtered nerve, with grade localization.

Chains are normalized from the start: generators are the nondegenerate
tuples, and a degenerate face contributes nothing to a boundary.  A chain
group is a set of rows of one degree of the columnar complex.  Grades are
the integer grade indices the complex gave every tuple, and a sieve kills,
at grade index g, every grade below its floor ``floor(g) <= g``, so the
rows that survive have grade index in floor(g)..g.  Each degree is sorted
by birth, so these rows are one contiguous run, read from the complex's
per-degree grade offsets (``FilteredComplex.starts``).  Every boundary is
read from the complex's face-index table (``FilteredComplex.faces``),
which holds for each tuple and deleted vertex the row of the face one
degree down.

A boundary has one format, sparse columns: per column, the increasing row
indices of its nonzero entries and a parallel list of their coefficients.
``columns`` is the one builder of that format, from rows of the face
table and a mask of the faces kept; ``boundary_matrix`` calls it per
grade and ``homology.persistence_barcode`` on the whole filtration.  The
empty sieve kills nothing; the strict-predecessor sieve keeps only
generators born exactly at the grade under inspection, which is the
magnitude-style localization.  Under it a face survives only at its
tuple's own grade, so a localized boundary is a direct sum of one block
per grade, and ``strict_boundary`` gives the face table and mask of all
of them at once, as one matrix.
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
            if g >= len(self.floors):
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


def boundary_matrix(fc: FilteredComplex, degree: int, g: int,
                    sieve: SieveSpec) -> Columns:
    """Alternating-face boundary from degree to degree-1 survivors at
    grade index g.

    Rows follow ``generators_at(degree - 1)`` and columns follow
    ``generators_at(degree)``; faces that are degenerate or killed by the
    sieve contribute zero.
    """
    if degree < 1:
        raise InputError("boundary_matrix requires degree >= 1")
    lo, hi = _span(fc, degree, g, sieve)
    faces = fc.faces(degree)[lo:hi]
    lo, hi = _span(fc, degree - 1, g, sieve)
    return columns(faces - lo, (faces >= lo) & (faces < hi))


def strict_boundary(fc: FilteredComplex, degree: int,
                    grades: Optional[Sequence[int]] = None
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The strict-sieve boundaries from ``degree`` to ``degree - 1`` at all
    grade indices (or at those given) as one matrix: the face table of its
    columns, the mask of the faces kept (the form ``columns`` takes) and
    the grade index of each column.

    A face is kept where it has its tuple's grade index, that is, where it
    lies in the rows of that grade one degree down.  Rows are the
    rows of degree - 1 in the complex, so the columns of different grades
    share no row and the matrix is the direct sum of the per-grade
    ``boundary_matrix`` blocks (up to the numbering of rows).
    """
    if degree < 1:
        raise InputError("strict_boundary requires degree >= 1")
    faces, grade = fc.faces(degree), fc.grade[degree]
    if grades is not None:
        starts = fc.starts[degree]
        rows = np.concatenate([np.arange(starts[g], starts[g + 1])
                               for g in grades] + [np.arange(0)])
        faces, grade = faces[rows], grade[rows]
    below = fc.starts[degree - 1]  # the rows of grade g one degree down
    keep = (faces >= below[grade, None]) & (faces < below[grade + 1, None])
    return faces, keep, grade
