"""Homology of the filtered nerve: graded tables and persistence barcodes.

``homology_table`` is the one grade-by-degree loop of graded homology,
for every sieve and ring; ``magnitude_homology`` is its strict sieve over
the integers and ``homology_at`` one cell of it.  Grades are the integer
grade indices of the complex, so no birth is compared here; a row prints
the value of its grade, ``fc.grades[g]``.  The grade indices split into
runs that ``chain.sieve_boundary`` builds as one matrix each: a run's
grades share its first grade's floor or keep only themselves, so the
empty and the strict sieve make one run each.  Each d_n is built once
per run and ranked once (``_ranks``): a left-to-right column reduction
of a prefix of the columns is the prefix of the whole one, so the rank
at grade index g is the pivot count of the columns of grade indices
floor(g)..g.  Every rank of a table comes from the one column reduction
``kernels.reduce_faces`` (compiled kernel when available), which reads
a face table directly, with the lowest row each column keeps, and skips
the faces below it itself: over GF(q), and over Z with pivots of +-1
only.  Only a boundary whose Z reduction meets a non-unit pivot (or an
int64 overflow) goes to the exact Smith normal form of ``snf``, once per
grade index of the run, which then gives its torsion.

The barcode up to degree n reduces the coboundaries delta_0 .. delta_n
over GF(q) instead (``kernels.reduce_cofaces``), one degree at a time,
each straight from the face table of d_(k+1): delta_k is the
anti-transpose of d_(k+1), with a column per row of degree k, youngest
first, whose pivot is its oldest coface, and its pairs are those of
d_(k+1) (de Silva, Morozov and Vejdemo-Johansson, "Dualities in
persistent (co)homology", 2011).  A row that was a pivot of delta_(k-1)
is cleared: its column would reduce to zero, so it is skipped (Chen and
Kerber, "Persistent homology computation with a twist", 2011).  The
rows of one degree are already in filtration order and a reduction only
adds columns of one degree, so this pairs as a reduction of the whole
filtration would; a pair born and killed at the same grade index is no
bar, and a row neither cleared nor paired is an essential bar.  Neither
the table nor the barcode reads a degree past the complex's last stored
one: every degree above it is empty.  A classical Vietoris-Rips
computation on unordered simplices, with its own mod-2 reduction and
pairing, serves as an independent cross-check.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .chain import (STRICT_PREDECESSORS, SieveSpec, check_grade, columns,
                    sieve_boundary)
from .nerve import DEFAULT_BUDGET, FilteredComplex, enumerate_complex
from .snf import smith_normal_form
from .values import EPS, INF, InputError
from .vgraph import VGraph, is_enriched_category, tolerance
# not called here, but kept importable from this module, where the layer
# tracer of ``pipebench/spans.py`` looks them up
from .chain import boundary_matrix, generators_at  # noqa: F401


@dataclass(frozen=True)
class Coefficients:
    """Integer coefficients (modulus None) or a prime field GF(q), q below
    ``kernels.MAX_ORDER`` = 2^31 so that the column reduction's products
    fit in int64."""

    modulus: Optional[int] = None

    def __post_init__(self):
        q = self.modulus
        if q is not None and not (
                2 <= q < kernels.MAX_ORDER
                and all(q % k for k in range(2, math.isqrt(q) + 1))):
            raise InputError(f"field order must be a prime below 2^31, got {q}")


INTEGERS = Coefficients(None)
GF2 = Coefficients(2)


@dataclass(frozen=True)
class HomologySummary:
    grade: float
    degree: int
    rank: int
    torsion: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Bar:
    degree: int
    birth: float
    death: float  # inf for essential classes


@dataclass
class Barcode:
    bars: List[Bar] = field(default_factory=list)

    def in_degree(self, d: int) -> List[Bar]:
        return [b for b in self.bars if b.degree == d]

    def sort(self) -> "Barcode":
        self.bars.sort(key=lambda b: (b.degree, b.birth, b.death))
        return self


# -- graded homology --------------------------------------------------


def _ranks(faces: np.ndarray, floor: np.ndarray, grade: np.ndarray,
           nrows: int, coefficients: Coefficients,
           run: Sequence[Tuple[int, int]]
           ) -> List[Tuple[int, Tuple[int, ...]]]:
    """Rank and torsion, at each grade index g of ``run`` (pairs of g and
    its floor f), of a boundary from ``sieve_boundary`` whose faces are
    rows below ``nrows``: the columns of grade indices ``f..g`` are the
    boundary at g.  One column reduction (``kernels.reduce_faces``, which
    drops the faces below each column's floor itself) ranks it over every
    ring, and a left-to-right reduction of a prefix of the columns is the
    prefix of the whole one, so the rank at g is the pivot count of those
    columns.  Over Z a reduction whose pivots are all +-1 is a unimodular
    change of basis, so every invariant factor is 1; only when the kernel
    flags a non-unit pivot (or an int64 overflow) does the Smith normal
    form (``snf.smith_normal_form``, one sparse elimination loop) run,
    once per grade index on its columns, with the kept faces as a mask.
    """
    lows = kernels.reduce_faces(faces, nrows, coefficients.modulus or 0, floor)
    if lows is not None:
        pivots = np.bincount(grade[lows >= 0], minlength=run[-1][0] + 1)
        below = [0] + np.cumsum(pivots).tolist()  # pivots below each grade
        return [(below[g + 1] - below[f], ()) for g, f in run]
    keep = faces >= floor[:, None]
    out = []
    for g, f in run:
        lo, hi = np.searchsorted(grade, [f, g + 1]).tolist()
        rank, divisors = smith_normal_form(*columns(faces[lo:hi],
                                                    keep[lo:hi]))
        out.append((rank, tuple(d for d in divisors if d > 1)))
    return out


def _distinct(degrees: Iterable[int]) -> Sequence[int]:
    """The degrees increasing and distinct: a range as an increasing range,
    read by its ends and never listed, anything else as a sorted list."""
    if isinstance(degrees, range):
        return degrees if degrees.step > 0 else degrees[::-1]
    return sorted(set(degrees))


def _check_degrees(degrees: Sequence[int], max_dim: int) -> None:
    if not degrees or degrees[0] < 0 or degrees[-1] >= max_dim:
        raise InputError(
            f"degrees must be a nonempty set of integers in 0..{max_dim - 1}"
            f" (homology in degree n needs max_dim >= n + 1), got {degrees}")


def homology_table(fc: FilteredComplex, degrees: Iterable[int],
                   sieve: SieveSpec, coefficients: Coefficients = INTEGERS,
                   grades: Optional[Sequence[int]] = None
                   ) -> List[HomologySummary]:
    """Homology rows over the grade indices (default all), one per degree
    with generators.

    The grade indices split into runs: g joins the run before it when it
    follows that run's last grade and its floor is its own or the floor of
    the run's first grade.  Each d_k is built (``sieve_boundary``) and
    ranked once per run: once for all grades under the empty and the
    strict sieve, once per run of a custom sieve.  A degree past the last
    stored one has no generators, so it gives no row and builds nothing,
    and a range of degrees is read only up to it.  A grade index off the
    complex raises ``InputError``.
    """
    degrees = _distinct(degrees)
    _check_degrees(degrees, fc.max_dim)
    degrees = degrees[:bisect.bisect_left(degrees, len(fc.tuples))]
    runs: List[List[Tuple[int, int]]] = []  # per run, each grade and floor
    for g in range(len(fc.grades)) if grades is None else grades:
        check_grade(fc, g)
        f = sieve.floor(g)
        if runs and g == runs[-1][-1][0] + 1 and f in (g, runs[-1][0][1]):
            runs[-1].append((g, f))
        else:
            runs.append([(g, f)])
    # per degree, the first row of each grade index (and the row count)
    ramp = np.arange(len(fc.grades) + 1)
    starts = {n: fc.degree(n).grade.searchsorted(ramp).tolist()
              for n in degrees}
    out: List[HomologySummary] = []
    for run in runs:
        first, floor = run[0]
        floors = np.array([floor] * (first - floor) + [f for _, f in run])
        # k -> rank and torsion of d_k at each grade index of the run
        ranks = {0: [(0, ())] * len(run)}
        for k in {k for n in degrees for k in (n, n + 1)} - {0}:
            ranks[k] = _ranks(*sieve_boundary(fc, k, floors),
                              len(fc.degree(k - 1).grade), coefficients, run)
        for i, (g, f) in enumerate(run):
            for n in degrees:
                gens = starts[n][g + 1] - starts[n][f]
                if not gens:
                    continue  # an empty chain group has zero homology
                rank_upper, torsion = ranks[n + 1][i]
                rank = gens - ranks[n][i][0] - rank_upper
                out.append(HomologySummary(fc.grades[g], n, rank, torsion))
    return out


def homology_at(fc: FilteredComplex, degree: int, g: int,
                sieve: SieveSpec, coefficients: Coefficients = INTEGERS
                ) -> HomologySummary:
    """Homology rank (and torsion, over the integers) at grade index g."""
    rows = homology_table(fc, [degree], sieve, coefficients, [g])
    return rows[0] if rows else HomologySummary(fc.grades[g], degree, 0)


def magnitude_homology(X: VGraph, p: float, degrees: Iterable[int],
                       budget: Optional[int] = DEFAULT_BUDGET,
                       eps: float = EPS) -> List[HomologySummary]:
    """``homology_table`` under the strict sieve over the integers, on the
    complex ``enumerate_complex(X, p, max(degrees) + 1, budget, eps)``:
    H_n reads d_n and d_(n+1) only, so no tuple above that is enumerated.

    p = 1 on a space satisfying the additive triangle inequality gives the
    classical magnitude homology; other p give its +_p variants.
    """
    degrees = _distinct(degrees)
    fc = enumerate_complex(X, p, degrees[-1] + 1 if degrees else 1,
                           budget=budget, eps=eps)
    return homology_table(fc, degrees, SieveSpec(STRICT_PREDECESSORS))


# -- persistence ------------------------------------------------------


def persistence_barcode(fc: FilteredComplex, max_degree: int,
                        field_coeffs: Coefficients = GF2) -> Barcode:
    """Barcode of the global (unlocalized) complex over a prime field.

    The coboundaries delta_0 .. delta_max_degree are reduced one at a time
    (``kernels.reduce_cofaces``), each from the face table of d_(k+1):
    delta_k has a column per row of degree k, youngest first, and its
    pivot is the oldest coface, so its pairs are those of d_(k+1).  A row
    that was a pivot of delta_(k-1) is cleared: its column is skipped.  A
    pivot (row, coface) is a bar from the grade of the row to that of the
    coface unless the two grade indices are equal; a row of degree k that
    is neither cleared nor the column of a pivot is an essential bar.
    Past the last stored degree every coboundary is zero, so no degree
    above it is read.
    """
    if field_coeffs.modulus is None:
        raise InputError("persistence requires field coefficients")
    _check_degrees([max_degree], fc.max_dim)
    bars: List[Bar] = []
    grades = fc.grades
    cleared = np.zeros(len(fc.grade[0]), dtype=bool)  # delta_(-1) is zero
    for k in range(min(max_degree + 1, len(fc.tuples))):
        grade = fc.grade[k]
        essential = ~cleared
        if k + 1 < len(fc.tuples):
            lows = kernels.reduce_cofaces(fc.faces(k + 1), len(grade),
                                          field_coeffs.modulus, cleared)
            paired = np.flatnonzero(lows >= 0)
            birth, death = grade[paired], fc.grade[k + 1][lows[paired]]
            live = birth != death
            bars += [Bar(k, grades[b], grades[d]) for b, d in
                     zip(birth[live].tolist(), death[live].tolist())]
            essential[paired] = False
            cleared = np.zeros(len(fc.grade[k + 1]), dtype=bool)
            cleared[lows[paired]] = True
        bars += [Bar(k, grades[b], INF) for b in grade[essential].tolist()]
    return Barcode(bars).sort()


# -- classical Vietoris-Rips oracle -----------------------------------


def vr_oracle(X: VGraph, max_degree: int, *,
              eps: Optional[float] = None) -> Barcode:
    """Persistence of the classical Vietoris-Rips complex over GF(2).

    Works on unordered vertex subsets with its own mod-2 reduction and
    pairing, sharing no code with the tuple-nerve pipeline.  ``eps`` is
    an absolute tolerance, by default ``tolerance(X)``.
    """
    if eps is None:
        eps = tolerance(X)
    if not X.is_symmetric(eps) or not X.is_strict(eps):
        raise InputError("the classical oracle needs a symmetric strict space")
    if not is_enriched_category(X, 1.0, eps):
        raise InputError("the classical oracle needs the triangle inequality")
    n = len(X)
    verts = list(range(n))
    simplices: List[Tuple[float, Tuple[int, ...]]] = []
    for size in range(1, max_degree + 3):
        for combo in itertools.combinations(verts, size):
            diam = 0.0
            ok = True
            for a, b in itertools.combinations(combo, 2):
                d = X.dist[a, b]
                if math.isinf(d):
                    ok = False
                    break
                diam = max(diam, d)
            if ok:
                simplices.append((diam, combo))
    simplices.sort(key=lambda s: (s[0], len(s[1]), s[1]))
    index = {combo: i for i, (_, combo) in enumerate(simplices)}
    # mod-2 reduction with columns as sets of row indices
    lows: List[int] = [-1] * len(simplices)
    pivot_of_row: Dict[int, int] = {}
    stored: List[set] = [None] * len(simplices)
    for j, (_, combo) in enumerate(simplices):
        col = set()
        if len(combo) > 1:
            for i in range(len(combo)):
                col.add(index[combo[:i] + combo[i + 1:]])
        while col:
            low = max(col)
            k = pivot_of_row.get(low)
            if k is None:
                break
            col ^= stored[k]
        if col:
            low = max(col)
            lows[j] = low
            pivot_of_row[low] = j
            stored[j] = col
    bars = [Bar(len(combo) - 1, diam, INF)
            for j, (diam, combo) in enumerate(simplices)
            if lows[j] < 0 and j not in pivot_of_row
            and len(combo) <= max_degree + 1]
    for j, low in enumerate(lows):
        if low >= 0 and len(simplices[low][1]) <= max_degree + 1:
            (birth, face), death = simplices[low], simplices[j][0]
            if death > birth + eps:
                bars.append(Bar(len(face) - 1, birth, death))
    return Barcode(bars).sort()
