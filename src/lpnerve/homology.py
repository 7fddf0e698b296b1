"""Homology of the filtered nerve: graded tables and persistence barcodes.

``homology_table`` is the one grade-by-degree loop of graded homology,
for every sieve and ring; ``magnitude_homology`` is its strict sieve over
the integers and ``homology_at`` one cell of it.  Grades are the integer
grade indices of the complex, so no birth is compared here; a row prints
the value of its grade, ``fc.grades[g]``.  Each boundary is sliced from
the complex's face-index tables to the rows ``generators_at`` keeps and
handed over in the one sparse column format of ``chain.columns``; under
the strict sieve a face survives only at its tuple's grade, so each d_n
is built once for all grades (``chain.strict_boundary``) and ranked once,
its ranks counted per column grade.  Integer ranks go through the one
exact Smith normal form of ``snf``.  The barcode pipeline orders all rows
of all degrees by (grade index, degree, position within the degree),
which is (grade, degree, birth, vertices), maps the same face tables into
that order, and runs the standard column reduction over GF(q) (compiled
kernel when available); a pair born and killed at the same grade index
is no bar.  Field homology ranks each boundary with that same column
reduction.  A classical Vietoris-Rips computation on unordered
simplices, with its own self-contained mod-2 reduction, serves as an
independent cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .chain import (STRICT_PREDECESSORS, Columns, SieveSpec, boundary_matrix,
                    columns, generators_at, strict_boundary)
from .nerve import DEFAULT_BUDGET, FilteredComplex, enumerate_complex
from .snf import smith_normal_form, smith_normal_forms
from .values import EPS, INF, InputError
from .vgraph import VGraph, is_enriched_category, tolerance


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


def _rank(cols: Columns, coefficients: Coefficients) -> Tuple[int, Tuple[int, ...]]:
    """Rank and torsion of a boundary: over Z the Smith normal form rank
    and the invariant factors above 1; over GF(q) the number of pivots of
    the barcode column reduction, with no torsion."""
    q = coefficients.modulus
    if q is None:
        rank, divisors = smith_normal_form(*cols)
        return rank, tuple(d for d in divisors if d > 1)
    # the reduction takes nonzero coefficients only
    kept = [[(i, c) for i, c in zip(rows, coeffs) if c % q]
            for rows, coeffs in zip(*cols)]
    return len(_pivot_columns(([[i for i, _ in col] for col in kept],
                               [[c for _, c in col] for col in kept]), q)), ()


def _pivot_columns(cols: Columns, q: int) -> np.ndarray:
    """The columns that keep a pivot in the column reduction over GF(q) of
    columns with no coefficient divisible by q."""
    lows = kernels.reduce_columns(*cols, q)
    return np.flatnonzero(np.array(lows, dtype=np.int64) >= 0)


def _strict_ranks(fc: FilteredComplex, degree: int,
                  grades: Optional[Sequence[int]],
                  coefficients: Coefficients
                  ) -> List[Tuple[int, Tuple[int, ...]]]:
    """``_rank`` of the strict-sieve boundary d_degree at every grade index
    (0 at those not in ``grades``), from one matrix for all of them.

    Its columns of different grades share no row, so the Smith normal
    form counts its pivots per column grade, and the column reduction
    reduces a column only by columns that share its lowest row.
    """
    faces, keep, grade = strict_boundary(fc, degree, grades)
    n = len(fc.grades)
    q = coefficients.modulus
    if q is not None:
        # a column with no entry has no pivot; signs of +-1 are never 0 mod q
        live = keep.any(axis=1)
        return [(int(rank), ()) for rank in np.bincount(grade[live][
            _pivot_columns(columns(faces[live], keep[live]), q)], minlength=n)]
    col, i = np.nonzero(keep)
    return [(rank, tuple(d for d in divisors if d > 1))
            for rank, divisors in smith_normal_forms(
                col, faces[col, i], np.where(i % 2, -1, 1), grade, n)]


def _check_degrees(degrees: List[int], max_dim: int) -> None:
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

    Under the strict sieve each boundary d_n is built and ranked once for
    all grades (``strict_boundary``), as the direct sum of its per-grade
    blocks; under the other sieves it is built and ranked once per grade.
    """
    degrees = sorted(set(degrees))
    _check_degrees(degrees, fc.max_dim)
    strict = {}  # k -> rank and torsion of d_k at each grade index
    if sieve.kind == STRICT_PREDECESSORS:
        for k in {k for n in degrees for k in (n, n + 1)} - {0}:
            strict[k] = _strict_ranks(fc, k, grades, coefficients)
    out: List[HomologySummary] = []
    for g in range(len(fc.grades)) if grades is None else grades:
        ranks = {0: (0, ())}  # k -> rank and torsion of d_k at grade g
        for k in strict:
            ranks[k] = strict[k][g]
        for n in degrees:
            gens = generators_at(fc, n, g, sieve)
            if not len(gens):
                continue  # an empty chain group has zero homology
            for k in (n, n + 1):
                if k not in ranks:
                    ranks[k] = _rank(boundary_matrix(fc, k, g, sieve),
                                     coefficients)
            rank_upper, torsion = ranks[n + 1]
            rank = len(gens) - ranks[n][0] - rank_upper
            out.append(HomologySummary(fc.grades[g], n, rank, torsion))
    return out


def homology_at(fc: FilteredComplex, degree: int, g: int,
                sieve: SieveSpec, coefficients: Coefficients = INTEGERS
                ) -> HomologySummary:
    """Homology rank (and torsion, over the integers) at grade index g."""
    rows = homology_table(fc, [degree], sieve, coefficients, [g])
    return rows[0] if rows else HomologySummary(fc.grades[g], degree, 0)


def magnitude_homology(X: VGraph, p: float, degrees: Iterable[int],
                       max_dim: Optional[int] = None,
                       budget: Optional[int] = DEFAULT_BUDGET,
                       eps: float = EPS) -> List[HomologySummary]:
    """``homology_table`` under the strict sieve over the integers, on the
    complex ``enumerate_complex(X, p, max_dim, budget, eps)``.

    p = 1 on a space satisfying the additive triangle inequality gives the
    classical magnitude homology; other p give its +_p variants.
    """
    degrees = sorted(set(degrees))
    if max_dim is None:
        max_dim = max(degrees, default=0) + 1
    fc = enumerate_complex(X, p, max_dim, budget=budget, eps=eps)
    return homology_table(fc, degrees, SieveSpec(STRICT_PREDECESSORS))


# -- persistence ------------------------------------------------------


def _barcode_from_reduction(order: List[Tuple[float, int]], lows: List[int],
                            max_degree: int,
                            persists: Callable[[int, int], bool]) -> Barcode:
    """Pair pivots into bars.  ``order[j]`` is (birth, degree) of simplex
    j; the pair of simplices i < j is a bar when ``persists(i, j)``."""
    bars: List[Bar] = []
    killed = [False] * len(order)
    for j, low in enumerate(lows):
        if low >= 0:
            killed[j] = True
            killed[low] = True
            birth, deg = order[low]
            if deg <= max_degree and persists(low, j):
                bars.append(Bar(deg, birth, order[j][0]))
    for j, (birth, deg) in enumerate(order):
        if not killed[j] and lows[j] < 0 and deg <= max_degree:
            bars.append(Bar(deg, birth, INF))
    return Barcode(bars).sort()


def persistence_barcode(fc: FilteredComplex, max_degree: int,
                        field_coeffs: Coefficients = GF2) -> Barcode:
    """Barcode of the global (unlocalized) complex over a prime field."""
    if field_coeffs.modulus is None:
        raise InputError("persistence requires field coefficients")
    if max_degree + 1 > fc.max_dim:
        raise InputError(
            f"barcodes up to degree {max_degree} need max_dim >= "
            f"{max_degree + 1}, got {fc.max_dim}")
    q = field_coeffs.modulus
    grade = np.concatenate(fc.grade)
    sizes = [len(level) for level in fc.grade]
    degrees = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum([0] + sizes)  # first global row of each degree
    # lexsort is stable: ties in (grade, degree) keep the order of the rows
    order = np.lexsort((degrees, grade))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    # every face as a position in the filtration order, padded to one width
    width = len(sizes)
    table = np.full((len(grade), width), -1, dtype=np.intp)
    for k in range(1, width):
        faces = fc.faces(k)
        table[starts[k]:starts[k + 1], :k + 1] = np.where(
            faces >= 0, position[starts[k - 1] + faces], -1)
    table = table[order]
    col_rows, col_coeffs = columns(table, table >= 0)
    lows = kernels.reduce_columns(col_rows, col_coeffs, q)
    grade = grade[order].tolist()
    filtration = [(fc.grades[g], k)
                  for g, k in zip(grade, degrees[order].tolist())]
    return _barcode_from_reduction(filtration, lows, max_degree,
                                   lambda i, j: grade[i] != grade[j])


# -- classical Vietoris-Rips oracle -----------------------------------


def vr_oracle(X: VGraph, max_degree: int, field_coeffs: Coefficients = GF2,
              eps: Optional[float] = None) -> Barcode:
    """Persistence of the classical Vietoris-Rips complex.

    Works on unordered vertex subsets with a self-contained mod-2
    reduction, fully independent of the tuple-nerve pipeline.  ``eps`` is
    an absolute tolerance, by default ``tolerance(X)``.
    """
    if eps is None:
        eps = tolerance(X)
    if field_coeffs.modulus not in (None, 2):
        raise InputError("the classical oracle is implemented over GF(2)")
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
    order = [(diam, len(combo) - 1) for diam, combo in simplices]
    return _barcode_from_reduction(order, lows, max_degree,
                                   lambda i, j: order[j][0] > order[i][0] + eps)
