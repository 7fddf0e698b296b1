"""Homology of the filtered nerve: graded tables and persistence barcodes.

``homology_table`` is the one grade-by-degree loop of graded homology,
for every sieve and ring; ``magnitude_homology`` is its strict sieve over
the integers and ``homology_at`` one cell of it.  Grades are the integer
grade indices of the complex, so no birth is compared here; a row prints
the value of its grade, ``fc.grades[g]``.  The grade indices split
into runs that ``chain.sieve_boundary`` builds as one matrix each: one
run for all grades under the strict sieve, one per grade under the empty
sieve.  Each d_n is built once per run and ranked once (``_ranks``), its
ranks counted per column grade.  Integer ranks go through the one
exact Smith normal form of ``snf``.  The barcode pipeline orders all rows
of all degrees by (grade index, degree, position within the degree),
which is (grade, degree, birth, vertices), maps the same face tables into
that order, and runs the standard column reduction over GF(q) (compiled
kernel when available); a pair born and killed at the same grade index
is no bar.  Field homology ranks each run's boundary with that same
column reduction.  A classical Vietoris-Rips computation on unordered
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
from .chain import STRICT_PREDECESSORS, SieveSpec, columns, sieve_boundary
from .nerve import DEFAULT_BUDGET, FilteredComplex, enumerate_complex
from .snf import smith_normal_forms
from .values import EPS, INF, InputError
from .vgraph import VGraph, is_enriched_category, tolerance
# not called here, but kept importable from this module, where the layer
# tracer of ``pipebench/spans.py`` looks them up
from .chain import boundary_matrix, generators_at  # noqa: F401
from .snf import smith_normal_form  # noqa: F401


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


def _ranks(faces: np.ndarray, keep: np.ndarray, grade: np.ndarray,
           coefficients: Coefficients, ngrades: int
           ) -> List[Tuple[int, Tuple[int, ...]]]:
    """Rank and torsion, at each grade index below ``ngrades``, of a
    boundary from ``sieve_boundary``.  Its columns of different grades
    share no row, so the pivots of the Smith normal form over Z, and of the
    column reduction over GF(q), count per column grade.  Boundary signs
    are +-1, never 0 mod q.
    """
    q = coefficients.modulus
    if q is None:
        col, i = np.nonzero(keep)
        return [(rank, tuple(d for d in divisors if d > 1))
                for rank, divisors in smith_normal_forms(
                    col, faces[col, i], np.where(i % 2, -1, 1), grade,
                    ngrades)]
    live = keep.any(axis=1)  # a column with no entry has no pivot
    lows = kernels.reduce_columns(*columns(faces[live], keep[live]), q)
    pivots = np.array(lows, dtype=np.int64) >= 0
    return [(int(rank), ())
            for rank in np.bincount(grade[live][pivots], minlength=ngrades)]


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

    The grade indices split into runs: g joins the run before it when it
    follows that run's last grade and keeps only itself.  Each d_k is built
    (``sieve_boundary``) and ranked once per run: once for all grades under
    the strict sieve, once per grade under the empty sieve.
    """
    degrees = sorted(set(degrees))
    _check_degrees(degrees, fc.max_dim)
    runs: List[List[int]] = []
    for g in range(len(fc.grades)) if grades is None else grades:
        if runs and g == runs[-1][-1] + 1 and sieve.floor(g) == g:
            runs[-1].append(g)
        else:
            runs.append([g])
    out: List[HomologySummary] = []
    for run in runs:
        first, last = run[0], run[-1]
        # k -> rank and torsion of d_k at each grade index up to last
        ranks = {0: [(0, ())] * (last + 1)}
        for k in {k for n in degrees for k in (n, n + 1)} - {0}:
            ranks[k] = _ranks(*sieve_boundary(fc, k, first, last, sieve),
                              coefficients, last + 1)
        for g in run:
            for n in degrees:
                gens = int(fc.starts[n][g + 1] - fc.starts[n][sieve.floor(g)])
                if not gens:
                    continue  # an empty chain group has zero homology
                rank_upper, torsion = ranks[n + 1][g]
                rank = gens - ranks[n][g][0] - rank_upper
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
