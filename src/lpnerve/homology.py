"""Homology of the filtered nerve: graded tables and persistence barcodes.

``homology_table`` is the one grade-by-degree loop of graded homology,
for every sieve and ring; ``magnitude_homology`` is its strict sieve over
the integers and ``homology_at`` one cell of it.  Grades are the integer
grade indices of the complex, so no birth is compared here; a row prints
the value of its grade, ``fc.grades[g]``.  Each boundary is sliced from
the complex's face-index tables to the rows ``generators_at`` keeps and
handed over in the one sparse column format of ``chain.columns``.
Integer ranks go through an exact Smith normal form (Python integers, so
no overflow): the connected blocks are found from the nonzeros, and only
each block is made dense for elimination.  The barcode pipeline orders
all rows of all degrees by (grade index, degree, position within the
degree), which is (grade, degree, birth, vertices), maps the same face
tables into that order, and runs the standard column reduction over GF(q)
(compiled kernel when available); a pair born and killed at the same
grade index is no bar.  Field homology ranks each boundary with that same
column reduction.  A classical Vietoris-Rips computation on
unordered simplices, with its own self-contained mod-2 reduction, serves
as an independent cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .chain import (STRICT_PREDECESSORS, Columns, SieveSpec, boundary_matrix,
                    columns, generators_at)
from .nerve import DEFAULT_BUDGET, FilteredComplex, enumerate_complex
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


# -- Smith normal form ------------------------------------------------


def smith_normal_form(col_rows: Sequence[Sequence[int]],
                      col_coeffs: Sequence[Sequence[int]]
                      ) -> Tuple[int, List[int]]:
    """Rank and elementary divisors of an integer matrix (exact), given as
    sparse columns of increasing rows and nonzero coefficients.

    Rows and columns linked by a nonzero entry form connected blocks, and
    the matrix is a permuted direct sum of them.  Union-find over the
    nonzeros (columns are nodes ``0..ncols-1``, rows follow) finds the
    blocks; each is made dense and eliminated on its own, and a 1x1 block
    is its own divisor.  Invariant factors are unique, so normalizing the
    pooled diagonal gives the divisors of the whole matrix.
    """
    ncols = len(col_rows)
    nrows = max((rows[-1] + 1 for rows in col_rows if rows), default=0)
    parent = list(range(ncols + nrows))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, rows in enumerate(col_rows):
        rj = find(j)
        for i in rows:
            ri = find(ncols + i)
            if ri != rj:
                parent[ri] = rj
    blocks: Dict[int, List[int]] = {}
    for j, rows in enumerate(col_rows):
        if rows:
            blocks.setdefault(find(j), []).append(j)
    divisors: List[int] = []
    for cols in blocks.values():
        if len(cols) == 1 and len(col_rows[cols[0]]) == 1:
            divisors.append(abs(col_coeffs[cols[0]][0]))
            continue
        local: Dict[int, int] = {}
        for j in cols:
            for i in col_rows[j]:
                local.setdefault(i, len(local))
        block = [[0] * len(cols) for _ in local]
        for c, j in enumerate(cols):
            for i, v in zip(col_rows[j], col_coeffs[j]):
                block[local[i]][c] = v
        divisors.extend(_eliminate(block))
    return len(divisors), _divisibility_fixup(divisors)


def _eliminate(a: List[List[int]]) -> List[int]:
    """Diagonalize ``a`` in place; the nonzero diagonal, not yet normalized."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    divisors: List[int] = []
    t = 0
    while t < nrows and t < ncols:
        # pick the first nonzero pivot of smallest magnitude in row-major
        # order; nothing is smaller than a unit, so the scan stops there
        pivot = best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
                    if v == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # clear the pivot column
            dirty = False
            for i in range(nrows):
                if i != t and a[i][t]:
                    qt = a[i][t] // a[t][t]
                    for j in range(ncols):
                        a[i][j] -= qt * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            # clear the pivot row
            for j in range(ncols):
                if j != t and a[t][j]:
                    qt = a[t][j] // a[t][t]
                    for i in range(nrows):
                        a[i][j] -= qt * a[i][t]
                    if a[t][j]:
                        for i in range(nrows):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
            if not dirty and all(a[t][j] == 0 for j in range(ncols) if j != t) \
                    and all(a[i][t] == 0 for i in range(nrows) if i != t):
                break
        divisors.append(abs(a[t][t]))
        t += 1
    return divisors


def _divisibility_fixup(divisors: List[int]) -> List[int]:
    """Invariant factors of a nonzero diagonal: make d_i | d_{i+1}."""
    changed = True
    while changed:
        changed = False
        for i in range(len(divisors) - 1):
            x, y = divisors[i], divisors[i + 1]
            if y % x != 0:
                g = math.gcd(x, y)
                divisors[i], divisors[i + 1] = g, x * y // g
                changed = True
    return divisors


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
    lows = kernels.reduce_columns([[i for i, _ in col] for col in kept],
                                  [[c for _, c in col] for col in kept], q)
    return sum(1 for low in lows if low >= 0), ()


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

    Each boundary d_n is built and ranked once per grade, for degrees n
    and n - 1.
    """
    degrees = sorted(set(degrees))
    _check_degrees(degrees, fc.max_dim)
    out: List[HomologySummary] = []
    for g in range(len(fc.grades)) if grades is None else grades:
        ranks = {0: (0, ())}  # n -> rank and torsion of d_n at g
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
    col_rows, col_coeffs = columns(table[order], 0, len(grade))
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
