"""Shared test fixtures: random space generators and independent oracles."""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import pathlib
import random
import sys
from typing import Iterator, List, Sequence, Tuple

import numpy as np
from hypothesis import strategies as st

from lpnerve import kernels
from lpnerve.chain import boundary_matrix, columns, generators_at
from lpnerve.homology import Bar, Barcode, HomologySummary
from lpnerve.kernels import _reduction_py
from lpnerve.nerve import FilteredComplex, grade_clusters
from lpnerve.snf import _divisibility_fixup
from lpnerve.values import EPS, INF, close, python_power, tensor_fold
from lpnerve.vgraph import (GraphMorphism, VGraph, check_morphism,
                            free_category, tolerance)

#: the kernel sources: the C reduction and its pure-Python twin
KERNELS = pathlib.Path(__file__).resolve().parents[1] / "src" / "lpnerve" / "kernels"

# -- random space generators ------------------------------------------


def random_vgraph(rng: random.Random, n: int,
                  alphabet: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 3.0, INF)) -> VGraph:
    """Arbitrary generalized metric space: no laws beyond the zero diagonal."""
    names = [f"v{i}" for i in range(n)]
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                mat[i, j] = rng.choice(alphabet)
    return VGraph(names, mat)


@st.composite
def spaces(draw):
    """1 to 6 points: honest, l1 (possibly asymmetric) or arbitrary
    asymmetric spaces, the last two with infinite distances."""
    make = draw(st.sampled_from(
        [random_honest_space, random_l1_space, random_vgraph]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return make(rng, draw(st.integers(1, 6)))


def random_honest_space(rng: random.Random, n: int, hi: int = 8) -> VGraph:
    """Strict symmetric space satisfying the additive triangle inequality."""
    names = [f"v{i}" for i in range(n)]
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(rng.randint(1, hi))
            mat[i, j] = mat[j, i] = d
    return free_category(VGraph(names, mat), 1.0)


def random_real_honest_space(rng: random.Random, n: int) -> VGraph:
    """Strict symmetric space with real distances in [1, 2]: every
    two-hop sum is at least 2, so the additive triangle inequality holds
    and a tuple's birth at p = 1 is the sum of its consecutive hops."""
    names = [f"v{i}" for i in range(n)]
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = rng.uniform(1.0, 2.0)
    return VGraph(names, mat)


def random_ultrametric(rng: random.Random, n: int) -> VGraph:
    """Dendrogram construction: distance = height of the lowest merge."""
    names = [f"v{i}" for i in range(n)]
    clusters: List[List[int]] = [[i] for i in range(n)]
    mat = np.zeros((n, n))
    height = 0.0
    while len(clusters) > 1:
        height += float(rng.randint(1, 3))
        a, b = rng.sample(range(len(clusters)), 2)
        for i in clusters[a]:
            for j in clusters[b]:
                mat[i, j] = mat[j, i] = height
        merged = clusters[a] + clusters[b]
        clusters = [c for k, c in enumerate(clusters) if k not in (a, b)]
        clusters.append(merged)
    return VGraph(names, mat)


def random_l1_space(rng: random.Random, n: int) -> VGraph:
    """Possibly asymmetric space closed under the additive inequality."""
    X = random_vgraph(rng, n, alphabet=(0.5, 1.0, 1.5, 2.0, 2.5, INF))
    return free_category(X, 1.0)


def graphs_equal(X: VGraph, Y: VGraph, eps: float = EPS) -> bool:
    """Same vertex list and elementwise-equal distances (up to eps)."""
    if X.vertices != Y.vertices:
        return False
    both_inf = np.isinf(X.dist) & np.isinf(Y.dist)
    diff_ok = np.abs(np.where(np.isfinite(X.dist), X.dist, 0.0)
                     - np.where(np.isfinite(Y.dist), Y.dist, 0.0)) <= eps
    same_finiteness = np.isinf(X.dist) == np.isinf(Y.dist)
    return bool(np.all(same_finiteness & (both_inf | diff_ok)))


def rp2_subdivision() -> VGraph:
    """The barycentric subdivision of the 6-vertex real projective plane
    (10 triangles, every edge on two), as the graph metric of its
    comparability graph: one vertex per face of the triangulation, at
    distance 1 from every face it contains or lies in.  At grade 1 its
    flag complex is the subdivision, so H_1 = Z/2 there."""
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
    cells = sorted({f for t in triangles for k in (1, 2, 3)
                    for f in itertools.combinations(t, k)},
                   key=lambda f: (len(f), f))
    n = len(cells)
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            if set(a) < set(b) or set(b) < set(a):
                dist[i, j] = 1.0
    for k in range(n):  # shortest paths
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return VGraph(["f" + "".join(map(str, c)) for c in cells], dist)


def random_floors(rng: random.Random, count: int) -> List[int]:
    """Floors of a random custom sieve over ``count`` grade indices: never
    falling, and at most g at grade index g."""
    floors: List[int] = []
    for g in range(count):
        floors.append(max(floors[-1] if floors else 0, rng.randint(0, g)))
    return floors


# -- independent birth-grade oracles ----------------------------------


def sigma_oracle_chains(X: VGraph, verts: Sequence[str], p: float) -> float:
    """Exhaustive maximum over all index chains of forward distances.

    Every subset chain i_0 < ... < i_k is tried, so no optimization from
    the production dynamic program is shared.
    """
    idx = [X.index(v) for v in verts]
    n = len(idx) - 1
    if n == 0:
        return 0.0
    d = X.dist
    if any(math.isinf(d[idx[i], idx[j]])
           for i in range(n + 1) for j in range(i + 1, n + 1)):
        return INF
    best = 0.0
    for mask in range(1, 1 << (n + 1)):
        chain = [k for k in range(n + 1) if mask >> k & 1]
        if len(chain) < 2:
            continue
        hops = [float(d[idx[a], idx[b]]) for a, b in zip(chain, chain[1:])]
        best = max(best, tensor_fold(hops, p))
    return best


def sigma_oracle(X: VGraph, verts: Sequence[str], p: float) -> float:
    """Brute-force witness search for the birth grade.

    Finite p: the witness feasibility system is solved as an explicit LP
    in the p-th-power variables.  p = inf: scan candidate scales and test
    the constant witness vector.
    """
    idx = [X.index(v) for v in verts]
    n = len(idx) - 1
    if n == 0:
        return 0.0
    d = X.dist
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    if any(math.isinf(d[idx[i], idx[j]]) for i, j in pairs):
        return INF
    if p == math.inf:
        candidates = sorted({float(d[idx[i], idx[j]]) for i, j in pairs} | {0.0})
        for r in candidates:
            if all(d[idx[i], idx[j]] <= r + EPS for i, j in pairs):
                return r
        raise AssertionError("unreachable: the largest candidate is feasible")
    from scipy.optimize import linprog

    A_ub = []
    b_ub = []
    for i, j in pairs:
        row = [0.0] * n
        for k in range(i + 1, j + 1):
            row[k - 1] = -1.0
        A_ub.append(row)
        b_ub.append(-float(d[idx[i], idx[j]]) ** p)
    res = linprog(c=[1.0] * n, A_ub=A_ub, b_ub=b_ub,
                  bounds=[(0.0, None)] * n, method="highs")
    assert res.success, res.message
    total = max(res.fun, 0.0)
    return total ** (1.0 / p) if total > 0.0 else 0.0


def membership_scale_category(X: VGraph, verts: Sequence[str], p: float) -> float:
    """Birth grade when X already satisfies the +_p triangle inequality:
    just the fold of consecutive forward distances."""
    idx = [X.index(v) for v in verts]
    return tensor_fold([X.dist[idx[i], idx[i + 1]] for i in range(len(idx) - 1)], p)


# -- tuple-at-a-time nerve oracles ------------------------------------


def is_degenerate(verts: Sequence[str]) -> bool:
    return any(verts[i] == verts[i + 1] for i in range(len(verts) - 1))


def search(X: VGraph, p: float,
           max_dim: int) -> List[List[Tuple[float, Tuple[str, ...]]]]:
    """All finite-birth nondegenerate tuples as (birth, verts), per degree,
    in one depth-first search over single tuples.

    Each stacked tuple carries its reach vector: ``reach[v]`` is the
    longest-chain value (p-th-power domain; plain max at p = inf) of the
    tuple extended by vertex index ``v``.  Extending by ``nxt`` appends the
    chain entry ``top = reach[nxt]``, and the child's reach is
    ``max(reach[v], top + w[nxt][v])`` (``max(top, d[nxt][v])`` at
    p = inf).
    """
    names = X.vertices
    n = len(names)
    out: List[List[Tuple[float, Tuple[str, ...]]]] = [[] for _ in range(max_dim + 1)]
    out[0] = [(0.0, (v,)) for v in names]
    stack: List[Tuple[Tuple[str, ...], int, List[float]]] = []
    if max_dim > 0:
        d = X.dist.tolist()
        if p == INF:
            op, w, root = max, d, None
        else:
            op, w, root = operator.add, [[x ** p for x in row] for row in d], 1.0 / p
        stack = [((v,), i, [op(0.0, x) for x in w[i]]) for i, v in enumerate(names)]
    while stack:
        verts, last, reach = stack.pop()
        found = out[len(verts)]
        deeper = len(verts) < max_dim
        for nxt in range(n):
            top = reach[nxt]
            if nxt == last or top == INF:
                continue
            child = verts + (names[nxt],)
            if root is None:
                found.append((top, child))
            else:
                found.append((top ** root if top > 0.0 else 0.0, child))
            if deeper:
                stack.append((child, nxt, list(map(
                    max, reach, [op(top, x) for x in w[nxt]]))))
    return out


def levels(fc) -> List[List[Tuple[float, Tuple[str, ...]]]]:
    """The complex as (birth, name tuple) pairs per degree up to
    ``max_dim``, in its order."""
    return [list(zip(fc.degree(k).births.tolist(), fc.labels(k)))
            for k in range(fc.max_dim + 1)]


def generator_labels(fc, degree: int, g: int, sieve
                     ) -> List[Tuple[str, ...]]:
    """Vertex-name tuples of the generators of a degree at grade index g
    under ``sieve``, in row order."""
    labels = fc.labels(degree)
    return [labels[i] for i in generators_at(fc, degree, g, sieve)]


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


def dense_face_table(fc, degree: int) -> np.ndarray:
    """``fc.faces(degree)`` by name lookup: the row one degree down of each
    face, -1 for a degenerate face."""
    index = {verts: i for i, verts in enumerate(fc.labels(degree - 1))}
    table = np.full((len(fc.degree(degree).tuples), degree + 1), -1)
    for r, verts in enumerate(fc.labels(degree)):
        for i in range(degree + 1):
            face = verts[:i] + verts[i + 1:]
            if not is_degenerate(face):
                table[r, i] = index[face]
    return table


def lexsorted_complex(X: VGraph, p: float, max_dim: int, eps: float = EPS
                      ) -> Tuple[FilteredComplex, List[np.ndarray]]:
    """``enumerate_complex`` with each degree put in order by a full sort on
    (birth, vertices), which does not rely on the search order, and the
    face tables of ``searched_faces``; the tuples come from the
    pure-Python twin's raw search, in the order it finds them.  Also
    returns per degree each row's prefix row, renumbered from the raw
    search's parent rows to the sorted order (-1 at degree 0)."""
    names = sorted(X.vertices)
    perm = [X.index(v) for v in names]
    d = X.dist[np.ix_(perm, perm)]
    w = d if p == INF else python_power(d, p)
    tuples, births, prefix = [], [], []
    for k, (last, top, parent) in enumerate(
            _reduction_py.search(w, p == INF, max_dim, sys.maxsize)):
        # rows in search order: the parent's row (the last degree's verts,
        # not yet sorted), then the last vertex
        verts = np.column_stack([verts[parent], last]) if k else last[:, None]
        birth = top if p == INF else python_power(top, 1.0 / p)
        order = np.lexsort((*verts.T[::-1], birth))
        tuples.append(verts[order])
        births.append(birth[order])
        prefix.append(rank[parent[order]] if k else parent)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
    last = len(births) - 1 - (len(births[-1]) == 0)
    grades = grade_clusters(np.concatenate([np.zeros(1), *births]),
                            tolerance(X, eps), max(last, 1))
    grade = [np.searchsorted(grades, level, side="right") - 1
             for level in births]
    fc = FilteredComplex(p, max_dim, names, tuples, births, [], grade,
                         grades)
    fc.tables.extend(searched_faces(fc, prefix, k) for k in range(len(tuples)))
    return fc, prefix


def searched_faces(fc, prefix: List[np.ndarray], degree: int) -> np.ndarray:
    """``fc.faces(degree)`` by one binary search per face over the sorted
    keys (prefix row) * n + (last vertex) of the rows one degree down,
    with each degree's prefix rows as ``lexsorted_complex`` gives them
    (at degree 0, the one column of prefix rows, all -1)."""
    level = fc.tuples[degree]
    table = np.empty(level.shape, dtype=np.intp)
    table[:, degree] = prefix[degree]
    if degree < 2:
        table[:, :degree] = level[:, 1:]
        return table
    n = len(fc.names)
    keys = prefix[degree - 1] * n + fc.tuples[degree - 1][:, -1]
    order = np.argsort(keys, kind="stable")
    keys = np.append(keys[order], -1)
    order = np.append(order, -1)
    last = level[:, -1].astype(np.intp)
    inner = searched_faces(fc, prefix, degree - 1)
    for i in range(degree):
        face = inner[prefix[degree], i]
        want = face * n + last
        pos = np.searchsorted(keys[:-1], want)
        hit = (face >= 0) & (keys[pos] == want)
        table[:, i] = np.where(hit, order[pos], -1)
    return table


def index_at(fc, r: float) -> int:
    """The grade index of a complex in force at the value r: the last grade
    at or below it."""
    return bisect.bisect_right(fc.grades, r) - 1


# -- dense matrices and sparse columns --------------------------------


def dense_to_columns(entries: Sequence[Sequence[int]]
                     ) -> Tuple[List[List[int]], List[List[int]]]:
    """Sparse columns (increasing rows, nonzero coefficients) of a dense
    rows x cols matrix; a matrix with no rows has no columns."""
    cols = list(zip(*entries))
    col_rows = [[i for i, v in enumerate(col) if v] for col in cols]
    col_coeffs = [[int(col[i]) for i in rows]
                  for col, rows in zip(cols, col_rows)]
    return col_rows, col_coeffs


def columns_to_dense(cols: Tuple[List[List[int]], List[List[int]]],
                     nrows: int) -> List[List[int]]:
    """The dense nrows x len(cols) matrix of sparse columns."""
    col_rows, col_coeffs = cols
    entries = [[0] * len(col_rows) for _ in range(nrows)]
    for j, (rows, coeffs) in enumerate(zip(col_rows, col_coeffs)):
        for i, v in zip(rows, coeffs):
            entries[i][j] = v
    return entries


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


def whole_matrix_snf(col_rows, col_coeffs) -> Tuple[int, List[int]]:
    """Rank and invariant factors from a dense elimination loop run on the
    whole matrix: the oracle of ``snf.smith_normal_form``, with which it
    shares no elimination code (only the final ``_divisibility_fixup``)."""
    nrows = max((max(rows) + 1 for rows in col_rows if rows), default=0)
    divisors = _eliminate(columns_to_dense((col_rows, col_coeffs), nrows))
    return len(divisors), _divisibility_fixup(divisors)


def whole_matrix_table(fc, degrees: Sequence[int], sieve,
                       grades=None) -> List[HomologySummary]:
    """``homology.homology_table`` over Z computed the plain way: every
    d_n built per grade by ``boundary_matrix`` and ranked by
    ``whole_matrix_snf``, the dense loop on the whole matrix."""
    degrees = sorted(set(degrees))
    out = []
    for g in range(len(fc.grades)) if grades is None else grades:
        snf = {0: (0, [])}
        for k in range(1, degrees[-1] + 2):
            snf[k] = whole_matrix_snf(*boundary_matrix(fc, k, g, sieve))
        for n in degrees:
            gens = len(generators_at(fc, n, g, sieve))
            if gens:
                rank_upper, divisors = snf[n + 1]
                out.append(HomologySummary(
                    fc.grades[g], n, gens - snf[n][0] - rank_upper,
                    tuple(d for d in divisors if d > 1)))
    return out


def global_filtration_barcode(fc, max_degree: int, q: int = 2) -> Barcode:
    """``homology.persistence_barcode`` computed the plain way: every row
    of every degree put in one filtration order, (grade, degree, row), by
    a ``lexsort``, every face table mapped into that order, padded to one
    width, and the whole matrix reduced at once over GF(q)."""
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
    lows = kernels.reduce_columns(*columns(table, table >= 0), q)
    grade = grade[order].tolist()
    degree = degrees[order].tolist()
    bars: List[Bar] = []
    killed = [False] * len(lows)
    for j, low in enumerate(lows):
        if low >= 0:
            killed[j] = killed[low] = True
            if degree[low] <= max_degree and grade[low] != grade[j]:
                bars.append(Bar(degree[low], fc.grades[grade[low]],
                                fc.grades[grade[j]]))
    for j, low in enumerate(lows):
        if not killed[j] and low < 0 and degree[j] <= max_degree:
            bars.append(Bar(degree[j], fc.grades[grade[j]], INF))
    return Barcode(bars).sort()


def dense_boundary(fc, degree: int, g: int, sieve) -> np.ndarray:
    """``boundary_matrix`` at grade index g as a dense array, rows and
    columns labeled by ``generators_at`` in degrees ``degree - 1`` and
    ``degree``."""
    shape = (len(generators_at(fc, degree - 1, g, sieve)),
             len(generators_at(fc, degree, g, sieve)))
    entries = columns_to_dense(boundary_matrix(fc, degree, g, sieve),
                               shape[0])
    return np.array(entries, dtype=np.int64).reshape(shape)


# -- magnitude of a graph ---------------------------------------------


def magnitude_series(X: VGraph, grades: Sequence[float],
                     tol: float = 0.0) -> List[int]:
    """Coefficients of the magnitude sum(Z(q)^-1), Z(q) = [q^d(x, y)],
    keyed by grade index: entry g is the coefficient of q^r summed over
    the exponents r in grade ``grades[g]`` (``grades`` increasing from 0,
    as ``fc.grades``), truncated above ``grades[-1] + tol``.

    Z = I + N with every exponent of N positive, so Z^-1 = sum_k (-1)^k N^k,
    and the entries of N^k sum to one term q^(d(x0,x1) + ... + d(xk-1,xk))
    per walk with distinct consecutive vertices.  Exponents are real sums
    added hop by hop; an exponent counts at the last grade at or below
    it plus ``tol``, and must lie within ``k * tol`` of that grade.  No
    tuple, chain or Smith normal form is involved.
    """
    n = len(X)
    top = grades[-1] + tol
    d = X.dist.tolist()
    total = [0] * len(grades)

    def add(exponent: float, coeff: int, hops: int) -> None:
        g = bisect.bisect_right(grades, exponent + tol) - 1
        assert exponent - grades[g] <= max(hops, 1) * tol, \
            f"q^{exponent!r} lies in no grade"
        total[g] += coeff

    assert X.is_strict(0.0), "positive distances only"
    for _ in range(n):
        add(0.0, 1, 0)  # the entries of I
    # walks[y]: exponent -> count of walks of k hops ending at y
    walks = [{0.0: 1} for _ in range(n)]
    k = 0
    while True:
        k += 1
        walks = [_extend(walks, d, y, top) for y in range(n)]
        if not any(walks):
            break
        for ending in walks:
            for exponent, count in ending.items():
                add(exponent, (-1) ** k * count, k)
    return total


def _extend(walks, d, y: int, top: float):
    """Walks one hop longer ending at y, exponents at most ``top``."""
    out = {}
    for x, ending in enumerate(walks):
        if x == y or not math.isfinite(d[x][y]):
            continue
        for exponent, count in ending.items():
            e = exponent + d[x][y]
            if e <= top:
                out[e] = out.get(e, 0) + count
    return out


# -- direct localized-chain construction ------------------------------


def direct_local_generators(X: VGraph, p: float, r: float, degree: int) -> List[Tuple[str, ...]]:
    """Nondegenerate tuples whose consecutive-hop fold equals r exactly.

    Valid for spaces satisfying the +_p triangle inequality, where the
    birth grade is the fold of consecutive hops.
    """
    out = []
    for tup in itertools.product(X.vertices, repeat=degree + 1):
        if any(tup[i] == tup[i + 1] for i in range(degree)):
            continue
        hops = [X.d(tup[i], tup[i + 1]) for i in range(degree)]
        if any(math.isinf(h) for h in hops):
            continue
        if close(tensor_fold(hops, p), r):
            out.append(tup)
    return sorted(out)


def direct_local_boundary(X: VGraph, p: float, r: float, degree: int
                          ) -> Tuple[List[Tuple[str, ...]], List[Tuple[str, ...]], List[List[int]]]:
    """Alternating-face boundary where faces of the wrong total length die."""
    cols = direct_local_generators(X, p, r, degree)
    rows = direct_local_generators(X, p, r, degree - 1)
    row_index = {t: i for i, t in enumerate(rows)}
    entries = [[0] * len(cols) for _ in rows]
    for j, tup in enumerate(cols):
        for i in range(degree + 1):
            face = tup[:i] + tup[i + 1:]
            k = row_index.get(face)
            if k is not None:
                entries[k][j] += -1 if i % 2 else 1
    return rows, cols, entries


# -- exhaustive (co)limit checkers ------------------------------------


def all_vertex_maps(A: VGraph, B: VGraph):
    if not A.vertices:
        yield {}
        return
    for images in itertools.product(B.vertices, repeat=len(A.vertices)):
        yield dict(zip(A.vertices, images))


def morphisms(A: VGraph, B: VGraph) -> List[GraphMorphism]:
    out = []
    for m in all_vertex_maps(A, B):
        f = GraphMorphism(A, B, m)
        if check_morphism(f):
            out.append(f)
    return out


def product_projections(Xs: Sequence[VGraph], P: VGraph) -> List[GraphMorphism]:
    """Recover the component projections from the product's vertex order."""
    shape = tuple(len(X) for X in Xs)
    projs = []
    for k, X in enumerate(Xs):
        mapping = {}
        for flat, name in enumerate(P.vertices):
            combo = np.unravel_index(flat, shape)
            mapping[name] = X.vertices[combo[k]]
        projs.append(GraphMorphism(P, X, mapping))
    return projs


def coproduct_injections(Xs: Sequence[VGraph], C: VGraph) -> List[GraphMorphism]:
    injs = []
    offset = 0
    for X in Xs:
        mapping = {X.vertices[i]: C.vertices[offset + i] for i in range(len(X))}
        injs.append(GraphMorphism(X, C, mapping))
        offset += len(X)
    return injs


def unique_factorization(candidates: List[GraphMorphism], predicate) -> bool:
    """Exactly one candidate morphism satisfies the compatibility predicate."""
    return sum(1 for u in candidates if predicate(u)) == 1


# -- the four-vertex closure sweep (criterion 6) -----------------------
#
# A graph on the vertices 0..3 with distances in {0, 1, 2, inf} is a code:
# its 12 off-diagonal entries, row by row, are the base-4 digits (least
# significant first) indexing that alphabet.

SWEEP_ENTRIES = [(i, j) for i in range(4) for j in range(4) if i != j]
SWEEP_ALPHABET = np.array([0.0, 1.0, 2.0, INF])

#: p -> (p-th power, join of p-th powers, p-th root) of the (min, +_p)
#: closure.  On the sweep's alphabet each is exact in float64: integer
#: sums, squared integers summed then a correctly rounded sqrt, and max.
SWEEP_ARITHMETIC = {1.0: (np.positive, np.add, np.positive),
                    2.0: (np.square, np.add, np.sqrt),
                    INF: (np.positive, np.maximum, np.positive)}


def _relabel_tables() -> np.ndarray:
    """``tables[s, h, c]``: the part of a relabeled code that comes from
    its 6-digit half ``h`` (0 low, 1 high) when those digits read ``c``,
    for each of the 23 non-identity permutations ``s`` of the vertices.
    Relabeling moves every digit to another place, so a relabeled code
    is the sum of its two halves' entries."""
    digits = (np.arange(4096)[:, None] >> (2 * np.arange(6))) & 3
    tables = []
    for perm in itertools.permutations(range(4)):
        if perm == (0, 1, 2, 3):
            continue
        place = 4 ** np.array([SWEEP_ENTRIES.index((perm[i], perm[j]))
                               for i, j in SWEEP_ENTRIES])
        tables.append([digits @ place[:6], digits @ place[6:]])
    return np.array(tables, dtype=np.int32)


def orbit_representatives(chunk: int = 1 << 20) -> np.ndarray:
    """The least code of every relabeling orbit, increasing: a code stays
    when it is at most each of its 23 relabelings.  Codes are searched
    ``chunk`` at a time, and each relabeling tests only the survivors."""
    tables = _relabel_tables()
    kept = []
    for start in range(0, 4 ** 12, chunk):
        codes = np.arange(start, start + chunk, dtype=np.int32)
        for low, high in tables:
            codes = codes[codes <= low[codes & 4095] + high[codes >> 12]]
        kept.append(codes)
    return np.concatenate(kept)


def decode_codes(codes) -> np.ndarray:
    """The distance matrices of ``codes``, stacked as an (m, 4, 4) array."""
    digits = (np.asarray(codes)[:, None] >> (2 * np.arange(12))) & 3
    d = np.zeros((len(digits), 4, 4))
    rows, cols = zip(*SWEEP_ENTRIES)
    d[:, rows, cols] = SWEEP_ALPHABET[digits]
    return d


def path_closure(w: np.ndarray, join, pivots=range(4)) -> np.ndarray:
    """Floyd-Warshall in the (min, join) semiring on a stack of 4 x 4
    matrices, relaxing through each vertex of ``pivots`` in turn."""
    w = w.copy()
    for k in pivots:
        np.minimum(w, join(w[:, :, k, None], w[:, None, k, :]), out=w)
    return w


def p_closure(d: np.ndarray, p: float, closure=path_closure) -> np.ndarray:
    """The (min, +_p) closure of a stack of 4 x 4 matrices."""
    power, join, root = SWEEP_ARITHMETIC[p]
    return root(closure(power(d), join))


def _leq(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """Per matrix: a <= b entrywise up to eps; inf only below inf."""
    return np.all(a <= b + eps, axis=(1, 2))


def _triangle(w: np.ndarray, join, eps: float) -> np.ndarray:
    """Per matrix: join(w[a, b], w[b, c]) >= w[a, c] for all a, b, c."""
    via = join(w[:, :, :, None], w[:, None, :, :])
    return np.all(via >= w[:, :, None, :] - eps, axis=(1, 2, 3))


def closure_law_failures(d: np.ndarray, closure=path_closure,
                         eps: float = 1e-9) -> np.ndarray:
    """Mask of the matrices in the stack ``d`` that break a closure law
    at some p in {1, 2, inf}: the closure lies below the input, a second
    closure changes nothing, the closure's p-th powers satisfy their
    triangle inequality, the closure fixes the input exactly when the
    input satisfies it (a lift to a +_p category exists), and closures
    do not grow with p."""
    ok = np.ones(len(d), dtype=bool)
    previous = None
    for power, join, root in SWEEP_ARITHMETIC.values():
        w = power(d)
        cw = closure(w, join)
        c = root(cw)
        below = _leq(c, d, eps)
        again = root(closure(cw, join))
        ok &= below
        ok &= _leq(again, c, eps) & _leq(c, again, eps)
        ok &= _triangle(cw, join, eps)
        ok &= _triangle(w, join, eps) == (below & _leq(d, c, eps))
        if previous is not None:
            ok &= _leq(c, previous, eps)
        previous = c
    return ~ok


def sweep_four_vertex(codes: np.ndarray, closure=path_closure,
                      chunk: int = 1 << 15) -> Tuple[int, int]:
    """Run the closure laws on ``codes``, ``chunk`` graphs at a time.

    Returns (failures, first failing code), the code -1 when all pass.
    """
    failures, first_bad = 0, -1
    for start in range(0, len(codes), chunk):
        part = codes[start:start + chunk]
        bad = part[closure_law_failures(decode_codes(part), closure)]
        failures += len(bad)
        if first_bad < 0 and len(bad):
            first_bad = int(bad[0])
    return failures, first_bad
