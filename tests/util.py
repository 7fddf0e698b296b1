"""Shared test fixtures: random space generators and independent oracles."""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import pathlib
import random
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from lpnerve.chain import boundary_matrix, generators_at
from lpnerve.values import EPS, INF, close, tensor_fold
from lpnerve.vgraph import GraphMorphism, VGraph, check_morphism, free_category

#: the kernel sources: each .pyx and the C that Cython generated from it
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
    """The complex as (birth, name tuple) pairs per degree, in its order."""
    return [list(zip(births.tolist(), fc.labels(k)))
            for k, births in enumerate(fc.births)]


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
    table = np.full((len(fc.tuples[degree]), degree + 1), -1)
    for r, verts in enumerate(fc.labels(degree)):
        for i in range(degree + 1):
            face = verts[:i] + verts[i + 1:]
            if not is_degenerate(face):
                table[r, i] = index[face]
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
