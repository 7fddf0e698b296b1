"""Workload definitions, seeded input generation and output checks.

Every input is a strict, symmetric space with the additive triangle
inequality: integer weights drawn uniformly from 1..8 on every pair, closed
under shortest paths (the ``free_category(., 1.0)`` closure).  The closure
is computed here on integers, so the inputs do not depend on the library
being measured.

``ph_inf`` draws fresh spaces from the run's seed: at p = inf every tuple
of a finite space is born, so the work per space is fixed by the point
count and varies little between spaces.  The ``mh`` workloads vary 3-10 s
per space with the input (per-grade matrix sizes), so they run a fixed
corpus instead, and the seed draws the vertex names, the vertex order and
the order of the spaces.  See README.md for the measurements behind this.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import string
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: spaces in the fixed corpus shared by the mh workloads
CORPUS_SIZE = 6
CORPUS_POINTS = 11
#: tolerance for matching grades against oracles and reference tables
GRADE_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each exists."""

    name: str
    cli: Tuple[str, ...]  # CLI words; "{csv}" is replaced by the input path
    p: float
    points: int
    spaces: int  # spaces solved in one pass
    corpus: bool  # True: fixed corpus relabeled by the seed; False: fresh


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload("ph_inf", ("ph", "{csv}", "--degrees", "0..2"), math.inf,
             14, 4, False),
    Workload("mh_p1", ("mh", "{csv}", "--degrees", "0..2"), 1.0,
             CORPUS_POINTS, 6, True),
    Workload("mh_p2", ("mh", "{csv}", "--degrees", "0..2", "--p", "2"), 2.0,
             CORPUS_POINTS, 6, True),
]}


@dataclass(frozen=True)
class Space:
    """One input: vertex names and an integer distance matrix."""

    names: Tuple[str, ...]
    dist: Tuple[Tuple[int, ...], ...]
    digest: str  # identifies the space up to relabeling (corpus key)

    def to_csv(self) -> str:
        lines = [",".join(self.names)]
        lines += [",".join(str(v) for v in row) for row in self.dist]
        return "\n".join(lines) + "\n"


# -- input generation --------------------------------------------------


def honest_matrix(rng: random.Random, n: int, hi: int = 8) -> List[List[int]]:
    """Uniform integer weights in 1..hi, closed under shortest paths."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, hi)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            row = d[i]
            for j in range(n):
                if dik + dk[j] < row[j]:
                    row[j] = dik + dk[j]
    return d


def matrix_digest(d: Sequence[Sequence[int]]) -> str:
    return hashlib.sha256(json.dumps(d).encode()).hexdigest()[:16]


def corpus_matrices() -> List[List[List[int]]]:
    return [honest_matrix(random.Random(f"mh-corpus:{i}"), CORPUS_POINTS)
            for i in range(CORPUS_SIZE)]


def _random_names(rng: random.Random, n: int) -> List[str]:
    names: List[str] = []
    while len(names) < n:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(5))
        if name not in names:
            names.append(name)
    return names


def relabel(rng: random.Random, d: Sequence[Sequence[int]]) -> Space:
    """The same space under seeded vertex names and vertex order."""
    n = len(d)
    perm = list(range(n))
    rng.shuffle(perm)
    names = _random_names(rng, n)
    dist = tuple(tuple(d[perm[i]][perm[j]] for j in range(n)) for i in range(n))
    return Space(tuple(names), dist, matrix_digest(d))


def make_inputs(w: Workload, seed: int) -> List[Space]:
    """The spaces of one pass; the same seed gives the same spaces."""
    rng = random.Random(f"{w.name}:{seed}")
    if not w.corpus:
        return [relabel(rng, honest_matrix(rng, w.points))
                for _ in range(w.spaces)]
    corpus = corpus_matrices()[:w.spaces]
    rng.shuffle(corpus)
    return [relabel(rng, d) for d in corpus]


# -- output checks -----------------------------------------------------


def _grade(v) -> float:
    return math.inf if v == "inf" else float(v)


def nonzero_rows(rows, degree: int) -> List[Tuple[float, int, Tuple[int, ...]]]:
    """(grade, rank, torsion) of the rows of one degree with any homology."""
    out = [(_grade(r["grade"]), int(r["rank"]), tuple(r["torsion"]))
           for r in rows if r["degree"] == degree]
    return sorted(r for r in out if r[1] or r[2])


def _same_rows(got, want) -> bool:
    return len(got) == len(want) and all(
        abs(g[0] - w[0]) <= GRADE_TOL and g[1:] == w[1:]
        for g, w in zip(got, want))


class Checker:
    """Expected outputs for one pass, computed before any timing starts.

    ``ph``: the bars must equal the classical Vietoris-Rips oracle.
    ``mh``: H0 is one row (grade 0, rank = points); every degree-1 row has
    rank equal to the number of non-interpolated pairs at its grade and no
    torsion; nonzero degree-2 rows equal the reference table of the
    corpus space (matched on grade within GRADE_TOL).
    """

    def __init__(self, w: Workload, spaces: Sequence[Space],
                 reference: Optional[dict] = None):
        import numpy as np
        from lpnerve import analysis, homology
        from lpnerve.vgraph import VGraph

        self.workload = w
        self.graphs = [VGraph(list(s.names), np.array(s.dist, dtype=float))
                       for s in spaces]
        self.expected = []
        for s, X in zip(spaces, self.graphs):
            if w.cli[0] == "ph":
                bars = homology.vr_oracle(X, 2).bars
                self.expected.append(sorted(
                    (b.degree, b.birth, b.death) for b in bars))
                continue
            if reference is None:
                reference = load_reference()
            try:
                degree2 = [tuple(r[:2]) + (tuple(r[2]),)
                           for r in reference[w.name][s.digest]]
            except KeyError:
                raise LookupError(
                    f"no reference table for {w.name} space {s.digest}; "
                    f"run make_reference.py") from None
            grades = sorted({float(v) for row in s.dist for v in row if v})
            degree1 = [(r, len(analysis.h1_generators(X, w.p, r)), ())
                       for r in grades]
            self.expected.append({
                0: [(0.0, len(s.names), ())],
                1: [row for row in degree1 if row[1]],
                2: sorted(degree2),
            })

    def ok(self, index: int, text: str) -> bool:
        """True when the emitted JSON text for space ``index`` is right."""
        try:
            got = json.loads(text)
            want = self.expected[index]
            if self.workload.cli[0] == "ph":
                bars = sorted((b["degree"], _grade(b["birth"]), _grade(b["death"]))
                              for b in got)
                return len(bars) == len(want) and all(
                    g[0] == e[0] and abs(g[1] - e[1]) <= GRADE_TOL
                    and (g[2] == e[2] or abs(g[2] - e[2]) <= GRADE_TOL)
                    for g, e in zip(bars, want))
            return all(_same_rows(nonzero_rows(got, n), want[n])
                       for n in (0, 1, 2))
        except (ValueError, KeyError, TypeError):
            return False


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
