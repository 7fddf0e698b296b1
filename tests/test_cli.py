import contextlib
import io as _io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpnerve.cli
from lpnerve import homology, io, kernels
from lpnerve.chain import (CUSTOM_GRID, STRICT_PREDECESSORS, SieveSpec,
                           generators_at)
from lpnerve.cli import main
from lpnerve.kernels import _reduction_py
from lpnerve.homology import (Barcode, Coefficients, homology_table,
                              magnitude_homology, persistence_barcode)
from lpnerve.nerve import enumerate_complex
from lpnerve.snf import _divisibility_fixup
from lpnerve.values import EPS, INF
from lpnerve.vgraph import VGraph, asymmetrize
from util import (random_floors, random_honest_space, random_vgraph,
                  rp2_subdivision)

C4_CSV = """a,b,c,d
0,1,2,1
1,0,1,2
2,1,0,1
1,2,1,0
"""

LINE_CSV = """a,b,c
0,1,2
1,0,1
2,1,0
"""

AUTOMATON = {
    "states": ["s0", "s1", "s2"],
    "alphabet": {"a": 1.0, "b": 2.0, "g": 2.5},
    "transitions": [
        {"from": "s0", "to": "s1", "label": "a"},
        {"from": "s1", "to": "s2", "label": "b"},
        {"from": "s0", "to": "s2", "label": "g"},
    ],
}


@pytest.fixture
def c4_path(tmp_path):
    path = tmp_path / "c4.csv"
    path.write_text(C4_CSV)
    return str(path)


@pytest.fixture
def line_path(tmp_path):
    path = tmp_path / "line.csv"
    path.write_text(LINE_CSV)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_nerve(capsys, c4_path):
    code, obj = run_json(capsys, ["nerve", c4_path, "--p", "inf",
                                  "--max-dim", "1"])
    assert code == 0
    assert obj["max_dim"] == 1
    births = {tuple(t["verts"]): t["birth"] for t in obj["tuples"]}
    assert births[("a", "b")] == 1.0
    assert births[("a", "c")] == 2.0


def test_ph_json(capsys, c4_path):
    code, bars = run_json(capsys, ["ph", c4_path, "--degrees", "0..2"])
    assert code == 0
    deg1 = [b for b in bars if b["degree"] == 1]
    assert deg1 == [{"degree": 1, "birth": 1.0, "death": 2.0}]
    essential = [b for b in bars if b["death"] == "inf"]
    assert len(essential) == 1


def test_ph_csv_and_svg(capsys, c4_path, tmp_path):
    code = main(["ph", c4_path, "--degrees", "1", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "degree,birth,death"
    assert "1,1,2" in out

    target = tmp_path / "bars.svg"
    code = main(["ph", c4_path, "--degrees", "0..1", "--format", "svg",
                 "-o", str(target)])
    assert code == 0
    assert target.read_text().startswith("<svg")


def test_mh(capsys, c4_path):
    code, rows = run_json(capsys, ["mh", c4_path, "--degrees", "1"])
    assert code == 0
    assert {(r["grade"], r["rank"]) for r in rows} == {(1.0, 8), (2.0, 0)}
    assert all(r["torsion"] == [] for r in rows)


def test_mh_two_points_at_degree_1200(nerve_backend, monkeypatch, capsys,
                                      tmp_path):
    """The face tables are built in one loop, with no Python frame per
    degree, so a degree above the default recursion limit of 1000 runs:
    two points at distance 1 have two tuples per degree, and both are
    cycles of H_1200 at grade 1200."""
    monkeypatch.setattr(kernels, "reduce_faces", nerve_backend.reduce_faces)
    X = VGraph(["a", "b"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    rows = magnitude_homology(X, 1, [1200])
    assert [(r.grade, r.degree, r.rank, r.torsion) for r in rows] == [
        (1200.0, 1200, 2, ())]
    path = tmp_path / "two.csv"
    path.write_text(io.vgraph_to_csv(X))
    code, rows = run_json(capsys, ["mh", str(path), "--degrees", "1200"])
    assert code == 0
    assert rows == [{"grade": 1200.0, "degree": 1200, "rank": 2,
                     "torsion": []}]


def test_mh_line(capsys, line_path):
    code, rows = run_json(capsys, ["mh", line_path, "--degrees", "1"])
    assert code == 0
    assert {(r["grade"], r["rank"]) for r in rows} == {(1.0, 4), (2.0, 0)}


def test_homology_subcommand(capsys, line_path):
    code, rows = run_json(capsys, ["homology", line_path, "--degrees", "1",
                                   "--sieve", "strict", "--coeff", "z"])
    assert code == 0
    ranks = {r["grade"]: r["rank"] for r in rows if r["degree"] == 1}
    assert ranks[1.0] == 4


NEAR_CSV = """a,b,c
0,1,1.0000001
1,0,3
1.0000001,3,0
"""


def test_eps_merges_grades(capsys, tmp_path):
    # d(a, b) and d(a, c) differ by 1e-7: at --eps 1e-6 the four degree-1
    # tuples share grade 1 and each counts there once
    path = tmp_path / "near.csv"
    path.write_text(NEAR_CSV)
    row = lambda grade, rank: {"grade": grade, "degree": 1, "rank": rank,
                               "torsion": []}
    for argv in (["homology", str(path), "--sieve", "strict", "--coeff", "z"],
                 ["mh", str(path)]):
        code, rows = run_json(capsys, argv + ["--degrees", "1", "--eps", "1e-6"])
        assert code == 0
        assert rows == [row(1.0, 4), row(3.0, 0)]
        code, rows = run_json(capsys, argv + ["--degrees", "1"])
        assert code == 0
        assert rows == [row(1.0, 2), row(1.0000001, 2), row(3.0, 0)]


CHAIN_CSV = """a,b,c,d
0,1,1.0000008,1.0000016
1,0,3,3
1.0000008,3,0,3
1.0000016,3,3,0
"""


def test_chained_births_count_once(capsys, tmp_path):
    """Births 1, 1.0000008 and 1.0000016 link in steps under --eps 1e-6
    (tolerance 3e-6 at the largest distance 3), so they are one grade:
    under the strict sieve each degree-1 tuple counts at exactly one."""
    path = tmp_path / "chain.csv"
    path.write_text(CHAIN_CSV)
    path = str(path)
    code, obj = run_json(capsys, ["nerve", path, "--max-dim", "1"])
    near = [t for t in obj["tuples"] if t["degree"] == 1 and t["birth"] < 2]
    assert len(near) == 6
    argv = ["homology", path, "--degrees", "1", "--sieve", "strict",
            "--coeff", "z"]
    code, rows = run_json(capsys, argv + ["--eps", "1e-6"])
    assert code == 0
    assert [(r["grade"], r["rank"]) for r in rows if r["grade"] < 2] == \
        [(1.0, 6)]
    code, rows = run_json(capsys, argv)
    assert [(r["grade"], r["rank"]) for r in rows if r["grade"] < 2] == \
        [(1.0, 2), (1.0000008, 2), (1.0000016, 2)]
    # the generator counts of all grades add up to the degree-1 tuples
    X = io.load_vgraph(path)
    for eps in (EPS, 1e-6):
        fc = enumerate_complex(X, 1.0, 2, eps=eps)
        assert sum(len(generators_at(fc, 1, g, SieveSpec(STRICT_PREDECESSORS)))
                   for g in range(len(fc.grades))) == len(fc.tuples[1]) == 12
    # tolerance 1.2e-6: 1 and 1.0000016 are told apart, but 1.0000008 is
    # within it of both
    for command in (["nerve", path, "--max-dim", "1"], ["analyze", path]):
        done = run_cli([*command, "--eps", "4e-7"])
        assert done.returncode == 2
        assert "cannot be told apart" in done.stderr
        assert "Traceback" not in done.stderr


def test_mh_is_homology_strict_z(capsys, tmp_path):
    rng = random.Random(71)
    spaces = [random_honest_space(rng, 4), random_honest_space(rng, 4),
              random_vgraph(rng, 4)]
    for X in list(spaces):
        # births 1e-7 apart: distinct grades at eps 1e-9, one at 1e-6
        near = X.dist + np.array([[rng.choice((0.0, 1e-7)) for _ in X.vertices]
                                  for _ in X.vertices])
        np.fill_diagonal(near, 0.0)
        spaces.append(VGraph(X.vertices, near))
    merged = False
    for k, X in enumerate(spaces):
        path = write_space(tmp_path / f"s{k}.csv", X)
        for p in ("1", "2", "inf"):
            outs = {}
            for eps in ("1e-9", "1e-6"):
                for fmt in ("json", "csv"):
                    common = [path, "--p", p, "--degrees", "0..2",
                              "--eps", eps, "--format", fmt]
                    assert main(["mh", *common]) == 0
                    mh = capsys.readouterr().out
                    assert main(["homology", *common, "--sieve", "strict",
                                 "--coeff", "z"]) == 0
                    assert capsys.readouterr().out == mh
                    outs[eps, fmt] = mh
            merged |= outs["1e-9", "json"] != outs["1e-6", "json"]
    assert merged  # --eps changed some table


def test_each_boundary_built_once(capsys, monkeypatch, tmp_path):
    """Each d_k is built once per run of grades: a run starts at grade
    index 0 and at each grade index whose floor is neither its own nor
    that of the run's first grade.  So the strict and the empty sieve
    build it once for all grades, and a custom sieve once per run.  The
    barcode builds d_1 .. d_(n+1) once each, as the empty sieve's one
    run."""
    built = []
    real = homology.sieve_boundary

    def counting(fc, degree, floors):
        built.append((tuple(floors.tolist()), degree))
        return real(fc, degree, floors)

    def check(run, floors):
        built.clear()
        run()
        runs, floor = 0, None
        for g, f in enumerate(floors):
            if g == 0 or f not in (g, floor):
                runs, floor = runs + 1, f
        assert len(set(built)) == len(built) == 3 * runs  # d_1, d_2, d_3

    monkeypatch.setattr(homology, "sieve_boundary", counting)
    rng = random.Random(73)
    for k in range(3):
        X = random_honest_space(rng, 5)
        path = write_space(tmp_path / f"s{k}.csv", X)
        for p in ("1", "2", "inf"):
            fc = enumerate_complex(X, float(p), 3)
            n = len(fc.grades)
            check(lambda: magnitude_homology(X, float(p), range(0, 3)),
                  range(n))
            for sieve, floors in (("strict", range(n)), ("none", [0] * n)):
                check(lambda: main(["homology", path, "--p", p, "--sieve",
                                    sieve, "--degrees", "0..2"]), floors)
            floors = random_floors(rng, n)
            check(lambda: homology_table(fc, range(0, 3),
                                         SieveSpec(CUSTOM_GRID, floors)),
                  floors)
            check(lambda: persistence_barcode(fc, 2), [0] * n)
            # one run on whichever complex the command builds
            check(lambda: main(["ph", path, "--p", p, "--degrees", "0..2"]),
                  [0])
            assert not any(any(shared) for shared, _ in built)
            capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["nerve", "--format", "csv"], ["nerve", "--format", "svg"],
    ["mh", "--format", "svg"], ["homology", "--format", "svg"],
    ["free", "--format", "svg"], ["analyze", "--format", "csv"],
    ["free", "--max-dim", "2"], ["free", "--degrees", "1"],
    ["free", "--budget", "10"], ["analyze", "--max-dim", "2"],
    ["analyze", "--degrees", "1"], ["analyze", "--budget", "10"],
    ["automaton", "--p", "2"], ["automaton", "--degrees", "1"],
    ["automaton", "--format", "csv"], ["nerve", "--degrees", "1"]])
def test_flags_a_command_does_not_read(capsys, line_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], line_path, *argv[1:]])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


def test_flags_a_command_reads(capsys, line_path, tmp_path):
    auto = tmp_path / "auto.json"
    auto.write_text(json.dumps(AUTOMATON))
    for argv in (
            ["nerve", line_path, "--p", "2", "--max-dim", "1",
             "--budget", "100", "--eps", "0", "--format", "json"],
            ["ph", line_path, "--coeff", "z3", "--format", "svg"],
            ["mh", line_path, "--max-dim", "3", "--budget", "1000",
             "--format", "csv"],
            ["homology", line_path, "--sieve", "strict", "--format", "csv"],
            ["free", line_path, "--p", "2", "--eps", "0", "--format", "csv"],
            ["analyze", line_path, "--p", "2", "--tol", "1e-3",
             "--format", "json"],
            ["automaton", str(auto), "--max-dim", "3", "--budget", "1000",
             "--eps", "1e-6", "--format", "json"]):
        assert main(argv) == 0
        assert capsys.readouterr().out


def test_free(capsys, tmp_path):
    path = tmp_path / "open.csv"
    path.write_text("a,b,c\n0,1,9\n inf,0,1\ninf,inf,0\n")
    code, obj = run_json(capsys, ["free", str(path), "--p", "1"])
    assert code == 0
    dist = {(e["from"], e["to"]): e["dist"] for e in obj["edges"]}
    assert dist[("a", "c")] == 2.0
    assert dist[("c", "a")] == "inf"


def test_analyze(capsys, tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text("a,b,c\n0,5,3\n5,0,4\n3,4,0\n")
    code, obj = run_json(capsys, ["analyze", str(path)])
    assert code == 0
    assert obj["ultrametric"] is False
    pc = {(row["a"], row["b"]): row["p_critical"] for row in obj["p_critical"]}
    assert pc[("a", "b")] == pytest.approx(2.0, abs=1e-4)
    assert pc[("a", "c")] == "inf"


def test_analyze_tolerance_below_the_float_spacing(capsys, tmp_path):
    """--tol far below the float spacing at the root still ends, near the
    bisection to 1e-15."""
    path = tmp_path / "tri.csv"
    path.write_text("a,b,c\n0,1.5,2\n1.5,0,1.5\n2,1.5,0\n")
    outs = []
    for tol in ("1e-15", "1e-300"):
        code, obj = run_json(capsys, ["analyze", str(path), "--tol", tol])
        assert code == 0
        outs.append({(row["a"], row["b"]): row["p_critical"]
                     for row in obj["p_critical"]})
    assert outs[0].keys() == outs[1].keys()
    for pair, pc in outs[0].items():
        if pc == "inf":
            assert outs[1][pair] == "inf"
        else:
            assert abs(outs[1][pair] - pc) <= 1e-12
    assert outs[0][("a", "c")] == pytest.approx(2.4094, abs=1e-4)


SCALED_KEYS = {"grade", "birth", "death", "dist", "matrix"}


def assert_scaled(a, b, lam, scaled=False):
    """JSON ``b`` is ``a`` with every number under a key of SCALED_KEYS
    multiplied by lam, up to rounding, and everything else equal."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_scaled(a[key], b[key], lam, key in SCALED_KEYS)
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_scaled(x, y, lam, scaled)
    elif scaled and isinstance(a, float):
        assert b == pytest.approx(lam * a, rel=1e-9)
    else:
        assert a == b


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [1e-11, 1e-9, 1e3])
def test_analyze_and_automaton_are_scale_free(capsys, tmp_path, lam):
    """Their tolerance is --eps times the largest finite distance: on a
    scaled input every distance and grade scales and nothing else moves."""
    outs = []
    for k, scale in enumerate((1.0, lam)):
        path = write_space(tmp_path / f"line{k}.csv", VGraph(
            ["a", "b", "c"], scale * np.array([[0.0, 1.0, 2.0],
                                               [1.0, 0.0, 1.0],
                                               [2.0, 1.0, 0.0]])))
        auto = tmp_path / f"auto{k}.json"
        auto.write_text(json.dumps(dict(AUTOMATON, alphabet={
            a: scale * c for a, c in AUTOMATON["alphabet"].items()})))
        outs.append([run_json(capsys, ["analyze", path])[1],
                     run_json(capsys, ["automaton", str(auto)])[1]])
    analyze = outs[0][0]
    assert len(analyze["p_critical"]) == 6
    assert [g["grade"] for g in analyze["h1_generators"]] == [1.0, 2.0]
    assert_scaled(outs[0], outs[1], lam)


def test_automaton(capsys, tmp_path):
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(AUTOMATON))
    code, obj = run_json(capsys, ["automaton", str(path)])
    assert code == 0
    prims = {(p["from"], p["to"]): p["grade"]
             for p in obj["cost_primitive_pairs"]}
    assert prims == {("s0", "s1"): 1.0, ("s1", "s2"): 2.0, ("s0", "s2"): 2.5}
    assert obj["cost_space"]["vertices"] == ["s0", "s1", "s2"]


def test_deterministic_across_runs(capsys, c4_path):
    code = main(["ph", c4_path, "--degrees", "0..2"])
    out1 = capsys.readouterr().out
    assert code == 0
    code = main(["ph", c4_path, "--degrees", "0..2"])
    out2 = capsys.readouterr().out
    assert code == 0
    assert out1 == out2


def symmetric_space(rng, n, alphabet):
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = rng.choice(alphabet)
    return VGraph([f"v{i}" for i in range(n)], mat)


def write_space(path, X):
    rows = [",".join(X.vertices)] + [
        ",".join("inf" if math.isinf(x) else repr(x) for x in row)
        for row in X.dist.tolist()
    ]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@st.composite
def spaces(draw, max_points=5):
    """2 to ``max_points`` points, symmetric or not, distances from a small
    alphabet."""
    n = draw(st.integers(2, max_points))
    dist = np.zeros((n, n))
    symmetric = draw(st.booleans())
    for i in range(n):
        for j in range(i + 1 if symmetric else 0, n):
            if i != j:
                dist[i, j] = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
                if symmetric:
                    dist[j, i] = dist[i, j]
    return VGraph([f"v{i}" for i in range(n)], dist)


@st.composite
def relabelings(draw):
    """A space, and the same space under other names in another order."""
    X = draw(spaces())
    n = len(X)
    names = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3),
                          min_size=n, max_size=n, unique=True))
    perm = draw(st.permutations(range(n)))
    return X, VGraph(names, X.dist[np.ix_(perm, perm)])


@settings(max_examples=25, deadline=None)
@given(pair=relabelings(), p=st.sampled_from(["1", "2", "inf"]))
def test_relabeling_leaves_outputs_unchanged(pair, p):
    """Vertices are numbered in sorted-name order inside the complex; no
    output may depend on the names or the order they come in."""
    commands = [["mh"], ["ph"]] + [
        ["homology", "--sieve", sieve, "--coeff", coeff]
        for sieve in ("none", "strict") for coeff in ("z", "z2")]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [write_space(pathlib.Path(tmp) / f"{k}.csv", X)
                 for k, X in enumerate(pair)]
        out = os.path.join(tmp, "out")
        for command in commands:
            texts = []
            for path in paths:
                assert main([command[0], path, *command[1:], "--p", p,
                             "--degrees", "0..2", "-o", out]) == 0
                with open(out) as fh:
                    texts.append(fh.read())
            assert texts[0] == texts[1], command


def run_tables(tmp, spaces, argv):
    """The JSON output of one command on each space."""
    out = os.path.join(tmp, "out")
    tables = []
    for k, X in enumerate(spaces):
        path = write_space(pathlib.Path(tmp) / f"{k}.csv", X)
        assert main([argv[0], path, *argv[1:], "-o", out]) == 0
        with open(out) as fh:
            tables.append(json.load(fh))
    return tables


@settings(max_examples=25, deadline=None)
@given(X=spaces(), p=st.sampled_from(["1", "2", "inf"]),
       lam=st.sampled_from([1e-11, 1e-9, 1e3]))
@example(X=random_honest_space(random.Random(5), 6), p="1", lam=1e-11)
@example(X=random_honest_space(random.Random(5), 6), p="1", lam=1e-9)
def test_scaling_scales_grades_and_keeps_ranks(X, p, lam):
    """Tolerances are relative to the largest distance: scaling a space by
    lam scales every grade by lam and keeps each rank and torsion at its
    (grade index, degree), and each bar."""
    scaled = VGraph(X.vertices, lam * X.dist)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in (["mh"], ["ph"],
                     ["homology", "--sieve", "none", "--coeff", "z"]):
            base, moved = run_tables(tmp, [X, scaled],
                                     argv + ["--p", p, "--degrees", "0..2"])
            assert_scaled(base, moved, lam)


def table_sum(tables, strict):
    """The table of a disjoint union from the tables of its parts: at each
    grade and degree the ranks add and the torsion pools.  A part with no
    row there adds its last row below it under the global sieve, nothing
    under the strict sieve."""
    grades = []
    for r in sorted({row["grade"] for rows in tables for row in rows}):
        if not grades or not math.isclose(r, grades[-1], rel_tol=1e-9):
            grades.append(r)
    out = []
    for r in grades:
        for n in range(3):
            found = []
            for rows in tables:
                mine = [row for row in rows if row["degree"] == n and (
                    math.isclose(row["grade"], r, rel_tol=1e-9)
                    or not strict and row["grade"] < r)]
                if mine:
                    found.append(mine[-1])
            if found:
                torsion = _divisibility_fixup(
                    sorted(t for row in found for t in row["torsion"]))
                out.append({"grade": r, "degree": n,
                            "rank": sum(row["rank"] for row in found),
                            "torsion": [t for t in torsion if t > 1]})
    return out


@settings(max_examples=25, deadline=None)
@given(parts=st.tuples(spaces(max_points=3), spaces(max_points=3)),
       p=st.sampled_from(["1", "2", "inf"]))
def test_disjoint_union_adds_tables(parts, p):
    """With infinite distances between two parts no tuple crosses over, so
    every chain group, and with it every table, is the sum of the parts'."""
    A, B = parts
    dist = np.full((len(A) + len(B),) * 2, INF)
    dist[:len(A), :len(A)] = A.dist
    dist[len(A):, len(A):] = B.dist
    union = VGraph([f"a{i}" for i in range(len(A))]
                   + [f"b{i}" for i in range(len(B))], dist)
    with tempfile.TemporaryDirectory() as tmp:
        for argv, strict in ((["mh"], True),
                             (["homology", "--sieve", "none"], False)):
            *tables, got = run_tables(tmp, [A, B, union],
                                      argv + ["--p", p, "--degrees", "0..2"])
            assert_scaled(table_sum(tables, strict), got, 1.0)


def bars_json(X, p, degrees, max_dim, q):
    """``ph`` output as the general path computes it on X itself."""
    bc = persistence_barcode(enumerate_complex(X, p, max_dim), max(degrees),
                             Coefficients(q))
    return io.dumps(io.barcode_to_json(
        Barcode([b for b in bc.bars if b.degree in degrees])))


def run_ph(capsys, monkeypatch, path, p, max_dim, q):
    """CLI ``ph`` output, and the spaces the CLI enumerated."""
    seen = []

    def recording(X, *args, **kwargs):
        seen.append(X)
        return enumerate_complex(X, *args, **kwargs)

    monkeypatch.setattr(lpnerve.cli, "enumerate_complex", recording)
    code = main(["ph", path, "--p", p, "--degrees", "0..1",
                 "--max-dim", str(max_dim), "--coeff", f"z{q}"])
    assert code == 0
    return capsys.readouterr().out, seen


SYMMETRIC_KINDS = {
    "strict": lambda rng: random_honest_space(rng, 6),
    "zero_off_diagonal": lambda rng: symmetric_space(rng, 6, (0.0, 1.0, 2.0)),
    "inf_entries": lambda rng: symmetric_space(rng, 6, (0.5, 1.0, 3.0, math.inf)),
    "non_metric": lambda rng: symmetric_space(rng, 6, (0.5, 1.0, 5.0)),
}


@pytest.mark.parametrize("kind", sorted(SYMMETRIC_KINDS))
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("max_dim", [2, 3])
def test_ph_symmetric_inf_matches_general_path(capsys, monkeypatch, tmp_path,
                                               kind, q, max_dim):
    rng = random.Random(61)
    for k in range(3):
        X = SYMMETRIC_KINDS[kind](rng)
        path = write_space(tmp_path / f"s{k}.csv", X)
        out, seen = run_ph(capsys, monkeypatch, path, "inf", max_dim, q)
        # the ordered-subset complex ran, and gave the general path's bars
        assert [Y.dist.tolist() for Y in seen] == [asymmetrize(X).dist.tolist()]
        assert out == bars_json(X, math.inf, range(0, 2), max_dim, q)


def test_ph_general_path_off_the_gate(capsys, monkeypatch, tmp_path):
    """Finite p, asymmetric and near-symmetric inputs enumerate the space
    itself; the ordered-subset complex would give other bars there."""
    rng = random.Random(67)
    cases = []
    for k in range(4):
        X = random_honest_space(rng, 5)
        cases.append((X, "2", True))
        cases.append((X, "1", True))
        cases.append((random_vgraph(rng, 5), "inf", False))
        near = VGraph(X.vertices, X.dist.copy())
        for i in range(5):
            for j in range(i):
                near.dist[i, j] -= 1e-10  # within --eps of symmetric
        cases.append((near, "inf", True))
    differs = set()
    for k, (X, p, comparable) in enumerate(cases):
        path = write_space(tmp_path / f"s{k}.csv", X)
        out, seen = run_ph(capsys, monkeypatch, path, p, 2, 2)
        assert [Y.dist.tolist() for Y in seen] == [X.dist.tolist()]
        want = bars_json(X, float(p), range(0, 2), 2, 2)
        assert out == want
        if comparable and want != bars_json(asymmetrize(X), float(p),
                                            range(0, 2), 2, 2):
            differs.add(p)
    assert differs == {"1", "2", "inf"}


def test_exit_code_missing_file(capsys, c4_path, tmp_path):
    assert main(["ph", "/nonexistent/x.csv"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["ph", c4_path, "-o", str(tmp_path)]) == 2  # not writable
    assert "error" in capsys.readouterr().err


def test_exit_code_bad_input(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.5,1\n1,0\n")  # nonzero diagonal
    assert main(["ph", str(path)]) == 2
    err = capsys.readouterr().err
    assert "diagonal" in err


@pytest.mark.parametrize("self_edge,code", [(5, 2), (0, 0)])
def test_json_self_edge_is_the_diagonal(capsys, tmp_path, self_edge, code):
    """A JSON self-edge sets the diagonal, as a CSV diagonal cell does: a
    nonzero one is the CSV's error, a zero one is legal."""
    graph = {"vertices": ["a", "b"], "symmetric": True, "edges": [
        {"from": "a", "to": "a", "dist": self_edge},
        {"from": "a", "to": "b", "dist": 1}]}
    json_path, csv_path = tmp_path / "self.json", tmp_path / "self.csv"
    json_path.write_text(json.dumps(graph))
    csv_path.write_text(f"a,b\n{self_edge},1\n1,0\n")
    outputs = []
    for path in (json_path, csv_path):
        assert main(["nerve", str(path)]) == code
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    if code:
        assert outputs[0].err == "error: nonzero diagonal at a\n"


@pytest.mark.parametrize("command,name,text", [
    ("ph", "bad.json", '{"vertices": ["a", "b"'),
    ("ph", "bad", '{"vertices": ["a", "b"], "edges": [{"from"'),
    ("automaton", "space.csv", "a,b\n0,1\n1,0\n"),
    ("automaton", "auto.json", '{"states": ["s0"], '),
], ids=["ph-json", "ph-sniffed", "automaton-csv", "automaton-json"])
def test_exit_code_bad_json(capsys, tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name,text", [
    ("bom.csv", "a,b\n0,1\n1,0\n"),
    ("labels.csv", "a,b\na,0,1\nb,1,0\n"),
    ("bom.json", '{"vertices": ["a", "b"], "symmetric": true, '
     '"edges": [{"from": "a", "to": "b", "dist": 1}]}'),
], ids=["csv", "csv-row-labels", "json"])
def test_a_byte_order_mark_is_not_read(capsys, tmp_path, name, text):
    """Spreadsheets write UTF-8 with a byte-order mark; it does not
    become part of the first vertex's name."""
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    code, obj = run_json(capsys, ["nerve", str(path), "--max-dim", "1"])
    assert code == 0
    assert [t["verts"] for t in obj["tuples"] if t["degree"] == 0] == [
        ["a"], ["b"]]


@pytest.mark.parametrize("command", ["mh", "automaton"])
def test_deeply_nested_json_is_bad_input(capsys, tmp_path, command):
    """JSON nested deeper than the parser's recursion allows is one error
    line and exit code 2, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path} nests JSON values too deeply\n"


@pytest.mark.parametrize("command,name,content", [
    ("ph", "rows.json", '{"vertices": ["a", "b"], "edges": [["a", "b", 1]]}'),
    ("ph", "edges.json", '{"vertices": ["a", "b"], "edges": 5}'),
    ("ph", "vertices.json", '{"vertices": 5}'),
    ("automaton", "alphabet.json",
     '{"states": ["s"], "alphabet": [1], "transitions": []}'),
    ("ph", "dir.csv", None),
    ("automaton", "dir.json", None),
    ("ph", "latin1.csv", "a,b\n0,1\n1,0\n".encode() + b"\xff\n"),
    ("ph", "symmetric.json",
     '{"vertices": ["a", "b"], "edges": [], "symmetric": "false"}'),
    ("free", "dist.json", '{"vertices": ["a", "b"], '
     '"edges": [{"from": "a", "to": "b", "dist": true}]}'),
    ("free", "default.json", '{"vertices": ["a", "b"], "default": true}'),
    ("automaton", "cost.json", '{"states": ["s"], "alphabet": {"a": true}, '
     '"transitions": [{"from": "s", "to": "s", "label": "a"}]}'),
], ids=["ph-edge-rows", "ph-edges-int", "ph-vertices-int",
        "automaton-alphabet-list", "ph-directory", "automaton-directory",
        "ph-not-utf8", "ph-symmetric-string", "free-dist-bool",
        "free-default-bool", "automaton-cost-bool"])
def test_exit_code_bad_input_shape(capsys, tmp_path, command, name, content):
    """Valid JSON of the wrong shape, or a file that cannot be read as
    UTF-8 text, is bad input."""
    path = tmp_path / name
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


NAMES = st.sampled_from(["a", "b", "ab", "inf", "1", ""])
LEAVES = st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | NAMES
json_values = st.recursive(
    LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(NAMES, children, max_size=4)),
    max_leaves=12)
RECORDS = st.lists(st.dictionaries(
    st.sampled_from(["from", "to", "dist", "label"]), LEAVES), max_size=3)


def field(shape):
    """A field of a graph or automaton file: of nearly its shape, or any
    JSON value."""
    return shape | json_values


#: (command, the JSON value of its input file)
inputs = st.one_of(
    st.tuples(st.just("ph"), st.fixed_dictionaries(
        {"vertices": field(st.lists(NAMES, max_size=4, unique=True))},
        optional={"edges": field(RECORDS), "default": LEAVES,
                  "symmetric": LEAVES}) | json_values),
    st.tuples(st.just("automaton"), st.fixed_dictionaries(
        {"states": field(st.lists(NAMES, max_size=4, unique=True)),
         "alphabet": field(st.dictionaries(NAMES, LEAVES, max_size=3))},
        optional={"transitions": field(RECORDS)}) | json_values))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(command_value=inputs)
def test_arbitrary_json_never_ends_in_a_traceback(command_value):
    """Whatever JSON value a graph or automaton file holds, the CLI either
    runs (exit 0) or reports bad input (exit 2)."""
    command, value = command_value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(value, fh)
        err = _io.StringIO()
        with contextlib.redirect_stdout(_io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([command, path])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


def test_one_parser_serves_every_call(capsys, c4_path):
    """main builds its parser once per process, and calls that alternate
    subcommands and flags print and exit as fresh processes do."""
    assert lpnerve.cli.build_parser() is lpnerve.cli.build_parser()
    for argv in (["mh", c4_path, "--p", "2"], ["mh", c4_path], ["ph", c4_path],
                 ["mh", c4_path, "--format", "svg"], ["mh", c4_path, "--p", "2"],
                 ["mh", c4_path]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = run_cli(argv)
        assert (code, out.out, out.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr)


def test_automaton_input_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["automaton", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "automaton JSON" in out
    assert "distance matrix" not in out


def test_exit_code_budget(capsys, c4_path):
    code = main(["ph", c4_path, "--degrees", "0..2", "--budget", "10"])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: tuple count exceeded the budget of 10"]


def test_warnings_print_one_line_with_no_source(tmp_path):
    """A warning prints as ``warning: <message>``: no path, line number
    or line of library source, in a fresh process as in-process."""
    path = tmp_path / "auto.json"
    path.write_text('{"states": ["s"], "alphabet": {"a": 1, "b": 0.3333333}, '
                    '"transitions": [{"from": "s", "to": "s", "label": "a"}]}')
    argv = ["automaton", str(path)]
    done = run_cli(argv)
    assert done.returncode == 0 and done.stdout
    assert done.stderr.splitlines() == [
        "warning: cost of letter 'b' is not a short decimal fraction of the "
        "dearest letter's; the degree-1 generator equivalence assumes a "
        "discrete cost range"]
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0
    assert (out.getvalue(), err.getvalue()) == (done.stdout, done.stderr)


def test_negative_zero_distances_print_no_negative_zero(capsys, tmp_path):
    """-0 in a CSV is the distance 0: no birth, grade or bar prints as
    -0.0."""
    path = tmp_path / "negz.csv"
    path.write_text("a,b,c\n0,-0,1\n-0,0,1\n1,1,0\n")
    outs = []
    for argv in (["nerve", str(path), "--max-dim", "1"],
                 ["ph", str(path)], ["mh", str(path)],
                 ["homology", str(path), "--sieve", "none"]):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert not any("-0" in out for out in outs)
    births = {tuple(t["verts"]): t["birth"]
              for t in json.loads(outs[0])["tuples"]}
    assert births[("a", "b")] == births[("b", "a")] == 0.0


@pytest.mark.parametrize("command", ["mh", "homology", "ph"])
def test_overflowing_tolerance_makes_one_grade(capsys, line_path, command):
    # eps times the largest distance overflows to an infinite tolerance,
    # which links every birth into one grade, as an eps of 5 does
    outs = []
    for eps in ("1e308", "5"):
        assert main([command, line_path, "--degrees", "0..1",
                     "--eps", eps]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])


@pytest.mark.parametrize("degrees", ["2..0", "-1", "-1..1"])
def test_exit_code_bad_degrees(capsys, c4_path, degrees):
    with pytest.raises(SystemExit) as exc:
        main(["mh", c4_path, f"--degrees={degrees}"])
    assert exc.value.code == 2
    assert "--degrees" in capsys.readouterr().err


def test_exit_code_bad_max_dim(capsys, c4_path):
    assert main(["ph", c4_path, "--degrees", "2", "--max-dim", "1"]) == 2


def test_exit_code_field_order_too_large(capsys, c4_path):
    """A prime order of 2^31 or more would overflow the reduction's int64
    products (and once made it loop forever); 2^31 - 1 is the largest
    prime accepted, and gives the barcode of GF(2) on the 4-cycle."""
    done = run_cli(["ph", c4_path, "--degrees", "0..1",
                    "--coeff", "z4294967311"])
    assert done.returncode == 2
    assert "2^31" in done.stderr
    assert "Traceback" not in done.stderr
    assert run_json(capsys, ["ph", c4_path, "--degrees", "0..1",
                             "--coeff", "z2147483647"]) == \
        run_json(capsys, ["ph", c4_path, "--degrees", "0..1"])


@pytest.mark.parametrize("flag,value", [("--max-dim", "-1"), ("--budget", "-5")])
def test_exit_code_negative_counts(capsys, tmp_path, flag, value):
    path = tmp_path / "s.csv"
    path.write_text("a,b,c\n0,1,2\n1,0,1\n2,1,0\n")
    with pytest.raises(SystemExit) as exc:
        main(["nerve", str(path), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err


BIG_CSV = """a,b,c
0,1e200,1
1e200,0,1
1,1,0
"""


@pytest.mark.parametrize("command", ["mh", "nerve", "ph", "homology",
                                     "analyze", "free"])
def test_exit_code_overflowing_powers(capsys, tmp_path, command):
    path = tmp_path / "big.csv"
    path.write_text(BIG_CSV)
    assert main([command, str(path), "--p", "2"]) == 2
    assert "overflows" in capsys.readouterr().err
    for p in ("1", "inf"):
        assert main([command, str(path), "--p", p]) == 0
        assert capsys.readouterr().out


def test_overflowing_powers_edge_cases(capsys, tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("a,b\n0,1e200\n1e200,0\n")
    assert main(["free", str(path), "--p", "2"]) == 2
    capsys.readouterr()
    # the powers are checked before they are taken, also for a complex
    # of degree 0 only, whose births sum nothing
    assert main(["nerve", str(path), "--p", "2", "--max-dim", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: distance 1e+200 is too large at p = 2.0: 1 times its p-th "
        "power overflows a float\n")
    path = tmp_path / "big.csv"
    path.write_text(BIG_CSV)
    for p, dist in (("1", 2.0), ("inf", 1.0)):
        code, obj = run_json(capsys, ["free", str(path), "--p", p])
        assert code == 0
        assert obj["edges"][0] == {"from": "a", "to": "b", "dist": dist}
        code, obj = run_json(capsys, ["nerve", str(path), "--p", p,
                                      "--max-dim", "1"])
        assert code == 0
        births = {tuple(t["verts"]): t["birth"] for t in obj["tuples"]}
        assert births[("a", "b")] == 1e200


#: births 1, 1.0000009 and 1.0000018 of degree 1, and no tuple above it
SPAN_CSV = """a,b,c,d
0,1,1.0000009,1.0000018
inf,0,inf,inf
inf,inf,0,inf
inf,inf,inf,0
"""

SPAN_ERROR = ("error: grades 1.0 to 1.0000018 span more than 1.0000018e-06 "
              "in steps of at most 1.0000018e-06, so they cannot be told "
              "apart\n")


def test_checks_follow_the_degrees_searched(nerve_backend, capsys, tmp_path):
    """The overflow check and the span a grade may have are sized by the
    degrees the search reached, not by ``--max-dim``: a complex that ends
    below ``--max-dim`` prints, or fails, the same at any ``--max-dim``
    above it, with nothing on stderr but an error."""
    path = tmp_path / "x.csv"
    def run(text, *argv):
        path.write_text(text)
        code = main(["nerve", str(path), *argv])
        out = capsys.readouterr()
        return code, out.out, out.err
    # d(a, b) = 1e300 and d(b, a) = inf: a tuple folds at most one hop
    big = "a,b\n0,1e300\ninf,0\n"
    code, out, err = run(big, "--p", "1", "--max-dim", "2")
    assert (code, err) == (0, "") and len(json.loads(out)["tuples"]) == 3
    assert run(big, "--p", "1", "--max-dim", str(10 ** 20)) == (
        0, out.replace('"max_dim": 2,', f'"max_dim": {10 ** 20},'), "")
    # no warning guesses a tuple count from --max-dim
    code, out, err = run("a,b\n0,inf\ninf,0\n", "--max-dim", "100")
    assert (code, err) == (0, "") and len(json.loads(out)["tuples"]) == 2
    # a degree-1 birth is one distance, known to within one tolerance
    for max_dim in ("1", "2", "5"):
        assert run(SPAN_CSV, "--eps", "1e-6", "--max-dim", max_dim) == (
            2, "", SPAN_ERROR)
    # d^p is finite but 2 d^p is not: the degree-2 sums overflow to inf,
    # and the search prunes them without a warning, but the check after
    # it finds that a tuple was lost
    mid = "a,b,c\n0,1e154,1e154\n1e154,0,1e154\n1e154,1e154,0\n"
    code, out, err = run(mid, "--p", "2", "--max-dim", "1")
    assert (code, err) == (0, "") and len(json.loads(out)["tuples"]) == 9
    assert run(mid, "--p", "2", "--max-dim", "2") == (
        2, "", "error: distance 1e+154 is too large at p = 2.0: 2 times its "
        "p-th power overflows a float\n")


def test_grade_span_error_prints_plain_floats(capsys, tmp_path):
    """``analyze`` clusters its distances with a span of one tolerance,
    and names the grades as plain floats."""
    path = tmp_path / "span.csv"
    path.write_text(SPAN_CSV)
    assert main(["analyze", str(path), "--eps", "1e-6"]) == 2
    assert capsys.readouterr() == ("", SPAN_ERROR)


def test_homology_prints_the_torsion_of_the_projective_plane(capsys, tmp_path):
    """The subdivided RP^2, asymmetrized, at p = inf under the empty sieve:
    H_1 at grade 1 is Z/2, so rank 0 with torsion [2] over Z, rank 1 over
    GF(2) and rank 0 over GF(3)."""
    path = tmp_path / "rp2.csv"
    path.write_text(io.vgraph_to_csv(asymmetrize(rp2_subdivision())))
    for coeff, rank, torsion in [("z", 0, [2]), ("z2", 1, []), ("z3", 0, [])]:
        code, rows = run_json(capsys, [
            "homology", str(path), "--p", "inf", "--degrees", "0..1",
            "--sieve", "none", "--coeff", coeff])
        assert code == 0
        assert {"grade": 1.0, "degree": 1, "rank": rank,
                "torsion": torsion} in rows


def run_cli(argv, timeout=60):
    """Run the CLI in a child process, so a hang fails instead of blocking."""
    src = os.path.dirname(os.path.dirname(lpnerve.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "lpnerve.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


#: a child that runs the CLI with its address space capped at ``cap``
#: bytes, on the compiled kernel at the path ``kernel``, or on the
#: pure-Python twin where that is empty
BOUNDED_CLI = """
import importlib.util, resource, sys
kernel, cap, *argv = sys.argv[1:]
resource.setrlimit(resource.RLIMIT_AS, (int(cap), int(cap)))
name = "lpnerve.kernels._reduction"
if kernel:
    spec = importlib.util.spec_from_file_location(name, kernel)
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
else:
    sys.modules[name] = None  # an import error: lpnerve takes the twin
from lpnerve import cli, kernels
assert kernels.BACKEND == ("compiled" if kernel else "python")
sys.exit(cli.main(argv))
"""


@pytest.mark.parametrize("max_dim", [10 ** 6, 10 ** 20])
def test_a_huge_max_dim_costs_nothing_past_the_last_tuple(backend, tmp_path,
                                                          max_dim):
    """Two points infinitely far apart have no edge, so the complex ends
    at degree 1 whatever ``--max-dim`` asks: on either backend, with its
    address space capped at 1 GiB and a timeout, ``nerve`` prints the two
    tuples and the ``max_dim`` it was asked for.  Arrays or list slots
    per requested degree would spend the cap (or the time) first."""
    path = tmp_path / "inf2.csv"
    path.write_text(",a,b\na,0,inf\nb,inf,0\n")
    kernel = "" if backend is _reduction_py else backend.__file__
    src = os.path.dirname(os.path.dirname(lpnerve.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", BOUNDED_CLI, kernel, str(2 ** 30), "nerve",
         str(path), "--max-dim", str(max_dim)],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert f'"max_dim": {max_dim},' in done.stdout
    tuples = json.loads(done.stdout)["tuples"]
    assert [t["verts"] for t in tuples] == [["a"], ["b"]]


def test_degrees_past_the_last_stored_one(capsys, tmp_path):
    """An asymmetrized space of n points has no tuple of degree n, so its
    complex ends by degree n whatever ``--max-dim`` asks.  At a
    ``--max-dim`` above n, the bars (with the essential ones of the last
    nonempty degree: the 4-cycle's loop) are those of a run at the
    smallest ``--max-dim`` the degrees need, byte for byte, and degrees
    past the last nonempty one add no homology rows."""
    cycle = VGraph(list("abcd"), np.array([
        [0.0, 1.0, INF, 1.0], [1.0, 0.0, 1.0, INF],
        [INF, 1.0, 0.0, 1.0], [1.0, INF, 1.0, 0.0]]))
    path = str(tmp_path / "x.csv")
    for X, loops in ((asymmetrize(cycle), 1),
                     (asymmetrize(random_honest_space(random.Random(61), 4)),
                      0)):
        pathlib.Path(path).write_text(io.vgraph_to_csv(X))
        high = str(len(X) + 2)
        for p in ("1", "2", "inf"):
            fc = enumerate_complex(X, float(p), len(X))
            last = max(k for k, level in enumerate(fc.tuples) if len(level))
            def out(*argv):
                assert main([argv[0], path, "--p", p, *argv[1:]]) == 0
                return capsys.readouterr().out
            for top in range(last + 3):
                degrees = ["--degrees", f"0..{top}"]
                assert out("ph", *degrees) == out("ph", *degrees,
                                                  "--max-dim", high)
            for sieve in ("none", "strict"):
                assert out("homology", "--degrees", f"{last + 1}..{last + 2}",
                           "--sieve", sieve, "--max-dim", high) == "[]\n"
                assert out("homology", "--degrees", f"0..{last}",
                           "--sieve", sieve) == out(
                    "homology", "--degrees", f"0..{last + 2}", "--sieve",
                    sieve, "--max-dim", high)
            # the cycle's loop is essential, and nothing kills it
            assert out("ph", "--degrees", "1..1").count("inf") == loops


@pytest.mark.parametrize("flag,value,code", [
    ("--tol", "0", 2), ("--tol", "-1", 2), ("--tol", "nan", 2),
    ("--eps", "nan", 2), ("--eps", "-1", 2),
    ("--tol", "0.001", 0), ("--eps", "0", 0)])
def test_exit_code_bad_tolerance(line_path, flag, value, code):
    done = run_cli(["analyze", line_path, f"{flag}={value}"])
    assert done.returncode == code
    if code:
        assert flag in done.stderr
