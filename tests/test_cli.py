import json

import pytest

from lpnerve.cli import main

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


def test_automaton(capsys, tmp_path):
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(AUTOMATON))
    code, obj = run_json(capsys, ["automaton", str(path)])
    assert code == 0
    prims = {(p["from"], p["to"]): p["grade"]
             for p in obj["cost_primitive_pairs"]}
    assert prims == {("s0", "s1"): 1.0, ("s1", "s2"): 2.0, ("s0", "s2"): 2.5}
    assert obj["cost_space"]["vertices"] == ["s0", "s1", "s2"]


def test_deterministic_across_workers(capsys, c4_path):
    code = main(["ph", c4_path, "--degrees", "0..2", "--workers", "1"])
    out1 = capsys.readouterr().out
    assert code == 0
    code = main(["ph", c4_path, "--degrees", "0..2", "--workers", "4"])
    out2 = capsys.readouterr().out
    assert code == 0
    assert out1 == out2


def test_exit_code_missing_file(capsys):
    assert main(["ph", "/nonexistent/x.csv"]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_bad_input(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.5,1\n1,0\n")  # nonzero diagonal
    assert main(["ph", str(path)]) == 2
    err = capsys.readouterr().err
    assert "diagonal" in err


def test_exit_code_budget(capsys, c4_path):
    with pytest.warns(RuntimeWarning):
        code = main(["ph", c4_path, "--degrees", "0..2", "--budget", "10"])
    assert code == 3
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("degrees", ["2..0", "-1", "-1..1"])
def test_exit_code_bad_degrees(capsys, c4_path, degrees):
    with pytest.raises(SystemExit) as exc:
        main(["mh", c4_path, f"--degrees={degrees}"])
    assert exc.value.code == 2
    assert "--degrees" in capsys.readouterr().err


def test_exit_code_bad_max_dim(capsys, c4_path):
    assert main(["ph", c4_path, "--degrees", "2", "--max-dim", "1"]) == 2
