import json
import math
import random

import numpy as np
import pytest

from lpnerve import io
from lpnerve.homology import Bar, Barcode, HomologySummary
from lpnerve.nerve import enumerate_complex
from lpnerve.values import INF, InputError
from lpnerve.vgraph import VGraph
from util import graphs_equal, random_honest_space


def sample_graph():
    return VGraph(["a", "b"], np.array([[0.0, 1.5], [INF, 0.0]]))


def test_csv_round_trip():
    X = sample_graph()
    text = io.vgraph_to_csv(X)
    assert "inf" in text
    Y = io.vgraph_from_csv(text)
    assert graphs_equal(X, Y)


def test_csv_without_row_labels():
    text = "a,b\n0,2\n2,0\n"
    X = io.vgraph_from_csv(text)
    assert X.vertices == ["a", "b"]
    assert X.d("a", "b") == 2.0


def test_csv_errors():
    with pytest.raises(InputError):
        io.vgraph_from_csv("")
    with pytest.raises(InputError):
        io.vgraph_from_csv("a,b\n0,1\n")  # missing row
    with pytest.raises(InputError):
        io.vgraph_from_csv("a,b\nb,0,1\na,1,0\n")  # wrong row label
    with pytest.raises(InputError):
        io.vgraph_from_csv("a,b\n0,-1\n1,0\n")  # negative distance


def test_json_graph():
    obj = {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"from": "a", "to": "b", "dist": 1},
            {"from": "b", "to": "c", "dist": "inf"},
        ],
        "default": "inf",
        "symmetric": True,
    }
    X = io.vgraph_from_json(obj)
    assert X.d("a", "b") == 1.0
    assert X.d("b", "a") == 1.0
    assert X.d("b", "c") == INF
    assert X.d("a", "c") == INF
    with pytest.raises(InputError):
        io.vgraph_from_json({"edges": []})
    with pytest.raises(InputError):
        io.vgraph_from_json({"vertices": ["a"], "edges": [{"from": "a"}]})


def test_json_symmetric_flag_must_be_boolean():
    """Only true and false are a flag: the string "false" would otherwise
    symmetrize the matrix."""
    obj = {"vertices": ["a", "b"],
           "edges": [{"from": "a", "to": "b", "dist": 1}]}
    assert io.vgraph_from_json(dict(obj, symmetric=False)).d("b", "a") == INF
    assert io.vgraph_from_json(dict(obj, symmetric=True)).d("b", "a") == 1.0
    for bad in ("false", "true", 0, 1, None, []):
        with pytest.raises(InputError):
            io.vgraph_from_json(dict(obj, symmetric=bad))


def test_load_vgraph_sniffs_format(tmp_path):
    X = sample_graph()
    csv_path = tmp_path / "m.txt"
    csv_path.write_text(io.vgraph_to_csv(X))
    assert graphs_equal(io.load_vgraph(str(csv_path)), X)

    json_path = tmp_path / "m2.txt"
    json_path.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"from": "a", "to": "b", "dist": 1.5}],
    }))
    Y = io.load_vgraph(str(json_path))
    assert Y.d("a", "b") == 1.5
    assert Y.d("b", "a") == INF


def test_automaton_json():
    obj = {
        "states": ["s0", "s1"],
        "alphabet": {"a": 1.0},
        "transitions": [{"from": "s0", "to": "s1", "label": "aa"}],
    }
    A = io.automaton_from_json(obj)
    assert A.states == ["s0", "s1"]
    assert A.transitions[0].label == "aa"
    with pytest.raises(InputError):
        io.automaton_from_json({"states": []})


def test_complex_json():
    X = random_honest_space(random.Random(3), 3)
    fc = enumerate_complex(X, 1.0, 1)
    obj = io.complex_to_json(fc)
    assert obj["p"] == 1.0
    assert obj["max_dim"] == 1
    assert len(obj["tuples"]) == fc.size()
    degrees = {t["degree"] for t in obj["tuples"]}
    assert degrees == {0, 1}


def test_dumps_serializes_infinity():
    text = io.dumps({"x": INF, "ys": [1.0, INF]})
    parsed = json.loads(text)
    assert parsed == {"x": "inf", "ys": [1.0, "inf"]}


def test_barcode_formats():
    bc = Barcode([Bar(0, 0.0, 1.0), Bar(1, 1.0, INF)])
    rows = io.barcode_to_json(bc)
    assert rows[1]["death"] == INF
    csv_text = io.barcode_to_csv(bc)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "degree,birth,death"
    assert lines[2] == "1,1,inf"
    svg = io.barcode_to_svg(bc)
    assert svg.startswith("<svg")
    assert "marker-end" in svg  # infinite bar arrow
    assert svg.count("<line") >= 2 + 1  # bars plus the axis


def test_homology_formats():
    rows = [HomologySummary(1.0, 1, 8, ()), HomologySummary(2.0, 1, 0, (2, 4))]
    csv_text = io.homology_to_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "grade,degree,rank,torsion"
    assert lines[1] == "1,1,8,"
    assert lines[2] == "2,1,0,2;4"
    as_json = io.homology_to_json(rows)
    assert as_json[1]["torsion"] == [2, 4]
