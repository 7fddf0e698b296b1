"""Tests of the benchmark's own machinery, on small spaces.

Run from the root of a source checkout:

    PYTHONPATH=src python3 -m pytest -q pipebench
"""

import dataclasses
import importlib
import random

import pytest

import lpnerve.cli
import lpnerve.io
from child import run_pass, write_inputs
from make_reference import degree2_tables
from spans import TARGETS, Tracer
from workloads import WORKLOADS, Checker, honest_matrix, relabel


def small(name: str, points: int = 6, spaces: int = 2):
    w = dataclasses.replace(WORKLOADS[name], points=points, spaces=spaces)
    rng = random.Random(7)
    return w, [relabel(rng, honest_matrix(rng, points)) for _ in range(spaces)]


def mh_reference(w, spaces, tmp_path):
    """Degree-2 tables from an untampered run, keyed as in reference.json."""
    return {w.name: degree2_tables(w, spaces, str(tmp_path))}


def current_targets():
    return [getattr(importlib.import_module(m), a) for m, a, _, _ in TARGETS]


@pytest.mark.parametrize("name", ["ph_inf", "mh_p1"])
def test_tracer_restores_originals_and_zeroes_missing_layers(name, tmp_path):
    w, spaces = small(name)
    reference = mh_reference(w, spaces, tmp_path) if w.corpus else None
    checker = Checker(w, spaces, reference)
    argvs, outputs = write_inputs(w, spaces, str(tmp_path))
    # a refactor that stops calling a layer removes its attribute
    renamed = [(m, a + "_removed" if span == "homology.snf" else a, span, c)
               for m, a, span, c in TARGETS]
    before = current_targets()
    tracer = Tracer(renamed)
    with tracer:
        record = run_pass(lpnerve.cli.main, argvs, outputs, checker)
    assert all(a is b for a, b in zip(current_targets(), before))
    assert record["failed"] == 0
    layers = tracer.summary()
    assert layers["homology.snf_s"] == 0 and layers["homology.snf_calls"] == 0
    assert layers["nerve.enumerate_s"] > 0 and layers["nerve.tuples"] > 0
    assert layers["io.emit_s"] > 0
    assert layers["trace.covered_s"] <= record["wall_s"]


@pytest.mark.parametrize("name,tamper", [
    ("ph_inf", lambda obj: obj[1:]),  # a bar goes missing
    ("mh_p1", lambda obj: [dict(r, rank=r["rank"] + 1) if r["degree"] == 1
                           else r for r in obj]),
    ("mh_p1", lambda obj: [dict(r, torsion=[2]) if r["degree"] == 2
                           else r for r in obj]),
])
def test_tampered_output_counts_as_failed(name, tamper, tmp_path, monkeypatch):
    w, spaces = small(name)
    reference = mh_reference(w, spaces, tmp_path) if w.corpus else None
    checker = Checker(w, spaces, reference)
    argvs, outputs = write_inputs(w, spaces, str(tmp_path))
    clean = run_pass(lpnerve.cli.main, argvs, outputs, checker)
    assert clean["failed"] == 0

    dumps = lpnerve.io.dumps
    monkeypatch.setattr(lpnerve.io, "dumps", lambda obj: dumps(tamper(obj)))
    tampered = run_pass(lpnerve.cli.main, argvs, outputs, checker)
    assert tampered["failed"] / tampered["attempted"] > 0
