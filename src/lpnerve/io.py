"""File formats: distance matrices, automata, complexes, reports.

Infinite grades serialize as the token/string "inf" everywhere.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from typing import List, Sequence

import numpy as np

from .automata import Automaton, Transition
from .homology import Bar, Barcode, HomologySummary
from .nerve import FilteredComplex
from .values import INF, InputError, grade_str, parse_grade
from .vgraph import VGraph


# -- distance matrices ------------------------------------------------


def vgraph_from_csv(text: str) -> VGraph:
    """Distance matrix with a header row of vertex names.

    Data rows may optionally lead with their vertex name.
    """
    rows = [row for row in csv.reader(_io.StringIO(text)) if row and any(c.strip() for c in row)]
    if not rows:
        raise InputError("empty CSV input")
    header = [c.strip() for c in rows[0]]
    if header and header[0] == "":
        header = header[1:]
    names = header
    n = len(names)
    if len(rows) - 1 != n:
        raise InputError(
            f"expected {n} data rows for {n} vertices, got {len(rows) - 1}")
    mat = np.zeros((n, n))
    for i, row in enumerate(rows[1:]):
        cells = [c.strip() for c in row]
        if len(cells) == n + 1:
            if cells[0] != names[i]:
                raise InputError(
                    f"row label {cells[0]!r} does not match header vertex "
                    f"{names[i]!r}")
            cells = cells[1:]
        if len(cells) != n:
            raise InputError(f"row {i + 1} has {len(cells)} cells, expected {n}")
        for j, cell in enumerate(cells):
            mat[i, j] = parse_grade(cell)
    return VGraph(names, mat)


def vgraph_to_csv(X: VGraph) -> str:
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + X.vertices)
    for i, v in enumerate(X.vertices):
        writer.writerow([v] + [grade_str(X.dist[i, j]) for j in range(len(X))])
    return out.getvalue()


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def vgraph_from_json(obj) -> VGraph:
    """{"vertices": [...], "edges": [{"from","to","dist"}],
    "default": "inf", "symmetric": bool}"""
    if not (isinstance(obj, dict) and _strings(obj.get("vertices"))
            and isinstance(obj.get("edges", []), list)):
        raise InputError("graph JSON must be an object with a 'vertices' "
                         "list of strings and an 'edges' list")
    names = obj["vertices"]
    default = parse_grade(obj.get("default", "inf"))
    symmetric = bool(obj.get("symmetric", False))
    n = len(names)
    idx = {v: i for i, v in enumerate(names)}
    mat = np.full((n, n), default)
    for edge in obj.get("edges", []):
        try:
            a, b, r = edge["from"], edge["to"], parse_grade(edge["dist"])
        except (KeyError, TypeError):
            raise InputError(f"edge {edge!r} is not an object with the keys "
                             "from, to and dist") from None
        if not all(isinstance(v, str) and v in idx for v in (a, b)):
            raise InputError(f"edge ({a!r}, {b!r}) mentions an unknown vertex")
        mat[idx[a], idx[b]] = r
        if symmetric:
            mat[idx[b], idx[a]] = r
    np.fill_diagonal(mat, 0.0)
    return VGraph(names, mat)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _parse_json(path: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def load_vgraph(path: str) -> VGraph:
    text = _read(path)
    # a .json name, or content that looks like an object, is JSON
    if path.endswith(".json") or (not path.endswith(".csv")
                                  and text.lstrip().startswith("{")):
        return vgraph_from_json(_parse_json(path, text))
    return vgraph_from_csv(text)


# -- automata ---------------------------------------------------------


def automaton_from_json(obj) -> Automaton:
    """{"states": [...], "alphabet": {"a": 1.0}, "transitions":
    [{"from","to","label"}]}"""
    try:
        states = obj["states"]
        alphabet = {k: parse_grade(v) for k, v in obj["alphabet"].items()}
        transitions = [[t["from"], t["to"], t["label"]]
                       for t in obj.get("transitions", [])]
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"malformed automaton JSON: {exc}") from None
    if not (_strings(states) and all(_strings(t) for t in transitions)):
        raise InputError("states and each transition's from, to and label "
                         "must be strings")
    return Automaton(states, alphabet, [Transition(*t) for t in transitions])


def load_automaton(path: str) -> Automaton:
    return automaton_from_json(_parse_json(path, _read(path)))


# -- complexes and matrices -------------------------------------------


def complex_to_json(fc: FilteredComplex) -> dict:
    return {
        "p": INF if math.isinf(fc.p) else fc.p,
        "max_dim": fc.max_dim,
        "tuples": [
            {"degree": degree, "verts": list(verts),
             "birth": INF if math.isinf(birth) else birth}
            for degree, births in enumerate(fc.births)
            for verts, birth in zip(fc.labels(degree), births.tolist())
        ],
    }


def dumps(obj) -> str:
    """JSON text with infinities rendered as the string "inf"."""
    def walk(v):
        if isinstance(v, float) and math.isinf(v):
            return "inf"
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [walk(x) for x in v]
        return v
    return json.dumps(walk(obj), indent=2, sort_keys=False) + "\n"


# -- homology reports -------------------------------------------------


def barcode_to_json(bc: Barcode) -> list:
    return [
        {"degree": b.degree, "birth": b.birth,
         "death": INF if math.isinf(b.death) else b.death}
        for b in bc.bars
    ]


def barcode_to_csv(bc: Barcode) -> str:
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["degree", "birth", "death"])
    for b in bc.bars:
        writer.writerow([b.degree, grade_str(b.birth), grade_str(b.death)])
    return out.getvalue()


def homology_to_csv(rows: Sequence[HomologySummary]) -> str:
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["grade", "degree", "rank", "torsion"])
    for h in rows:
        writer.writerow([
            grade_str(h.grade), h.degree, h.rank,
            ";".join(str(d) for d in h.torsion),
        ])
    return out.getvalue()


def homology_to_json(rows: Sequence[HomologySummary]) -> list:
    return [
        {"grade": INF if math.isinf(h.grade) else h.grade,
         "degree": h.degree, "rank": h.rank, "torsion": list(h.torsion)}
        for h in rows
    ]


# -- SVG barcode ------------------------------------------------------

_DEGREE_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]


def barcode_to_svg(bc: Barcode, width: int = 640, bar_height: int = 12) -> str:
    """Static horizontal-bar rendering; infinite bars get an arrowhead."""
    finite_ends = [b.death for b in bc.bars if math.isfinite(b.death)]
    finite_ends += [b.birth for b in bc.bars]
    x_max = max(finite_ends, default=1.0)
    if x_max <= 0:
        x_max = 1.0
    margin, axis_h = 40, 24
    n = len(bc.bars)
    height = margin + n * (bar_height + 4) + axis_h

    def sx(x: float) -> float:
        return margin + (width - 2 * margin) * (x / x_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="8" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto">'
        '<path d="M 0 0 L 10 5 L 0 10 z"/></marker></defs>',
    ]
    for k, b in enumerate(bc.bars):
        y = margin + k * (bar_height + 4) + bar_height / 2
        color = _DEGREE_COLORS[b.degree % len(_DEGREE_COLORS)]
        x0 = sx(b.birth)
        if math.isfinite(b.death):
            parts.append(
                f'<line x1="{x0:.2f}" y1="{y:.2f}" x2="{sx(b.death):.2f}" '
                f'y2="{y:.2f}" stroke="{color}" stroke-width="{bar_height - 4}"/>')
        else:
            parts.append(
                f'<line x1="{x0:.2f}" y1="{y:.2f}" x2="{width - margin:.2f}" '
                f'y2="{y:.2f}" stroke="{color}" '
                f'stroke-width="{bar_height - 4}" marker-end="url(#arrow)"/>')
        parts.append(
            f'<text x="4" y="{y + 4:.2f}" font-size="10">H{b.degree}</text>')
    # grade axis
    y_axis = height - axis_h + 4
    parts.append(
        f'<line x1="{margin}" y1="{y_axis}" x2="{width - margin}" '
        f'y2="{y_axis}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = margin + (width - 2 * margin) * frac
        value = x_max * frac
        parts.append(
            f'<line x1="{x:.2f}" y1="{y_axis}" x2="{x:.2f}" '
            f'y2="{y_axis + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{y_axis + 16}" font-size="10" '
            f'text-anchor="middle">{value:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
