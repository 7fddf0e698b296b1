"""Layer spans recorded around the library's public functions.

Each target is wrapped at the module attribute its caller looks up, so the
library runs unmodified.  A span records its name, start, end and the span
that was open when it started; counts are read from the arguments and the
return value after the span has ended.  A target that no longer exists is
skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple


def _fc_counts(args, kwargs, fc) -> Dict[str, float]:
    return {"nerve.tuples": fc.size(), "nerve.grades": len(fc.grades)}


def _reduce_counts(args, kwargs, lows) -> Dict[str, float]:
    col_rows = args[0] if args else kwargs["col_rows"]
    return {"chain.columns": len(col_rows),
            "kernels.nnz": sum(len(rows) for rows in col_rows),
            "kernels.pairs": sum(1 for low in lows if low >= 0)}


def _snf_counts(args, kwargs, result) -> Dict[str, float]:
    M = args[0] if args else kwargs["M"]
    entries = getattr(M, "entries", M)
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    return {"homology.snf_calls": 1,
            "homology.snf_max_side": max(rows, cols),
            "homology.snf_cells": rows * cols}


def _calls(key: str) -> Callable:
    return lambda args, kwargs, result: {key: 1}


#: (module, attribute, span name, counter); the span name keys the metrics
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("lpnerve.io", "load_vgraph", "io.load", None),
    ("lpnerve.cli", "validate", "vgraph.validate", None),
    ("lpnerve.cli", "enumerate_complex", "nerve.enumerate", _fc_counts),
    ("lpnerve.homology", "enumerate_complex", "nerve.enumerate", _fc_counts),
    ("lpnerve.cli", "persistence_barcode", "chain.columns", None),
    ("lpnerve.kernels", "reduce_columns", "kernels.reduce", _reduce_counts),
    ("lpnerve.cli", "magnitude_homology", "homology", None),
    ("lpnerve.homology", "generators_at", "chain.generators",
     _calls("chain.generators_calls")),
    ("lpnerve.homology", "boundary_matrix", "chain.boundary",
     _calls("chain.blocks")),
    ("lpnerve.homology", "smith_normal_form", "homology.snf", _snf_counts),
    ("lpnerve.io", "dumps", "io.emit", None),
]

#: per-layer metric -> (span name, "total" or "self" time)
TIMES = {
    "nerve.enumerate_s": ("nerve.enumerate", "total"),
    "chain.columns_s": ("chain.columns", "self"),
    "kernels.reduce_s": ("kernels.reduce", "total"),
    "homology.snf_s": ("homology.snf", "total"),
    "chain.generators_s": ("chain.generators", "total"),
    "chain.boundary_s": ("chain.boundary", "total"),
    "homology.self_s": ("homology", "self"),
    "io.load_s": ("io.load", "total"),
    "vgraph.validate_s": ("vgraph.validate", "total"),
    "io.emit_s": ("io.emit", "total"),
}
#: counts that take the largest value in a pass instead of the sum
MAX_COUNTS = {"homology.snf_max_side"}
COUNTS = ["nerve.tuples", "nerve.grades", "chain.columns", "kernels.nnz",
          "kernels.pairs", "homology.snf_calls", "homology.snf_max_side",
          "homology.snf_cells", "chain.generators_calls", "chain.blocks"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_time = 0.0


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit.

    Spans are kept in memory; ``summary`` folds them into per-layer metrics.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._saved: List[Tuple[object, str, object]] = []
        self._open: Optional[Span] = None

    def __enter__(self) -> "Tracer":
        for module_name, attr, span_name, counter in self.targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                continue  # a layer the program no longer calls: zero calls
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, counter))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span_name: str, counter) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(span_name, time.perf_counter(), self._open)
            self._open = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open = span.parent
                if span.parent is not None:
                    span.parent.child_time += span.end - span.start
                self.spans.append(span)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    if key in MAX_COUNTS:
                        self.counts[key] = max(self.counts.get(key, 0), value)
                    else:
                        self.counts[key] = self.counts.get(key, 0) + value
            return result
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> Dict[str, float]:
        """Per-layer times and counts, zero for layers never entered."""
        out = {key: 0.0 for key in TIMES}
        for key, (name, kind) in TIMES.items():
            for s in self.spans:
                if s.name == name:
                    out[key] += s.end - s.start
                    if kind == "self":
                        out[key] -= s.child_time
        for key in COUNTS:
            out[key] = self.counts.get(key, 0)
        out["trace.covered_s"] = sum(
            s.end - s.start for s in self.spans if s.parent is None)
        return out
