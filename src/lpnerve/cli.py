"""Batch command-line front end.

Exit codes: 0 success, 2 input error, 3 tuple budget exceeded.  Errors
and warnings print to stderr as one line each, ``error: <message>`` and
``warning: <message>``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from typing import List, Optional

from . import analysis, automata, io, values
from .chain import EMPTY, STRICT_PREDECESSORS, SieveSpec
from .homology import (INTEGERS, Coefficients, homology_table,
                       magnitude_homology, persistence_barcode)
from .nerve import DEFAULT_BUDGET, enumerate_complex, grade_clusters
from .values import EPS, INF, BudgetExceededError, InputError, parse_exponent
from .vgraph import asymmetrize, free_category, tolerance, validate


def _parse_degrees(text: str) -> range:
    lo, sep, hi = text.partition("..")
    degrees = range(int(lo), int(hi if sep else lo) + 1)
    if not degrees:
        raise argparse.ArgumentTypeError(f"empty degree range {text!r}")
    if degrees[0] < 0:
        raise argparse.ArgumentTypeError(f"degrees must be >= 0, got {text!r}")
    return degrees


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _nonnegative(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < INF:
        raise argparse.ArgumentTypeError(f"must be in [0, inf), got {text!r}")
    return value


def _parse_coeff(text: str) -> Coefficients:
    text = text.lower()
    if text == "z":
        return INTEGERS
    if text.startswith("z") and text[1:].isdecimal():
        return Coefficients(int(text[1:]))
    raise InputError(f"unknown coefficient spec {text!r} (use z, z2, z5, ...)")


def _add_common(sub: argparse.ArgumentParser, default_p: Optional[str],
                formats=("json",), budget: bool = True, degrees: bool = True,
                input_help: str = "distance matrix (CSV or JSON)") -> None:
    """The input and output, and only the flags the command reads.  A
    command that computes homology enumerates tuples up to one degree
    above the highest it reports, all that its boundaries read, so only
    ``nerve`` adds a tuple dimension cap, ``--max-dim``."""
    sub.add_argument("input", help=input_help)
    if default_p is not None:
        sub.add_argument("--p", default=default_p,
                         help="exponent in [1, inf] (default %(default)s)")
    if budget:
        sub.add_argument("--budget", type=_count, default=DEFAULT_BUDGET,
                         help="tuple count cap (default %(default)s)")
    if degrees:
        sub.add_argument("--degrees", type=_parse_degrees, default=None,
                         metavar="A..B",
                         help="homology degrees to report (default 0..1); "
                              "tuples are enumerated up to one degree "
                              "above the highest")
    sub.add_argument("--eps", type=_nonnegative, default=EPS,
                     help="relative tolerance: grades closer than eps times "
                          "the largest finite distance are one grade")
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("-o", "--output", default=None,
                     help="output path (default stdout)")


@functools.cache  # parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpnerve",
        description="Filtered tuple nerves of finite generalized metric "
                    "spaces: persistence barcodes, localized (magnitude) "
                    "homology tables, and metric diagnostics.")
    subs = parser.add_subparsers(dest="command", required=True)

    nerve = subs.add_parser("nerve", help="dump the filtered complex")
    _add_common(nerve, "inf", degrees=False)
    nerve.add_argument("--max-dim", type=_count, default=2,
                       help="tuple dimension cap (default %(default)s)")

    ph = subs.add_parser("ph", help="persistence barcode (default p=inf, GF(2))")
    _add_common(ph, "inf", formats=("json", "csv", "svg"))
    ph.add_argument("--coeff", default="z2")

    mh = subs.add_parser("mh", help="localized table (default p=1): "
                                    "homology --sieve strict --coeff z")
    _add_common(mh, "1", formats=("json", "csv"))

    hom = subs.add_parser("homology", help="graded homology with explicit p/sieve")
    _add_common(hom, "1", formats=("json", "csv"))
    hom.add_argument("--sieve", choices=["none", "strict"], default="none")
    hom.add_argument("--coeff", default="z")

    free = subs.add_parser("free", help="(min, +_p) path closure of a space")
    _add_common(free, "1", formats=("json", "csv"), budget=False,
                degrees=False)

    an = subs.add_parser("analyze",
                         help="ultrametric flag, critical exponents, "
                              "degree-1 generator pairs")
    _add_common(an, "1", budget=False, degrees=False)
    an.add_argument("--tol", type=_positive, default=1e-6)

    auto = subs.add_parser("automaton",
                           help="cost space, cost-primitive pairs and the "
                                "degree-1 table at p=1")
    _add_common(auto, None, degrees=False,
                input_help="automaton JSON: states, alphabet costs and "
                           "transitions")
    return parser


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_validated(args):
    """The input space, validated at the relative tolerance ``--eps``."""
    X = io.load_vgraph(args.input)
    report = validate(X, args.eps)
    if not report.ok:
        raise InputError("; ".join(report.violations))
    return X


def _degrees(args) -> range:
    return args.degrees if args.degrees is not None else range(0, 2)


def _emit_rows(args, rows) -> None:
    if args.format == "csv":
        _emit(args, io.homology_to_csv(rows))
    else:
        _emit(args, io.dumps(io.homology_to_json(rows)))


def run(args) -> int:
    p = parse_exponent(args.p) if "p" in args else None
    if args.command == "nerve":
        X = _load_validated(args)
        fc = enumerate_complex(X, p, args.max_dim, budget=args.budget,
                               eps=args.eps)
        _emit(args, io.dumps(io.complex_to_json(fc)))
        return 0

    if args.command == "ph":
        X = _load_validated(args)
        degrees = _degrees(args)
        coeff = _parse_coeff(args.coeff)
        if p == INF and X.is_symmetric(0.0):
            # same bars from the ordered-subset (Vietoris-Rips) complex,
            # which has one tuple per subset instead of all orderings
            X = asymmetrize(X)
        fc = enumerate_complex(X, p, degrees[-1] + 1, budget=args.budget,
                               eps=args.eps)
        bc = persistence_barcode(fc, degrees[-1], coeff)
        bc.bars = [b for b in bc.bars if b.degree in degrees]
        if args.format == "svg":
            _emit(args, io.barcode_to_svg(bc))
        elif args.format == "csv":
            _emit(args, io.barcode_to_csv(bc))
        else:
            _emit(args, io.dumps(io.barcode_to_json(bc)))
        return 0

    if args.command == "mh":
        X = _load_validated(args)
        degrees = _degrees(args)
        _emit_rows(args, magnitude_homology(X, p, degrees, args.budget,
                                            args.eps))
        return 0

    if args.command == "homology":
        X = _load_validated(args)
        degrees = _degrees(args)
        coeff = _parse_coeff(args.coeff)
        sieve = SieveSpec(STRICT_PREDECESSORS if args.sieve == "strict" else EMPTY)
        fc = enumerate_complex(X, p, degrees[-1] + 1, budget=args.budget,
                               eps=args.eps)
        _emit_rows(args, homology_table(fc, degrees, sieve, coeff))
        return 0

    if args.command == "free":
        X = _load_validated(args)
        closed = free_category(X, p)
        if args.format == "csv":
            _emit(args, io.vgraph_to_csv(closed))
        else:
            _emit(args, io.dumps({
                "vertices": closed.vertices,
                "edges": [
                    {"from": a, "to": b, "dist": closed.d(a, b)}
                    for a in closed.vertices for b in closed.vertices if a != b
                ],
            }))
        return 0

    if args.command == "analyze":
        import math
        X = _load_validated(args)
        tol = tolerance(X, args.eps)
        # interpolation sums the p-th powers of two hops
        values.check_powers(X.dist, p, 2)
        pairs = []
        for a in X.vertices:
            for b in X.vertices:
                d = X.d(a, b)
                if a == b or d <= tol or math.isinf(d):
                    continue
                pairs.append({
                    "a": a, "b": b, "dist": d,
                    "p_critical": analysis.p_critical(X, a, b, tol=args.tol,
                                                      eps=args.eps),
                })
        grades = grade_clusters([row["dist"] for row in pairs], tol)
        generators = [
            {"grade": r, "p": p,
             "pairs": [list(g) for g in analysis.h1_generators(X, p, r,
                                                               args.eps)]}
            for r in grades
        ] if X.is_strict(args.eps) and not math.isinf(p) else []
        _emit(args, io.dumps({
            "ultrametric": analysis.is_ultrametric(X, args.eps),
            "p_critical": pairs,
            "h1_generators": generators,
        }))
        return 0

    if args.command == "automaton":
        A = io.load_automaton(args.input)
        C = automata.cost_space(A)
        strict_C, proj = automata.strictify(C, args.eps)
        primitives = automata.cost_primitive_pairs(strict_C, args.eps)
        # degree 1 at p = 1 is where the cost-primitive theorem applies
        table = magnitude_homology(strict_C, 1.0, [1], args.budget,
                                   args.eps)
        _emit(args, io.dumps({
            "cost_space": {
                "vertices": C.vertices,
                "matrix": C.dist.tolist(),
            },
            "collapsed": {v: proj.map[v] for v in C.vertices},
            "cost_primitive_pairs": [
                {"from": a, "to": b, "grade": r} for a, b, r in primitives
            ],
            "degree1_homology": io.homology_to_json(table),
        }))
        return 0

    raise InputError(f"unknown command {args.command!r}")


def _show_warning(message, category, filename, lineno, file=None,
                  line=None) -> None:
    """Print a warning as one line, with no source path or line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return run(args)
        except BudgetExceededError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except (InputError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
