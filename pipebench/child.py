"""One measured run of one workload, in a fresh interpreter.

Started by run.py, which puts the built library first on the path.  Writes
the inputs as CSV files, solves them through ``lpnerve.cli.main`` pass
after pass for the given number of seconds, checks every output outside
the timed region, and prints one JSON line with the raw pass records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Callable, List, Sequence

from calibrate import REFERENCE_S, calibrate
from workloads import WORKLOADS, Checker, Space, Workload, make_inputs


def write_inputs(w: Workload, spaces: Sequence[Space], workdir: str):
    """Write each space as CSV; return the CLI argument lists and the
    output paths they name."""
    argvs, outputs = [], []
    for i, s in enumerate(spaces):
        csv_path = os.path.join(workdir, f"space{i}.csv")
        with open(csv_path, "w") as fh:
            fh.write(s.to_csv())
        outputs.append(os.path.join(workdir, f"out{i}.json"))
        argvs.append([word.format(csv=csv_path) for word in w.cli]
                     + ["-o", outputs[-1]])
    return argvs, outputs


def run_pass(main: Callable, argvs: Sequence[List[str]], outputs: Sequence[str],
             checker: Checker) -> dict:
    """Solve every input once, calibrating before and after each solve;
    then check the outputs.  Times are raw seconds; ``speed`` converts
    them to reference seconds (see calibrate.py)."""
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)  # a solve that writes nothing must not pass
    codes = []
    wall = cpu = 0.0
    samples = [calibrate()]
    for argv in argvs:
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        except Exception:  # a crashing solve is counted, not fatal
            traceback.print_exc()
            codes.append(None)
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        samples.append(calibrate())
    failed = 0
    for i, (code, path) in enumerate(zip(codes, outputs)):
        try:
            with open(path) as fh:
                ok = code == 0 and checker.ok(i, fh.read())
        except OSError:
            ok = False
        if not ok:
            print(f"solve {i} failed (exit {code!r})", file=sys.stderr)
            failed += 1
    return {"wall_s": wall, "cpu_s": cpu,
            "wall_speed": REFERENCE_S / statistics.median(w for w, _ in samples),
            "cpu_speed": REFERENCE_S / statistics.median(c for _, c in samples),
            "attempted": len(argvs), "failed": failed}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: str) -> dict:
    """Passes until ``seconds`` are spent; traced runs alternate passes
    with tracing off and on, so their difference is the tracing cost."""
    import lpnerve.cli
    from spans import Tracer

    w = WORKLOADS[workload]
    spaces = make_inputs(w, seed)
    argvs, outputs = write_inputs(w, spaces, workdir)
    checker = Checker(w, spaces)

    passes, spent = [], []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.reset()
            with tracer:
                record = run_pass(lpnerve.cli.main, argvs, outputs, checker)
            record["layers"] = tracer.summary()
        else:
            record = run_pass(lpnerve.cli.main, argvs, outputs, checker)
        record["traced"] = traced
        passes.append(record)
        spent.append(time.perf_counter() - t0)
        used = time.perf_counter() - start
        if (len(passes) >= (2 if trace else 1)
                and used + statistics.median(spent) > seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from lpnerve.nerve import enumerate_complex
    tuples = [0, 0, 0, 0]
    grades = 0
    for X in checker.graphs:
        fc = enumerate_complex(X, w.p, 3)
        tuples = [a + len(level) for a, level in zip(tuples, fc.tuples)]
        grades += len(fc.grades)
    import numpy
    from lpnerve.kernels import BACKEND
    return {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "info": {"backend": BACKEND, "python": platform.python_version(),
                 "numpy": numpy.__version__, "spaces": len(spaces),
                 "points": w.points, "nerve.tuples_by_degree": tuples,
                 "nerve.grades": grades},
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.workdir)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
