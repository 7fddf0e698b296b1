"""Pipeline benchmark of the lpnerve CLI: ph_inf, mh_p1 and mh_p2.

Run from the root of a source checkout:

    python3 pipebench/run.py --workload ph_inf --seed 0 --seconds 30 --trace 0

Builds the package from source into .bench_build/pipebench, times
``import lpnerve.cli`` in fresh interpreters (setup_s), then measures the
workload in one fresh child process (child.py).  With --trace 0 it reports
the end-to-end metrics; with --trace 1 the per-layer metrics of a traced
run.  Every line but the last is for people; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S  # noqa: E402
from spans import COUNTS, TIMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "pipebench")
SETUP_SAMPLES = 5
#: a run must end within this many seconds of wall time
RUN_LIMIT_S = 170.0

#: prints the seconds to import lpnerve.cli, then three calibrations
IMPORT_SNIPPET = (
    "import sys, time; t = time.perf_counter(); import lpnerve.cli; "
    "t = time.perf_counter() - t; sys.path.insert(0, {here!r}); "
    "from calibrate import calibrate; "
    "print(t, *(calibrate()[0] for _ in range(3)))").format(here=HERE)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build(root: str) -> str:
    """Build the package with its own setup.py; return the library dir."""
    if not (os.path.isfile(os.path.join(root, "setup.py"))
            and os.path.isdir(os.path.join(root, "src", "lpnerve"))):
        fail("run from the root of an lpnerve source checkout "
             "(setup.py and src/lpnerve are missing)")
    lib = os.path.join(root, BUILD_DIR, "lib")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build",
         "--build-base", os.path.join(BUILD_DIR, "build"), "--build-lib", lib],
        cwd=root, capture_output=True, text=True, timeout=870)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("building the package failed")
    return lib


def child_env(lib: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = lib  # only the built package is importable
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict) -> list:
    """Raw and reference seconds to import lpnerve.cli, once per fresh
    interpreter."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail("importing lpnerve.cli failed")
        if i:  # the first import also writes the bytecode cache
            seconds, *calibration = map(float, proc.stdout.split())
            speed = REFERENCE_S / statistics.median(calibration)
            samples.append((seconds, seconds * speed))
    return samples


def run_child(args, env: dict, workdir: str, budget: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            env=env, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"the measuring process ran longer than {budget:.0f} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"the measuring process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def layer_metrics(passes: list) -> dict:
    """Medians over traced passes, plus the cost and coverage of tracing.
    Times are in reference seconds."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for key in TIMES:
        out[key] = statistics.median(
            p["layers"][key] * p["wall_speed"] for p in traced)
    for key in COUNTS:
        out[key] = statistics.median(p["layers"][key] for p in traced)
    out["trace.overhead_s"] = (
        statistics.median(p["wall_s"] * p["wall_speed"] for p in traced)
        - statistics.median(p["wall_s"] * p["wall_speed"] for p in plain))
    out["trace.coverage"] = statistics.median(
        p["layers"]["trace.covered_s"] / p["wall_s"] for p in traced)
    return out


END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "trace.coverage" else "count"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    root = os.getcwd()
    lib = build(root)
    env = child_env(lib)
    info = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, nproc=os.cpu_count(),
                machine=platform.machine())
    setup = [] if args.trace else measure_setup(env)

    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, BUILD_DIR))
    try:
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        result = run_child(args, env, workdir, budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    info.update(result["info"], passes=len(passes))
    if args.trace:
        metrics = layer_metrics(passes)
        info["chain.blocks"] = metrics["chain.blocks"]
        info["homology.snf_max_side"] = metrics["homology.snf_max_side"]
    else:
        plain = [p for p in passes if not p["traced"]]
        metrics = {
            "wall_s": statistics.median(
                p["wall_s"] * p["wall_speed"] for p in plain),
            "cpu_s": statistics.median(
                p["cpu_s"] * p["cpu_speed"] for p in plain),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(ref for _, ref in setup),
        }
        info["raw.wall_s"] = statistics.median(p["wall_s"] for p in plain)
        info["raw.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
        info["raw.setup_s"] = statistics.median(raw for raw, _ in setup)
    print("info " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:24s} {value:16.6f} {unit(name)}")
    print(f"{'failed_frac':24s} {failed / attempted:16.6f} "
          f"({failed} of {attempted} solves)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
