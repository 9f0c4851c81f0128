#!/usr/bin/env python3
"""Builds the scprt benchmark from source and runs one workload.

    python3 perfbench/run.py --workload tw_sparse --seed 1 --seconds 30 --trace 0

Run from the checkout root (any directory works; paths are resolved from
this file). The first call configures and builds perfbench/ (the library
sources under src/ plus the harness) in Release mode into the build
directory: $CARGO_TARGET_DIR if set, else .bench_build/. Later calls only
re-check the build.

The harness prints every metric with its unit and sample count, and the
output checks, on stderr. BENCHMARK.json is the one list of metric names
and units: this script checks the harness's result against it, reads a
per-layer metric the workload bypasses as 0, and prints the JSON result as
the last line of stdout. Per-run
scratch files (WAL, store, snapshot) live in .bench_tmp/run-<pid>/ and are
removed when the run ends; the traced run (--trace 1) writes its spans to
<build dir>/spans/<workload>-seed<N>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tw_sparse", "es_dense", "live_durable")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no src/ beside perfbench/ — nothing to build")
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("perfbench: cmake not found")
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run([cmake, "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run([cmake, "--build", out_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "scprt_perfbench")


def canonical(result, specs, required):
    """The harness's metrics in BENCHMARK.json order, as {value, unit}.

    Every emitted name must be declared with the unit it is declared with.
    A declared name the harness did not emit is an error when `required`,
    else it reads 0.
    """
    emitted = dict(result["metrics"])
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        metric = emitted.pop(name, None)
        if metric is None:
            if required:
                sys.exit(f"perfbench: metric {name} not measured")
            metrics[name] = {"value": 0.0, "unit": unit}
            continue
        if metric["unit"] != unit:
            sys.exit(f"perfbench: metric {name} has unit {metric['unit']}, "
                     f"declared {unit}")
        metrics[name] = {"value": metric["value"], "unit": unit}
    if emitted:
        sys.exit(f"perfbench: undeclared metrics {sorted(emitted)}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except subprocess.CalledProcessError as error:
        sys.exit(f"perfbench: build failed ({error})")

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    run_dir = os.path.join(tmp_root, f"run-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--run-dir", run_dir]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=False)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run's directory is still there
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1
    result = canonical(json.loads(lines[-1]),
                       bench["per_layer" if args.trace else "end_to_end"],
                       required=not args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
