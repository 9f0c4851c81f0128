#!/usr/bin/env python3
"""Steadiness check: two independent sets of runs of every workload.

    python3 perfbench/steady.py [--runs 10] [--out results.json]

The workloads and the run length are BENCHMARK.json's. Each set runs every
workload --runs times through run.py with distinct
seeds (set 1: seeds 1..N, set 2: seeds 101..100+N). For every end-to-end
metric it prints, per set, the median and the inter-quartile range as a
share of the median (statistics.quantiles(values, n=4)), and the change of
set 2's median against set 1's in the metric's worse direction, next to
the bound BENCHMARK.json gives it. A metric passes when both spreads
(setup_s excepted) and the set-to-set change stay within its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steady: {workload} seed {seed} reported incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write every measured value here")
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    values = {}  # (set, workload) -> metric -> [values]
    for set_index, seed_base in ((1, 1), (2, 101)):
        for workload in workloads:
            runs = values.setdefault((set_index, workload), {})
            for seed in range(seed_base, seed_base + args.runs):
                for name, value in run_once(workload, seed,
                                            bench["run_seconds"]).items():
                    runs.setdefault(name, []).append(value)
                print(f"set {set_index} {workload} seed {seed} done",
                      file=sys.stderr, flush=True)

    ok = True
    header = (f"{'workload':<13} {'metric':<22} {'median1':>12} {'iqr1':>7} "
              f"{'median2':>12} {'iqr2':>7} {'worse':>7} {'bound':>6}")
    print(header)
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            m1, s1 = spread(values[(1, workload)][name])
            m2, s2 = spread(values[(2, workload)][name])
            change = (m2 - m1) / m1 if m1 else 0.0
            worse = change if metric["better"] == "lower" else -change
            passed = worse <= bound and (
                name == "setup_s" or (s1 <= bound and s2 <= bound))
            ok = ok and passed
            print(f"{workload:<13} {name:<22} {m1:>12.5g} {s1:>7.2%} "
                  f"{m2:>12.5g} {s2:>7.2%} {worse:>+7.2%} {bound:>6.0%}"
                  f"{'' if passed else '  FAIL'}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({f"set{s}/{w}": v for (s, w), v in values.items()}, f,
                      indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
