#!/usr/bin/env python3
"""Repeats the benchmark over seeds and reports how much each metric spreads.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] \
        [--workloads serve-wave-small,figure3-flow] [--trace 0|1]

Each (workload, seed) pair runs BENCHMARK.json's command once for
`run_seconds`. Per workload and metric the script prints the median of
the runs and their quartile spread, (Q3 - Q1) / median with the
quartiles `statistics.quantiles(values, n=4)` gives, beside the metric's
bound. Metrics with unit `count` must read the same in every run; the
script flags any that do not. It exits non-zero if a run fails or
reports incorrect outputs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect or operations failed")
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    print(f"| workload | metric | median | spread | bound | runs |")
    print(f"|---|---|---|---|---|---|")
    ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, wall = run_once(spec, workload, seed, args.trace)
            results.append(result)
            print(f"  {workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med, s = spread(values)
            bound = bounds.get(name)
            flag = ""
            if unit == "count" and len(set(values)) > 1:
                flag = " (count varies!)"
                ok = False
            elif bound is not None and name != "setup_s" and s > bound:
                flag = " (over bound!)"
                ok = False
            print(
                f"| {workload} | {name} | {med:.4g} {unit} | {100 * s:.1f}%{flag} "
                f"| {'' if bound is None else f'{100 * bound:.0f}%'} | {len(values)} |"
            )
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
