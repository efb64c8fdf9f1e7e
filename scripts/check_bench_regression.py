#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a committed baseline.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--counter NAME]
       [--tolerance FRACTION]

Fails (exit 1) if any benchmark present in both files regressed by more
than --tolerance (default 0.20, i.e. 20%) on --counter (default
flits_per_sec).  A run made with --benchmark_repetitions=N holds N
iteration rows per benchmark name; each side is judged by the median of
its rows (aggregate rows are ignored).  Benchmarks missing from either side
are reported but do not fail the run — grids may grow between PRs.  Stdlib
only; CI-friendly.
"""

import argparse
import json
import statistics
import sys


def load_counters(path, counter):
    """Median of `counter` over the iteration rows of each benchmark name."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = {}
    for row in doc.get("benchmarks", []):
        name = row.get("name")
        if name is None or row.get("run_type") == "aggregate":
            continue
        value = row.get(counter)
        if isinstance(value, (int, float)):
            rows.setdefault(name, []).append(float(value))
    return {name: statistics.median(values) for name, values in rows.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--counter", default="flits_per_sec")
    parser.add_argument("--tolerance", type=float, default=0.20)
    args = parser.parse_args()

    base = load_counters(args.baseline, args.counter)
    cur = load_counters(args.current, args.counter)
    if not base:
        print(f"error: no '{args.counter}' counters in {args.baseline}")
        return 1

    failed = []
    for name in sorted(base):
        if name not in cur:
            print(f"  MISSING  {name} (in baseline only)")
            continue
        b, c = base[name], cur[name]
        ratio = c / b if b else float("inf")
        verdict = "ok"
        if ratio < 1.0 - args.tolerance:
            verdict = "REGRESSED"
            failed.append(name)
        print(f"  {verdict:9s} {name}: {b:.3e} -> {c:.3e} ({ratio:.2f}x)")
    for name in sorted(set(cur) - set(base)):
        print(f"  NEW      {name}: {cur[name]:.3e}")

    if failed:
        print(f"{len(failed)} benchmark(s) regressed more than "
              f"{args.tolerance:.0%} on {args.counter}")
        return 1
    print(f"all shared benchmarks within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
