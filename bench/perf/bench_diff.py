#!/usr/bin/env python3
"""Compares two sets of coverpack_perf result files.

    python3 bench/perf/bench_diff.py --base RESULTS... [--new RESULTS...]

Each RESULTS is a result file written by `coverpack_perf --out` (run.py
leaves them in .bench_build/perf/results/) or a directory of them; trace
span files (*.trace.json) are skipped. Every file is one run, so give a side
several runs, ideally with different seeds.

Per workload it prints, for each end-to-end metric of BENCHMARK.json, each
side's median and quartiles over its untraced runs, the change of the
median, and a verdict against the metric's bound:

  ok          the new median is not worse than the base by more than the bound
  REGRESSED   it is worse by more than the bound
  unresolved  a side's spread (quartile distance over median) is wider than
              the bound, so the runs cannot tell; unless every new run beats
              every base run, which reads "better"

Then the per-layer medians of the traced runs (no bounds) and their change,
the trace overhead of each side (traced op p50 over untraced op p50), and
the per-experiment times of paper_suite. With only --base it prints that
side's medians and spreads: the numbers recorded as the baseline.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(paths):
    """(workload, traced) -> list of result dicts."""
    runs = defaultdict(list)
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            if file.name.endswith(".trace.json"):
                continue
            result = json.loads(file.read_text())
            runs[(result["workload"], bool(result["trace"]))].append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def metric_values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def detail_values(results, name):
    return [r["detail"][name] for r in results if name in r["detail"]]


def fmt(value):
    return f"{value:.4g}"


def verdict(base, new, better, bound):
    base_median = quartiles(base)[1]
    change = (quartiles(new)[1] - base_median) / base_median if base_median else 0.0
    worse = change if better == "lower" else -change
    if max(spread(base), spread(new)) > bound:
        beats = min(new) > max(base) if better == "higher" else max(new) < min(base)
        return "better" if beats else "unresolved"
    return "REGRESSED" if worse > bound else "ok"


def print_end_to_end(workload, base_runs, new_runs, benchmark):
    print(f"\n== {workload}: end to end ({len(base_runs)} base runs"
          + (f", {len(new_runs)} new runs)" if new_runs else ")"))
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        base = metric_values(base_runs, name)
        if not base:
            continue
        q1, median, q3 = quartiles(base)
        line = (f"  {name:<14} base {fmt(median)} [{fmt(q1)}, {fmt(q3)}] "
                f"spread {spread(base):.1%}")
        new = metric_values(new_runs, name)
        if new:
            n1, new_median, n3 = quartiles(new)
            change = (new_median - median) / median if median else 0.0
            line += (f" | new {fmt(new_median)} [{fmt(n1)}, {fmt(n3)}] "
                     f"spread {spread(new):.1%} | {change:+.1%} "
                     f"{verdict(base, new, metric['better'], metric['bound'])}"
                     f" (bound {metric['bound']:.0%})")
        print(f"{line} {metric['unit']}")


def print_per_layer(workload, base_runs, new_runs, benchmark):
    print(f"== {workload}: per layer ({len(base_runs)} base traced runs"
          + (f", {len(new_runs)} new)" if new_runs else ")"))
    for metric in benchmark["per_layer"]:
        name = metric["name"]
        base = metric_values(base_runs, name)
        if not base:
            continue
        median = statistics.median(base)
        line = f"  {name:<36} base {fmt(median)}"
        new = metric_values(new_runs, name)
        if new:
            new_median = statistics.median(new)
            change = (new_median - median) / median if median else 0.0
            line += f" | new {fmt(new_median)} | {change:+.1%}"
        print(f"{line} {metric['unit']}")


def print_overhead(workload, side, runs):
    plain = metric_values(runs[(workload, False)], "op_ms_p50")
    traced = metric_values(runs[(workload, True)], "trace.op_ms_p50")
    if plain and traced:
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        print(f"  {side} trace overhead on op_ms_p50: {overhead:+.1%}")


def print_experiments(base_runs, new_runs):
    names = sorted({k for r in base_runs for k in r["detail"]
                    if k.startswith("suite.") and k.endswith("_ms")})
    if names:
        print("== paper_suite: per experiment (untraced runs)")
    for name in names:
        median = statistics.median(detail_values(base_runs, name))
        line = f"  {name:<36} base {fmt(median)}"
        new = detail_values(new_runs, name)
        if new:
            new_median = statistics.median(new)
            line += f" | new {fmt(new_median)} | {(new_median - median) / median:+.1%}"
        print(f"{line} ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", default=[])
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    benchmark = json.loads(Path(args.benchmark).read_text())
    base = load(args.base)
    new = load(args.new)
    if not base:
        sys.exit("bench_diff.py: no result files on the base side")
    for workload in (w["name"] for w in benchmark["workloads"]):
        if base[(workload, False)]:
            print_end_to_end(workload, base[(workload, False)], new[(workload, False)], benchmark)
        if base[(workload, True)]:
            print_per_layer(workload, base[(workload, True)], new[(workload, True)], benchmark)
        print_overhead(workload, "base", base)
        if new:
            print_overhead(workload, "new", new)
        if workload == "paper_suite":
            print_experiments(base[(workload, False)], new[(workload, False)])


if __name__ == "__main__":
    main()
