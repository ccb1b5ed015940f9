#!/usr/bin/env python3
"""Builds coverpack_perf from source and runs one benchmark workload.

Usage, from the root of a checkout:

    python3 bench/perf/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds bench/perf (a CMake project that
compiles the library from src/) under .bench_build/perf; later calls only
re-check the build. The run's full result file lands in
.bench_build/perf/results/, and the last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics are the
end-to-end metrics of BENCHMARK.json without --trace 1 and its per-layer
metrics with it. Exits non-zero, printing no result, when the build, the
run, or the metric names fail.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build" / "perf"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # A generated build file exists only after a configure that succeeded.
    if not any((BUILD / name).exists() for name in ("Makefile", "build.ninja")):
        configure = ["cmake", "-S", str(ROOT / "bench" / "perf"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring bench/perf failed")
    command = ["cmake", "--build", str(BUILD), "--target", "coverpack_perf", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("building coverpack_perf failed")
    return BUILD / "coverpack_perf"


def declared_metrics(traced):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in benchmark["per_layer" if traced else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    traced = args.trace == 1

    binary = build()
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = results / f"{stem}.json"
    command = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--out={out}",
               f"--expected={ROOT / 'bench' / 'perf' / 'expected.json'}"]
    if traced:
        command.append(f"--trace={results / (stem + '.trace.json')}")
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"coverpack_perf did not finish within {RUN_TIMEOUT_S} s")
    if completed.returncode != 0:
        fail(f"coverpack_perf exited with {completed.returncode}")

    result = json.loads(out.read_text())
    metrics = result["metrics"]
    declared = declared_metrics(traced)
    if sorted(metrics) != sorted(declared):
        fail(f"emitted metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(declared)}")
    sys.stdout.flush()
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in declared},
    }))


if __name__ == "__main__":
    main()
