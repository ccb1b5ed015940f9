#!/usr/bin/env python3
"""perf_smoke: runs every benchmark workload briefly, untraced and traced.

Each run uses coverpack_perf --smoke at the pinned seed; the workloads run
side by side, each in its own process. The test fails when any operation
fails (wrong result or load fingerprint), or when the metric names a run
emits differ from the ones BENCHMARK.json declares for its mode.
"""

import argparse
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def check_workload(args, benchmark, workload):
    """Runs one workload untraced, then traced; returns (lines, problems)."""
    lines, problems = [], []
    for traced in (False, True):
        stem = Path(args.workdir) / f"{workload}-trace{int(traced)}"
        command = [args.binary, f"--workload={workload}", "--seed=1", "--smoke",
                   f"--expected={args.expected}", f"--out={stem}.json"]
        if traced:
            command.append(f"--trace={stem}.trace.json")
        run = subprocess.run(command, stdout=subprocess.DEVNULL)
        label = f"{workload} ({'traced' if traced else 'untraced'})"
        if run.returncode != 0:
            problems.append(f"{label}: exit status {run.returncode}")
            continue
        result = json.loads(Path(f"{stem}.json").read_text())
        if not result["pinned"]:
            problems.append(f"{label}: no pinned fingerprints for seed 1")
        if result["error_rate"] != 0:
            problems.append(f"{label}: error_rate {result['error_rate']}: {result['errors']}")
        declared = {m["name"] for m in benchmark["per_layer" if traced else "end_to_end"]}
        emitted = set(result["metrics"])
        if emitted != declared:
            problems.append(f"{label}: metrics missing {sorted(declared - emitted)}, "
                            f"undeclared {sorted(emitted - declared)}")
        lines.append(f"{label}: {result['attempted']} ops, {len(emitted)} metrics")
    return lines, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--expected", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    benchmark = json.loads(Path(args.benchmark).read_text())
    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    workloads = [w["name"] for w in benchmark["workloads"]]
    with ThreadPoolExecutor(max_workers=len(workloads)) as pool:
        outcomes = list(pool.map(lambda w: check_workload(args, benchmark, w), workloads))
    problems = []
    for lines, workload_problems in outcomes:
        print("\n".join(lines))
        problems += workload_problems
    for problem in problems:
        print(f"FAIL {problem}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
