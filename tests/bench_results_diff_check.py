#!/usr/bin/env python3
"""Runs tools/bench_results_diff.py on two crafted result files.

    bench_results_diff_check.py TOOL CASE

CASE `differing`: the files differ in two of three experiments; passes
when the tool exits 1 and names both, each with its first differing key
path and both values, and does not name the third. CASE `identical`: the
files differ only in what the tool ignores (timers, wall times, the
threads stamp); passes when the tool exits 0.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def result(experiment_id, scopes, max_load):
    return {
        "id": experiment_id,
        "verdict": "SHAPE-REPRODUCED",
        "wall_ms": 12.5,
        "threads": 4,
        "metrics": {
            "counters": {"memory.arena_scopes": scopes, "exchange.rounds": 3},
            "gauges": {"core.max_load": max_load},
            "histograms": {},
            "timers": {"exchange.route_ms": 1.25},
        },
    }


def main():
    tool, case = sys.argv[1], sys.argv[2]
    a = {"count": 3, "threads": 4, "base_seed": 1,
         "results": [result("fig2_box_join", 40, 100),
                     result("output_sensitivity", 632, 7),
                     result("thm5_optimal", 12, 9)]}
    b = copy.deepcopy(a)
    b["threads"] = 1
    for r in b["results"]:
        r["wall_ms"] = 99.0
        r["metrics"]["timers"]["exchange.route_ms"] = 7.5
    if case == "differing":
        b["results"][1]["metrics"]["counters"]["memory.arena_scopes"] = 128
        b["results"][2]["metrics"]["gauges"]["core.max_load"] = 10
        want_exit = 1
        want_lines = ["output_sensitivity: metrics.counters.memory.arena_scopes 632 vs 128",
                      "thm5_optimal: metrics.gauges.core.max_load 9 vs 10"]
    elif case == "identical":
        want_exit = 0
        want_lines = []
    else:
        sys.exit(f"unknown case {case!r}")

    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("a.json", "b.json")]
        for path, doc in zip(paths, (a, b)):
            with open(path, "w") as handle:
                json.dump(doc, handle)
        run = subprocess.run([sys.executable, tool, *paths], capture_output=True, text=True,
                             timeout=60)
    failures = []
    if run.returncode != want_exit:
        failures.append(f"exit status {run.returncode}, expected {want_exit}")
    lines = run.stderr.splitlines()
    failures += [f"stderr lacks {line!r}" for line in want_lines if line not in lines]
    if "fig2_box_join" in run.stderr:
        failures.append("names fig2_box_join, which does not differ")
    if failures:
        print(f"bench_results_diff.py, case {case}: " + "; ".join(failures), file=sys.stderr)
        print(run.stdout + run.stderr, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
