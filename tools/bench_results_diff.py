#!/usr/bin/env python3
"""Checks that two coverpack_bench result files carry identical results.

    tools/bench_results_diff.py A.json B.json [--strip-prefix P]...

Wall time is the only thing two runs of the same experiments may differ
in, so both files are canonicalized before comparing: `wall_ms`,
`wall_ms_serial`, `speedup` and every metrics `timers` section are
zeroed, and the run-level `faults` and `base_seed` stamps are dropped.
Each --strip-prefix also drops every counter, gauge and histogram whose
key starts with P (e.g. `fault.` and `recovery.` when one side ran under
fault injection). Exits 1 naming the first experiment that differs, or
when either file selected no experiments; exits 0 when they match.
"""

import argparse
import json
import sys


def canonical(path, strip_prefixes):
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("count", 0) == 0:
        sys.exit(f"{path}: no experiments selected (count == 0)")
    doc.pop("faults", None)
    doc.pop("base_seed", None)
    for result in doc["results"]:
        for key in ("wall_ms", "wall_ms_serial", "speedup"):
            if key in result:
                result[key] = 0
        metrics = result.get("metrics", {})
        metrics["timers"] = {}
        for section in ("counters", "gauges", "histograms"):
            values = metrics.get(section, {})
            for key in [k for k in values if k.startswith(tuple(strip_prefixes))]:
                del values[key]
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--strip-prefix", action="append", default=[], metavar="P",
                        help="drop metrics whose key starts with P (repeatable)")
    args = parser.parse_args()

    a = canonical(args.a, args.strip_prefix)
    b = canonical(args.b, args.strip_prefix)
    if a == b:
        print(f"{args.a} and {args.b}: {a['count']} experiments, identical")
        return 0
    ids_a = [r.get("id") for r in a["results"]]
    ids_b = [r.get("id") for r in b["results"]]
    if ids_a != ids_b:
        print(f"experiment lists differ: {ids_a} vs {ids_b}", file=sys.stderr)
        return 1
    for result_a, result_b in zip(a["results"], b["results"]):
        if result_a != result_b:
            print(f"experiment {result_a.get('id')} differs", file=sys.stderr)
            return 1
    print("top-level fields differ", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
