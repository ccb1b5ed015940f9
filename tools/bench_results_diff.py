#!/usr/bin/env python3
"""Checks that two coverpack_bench result files carry identical results.

    tools/bench_results_diff.py A.json B.json [--strip-prefix P]...

Wall time is the only thing two runs of the same experiments may differ
in, so both files are canonicalized before comparing: `wall_ms`,
`wall_ms_serial`, `speedup`, the `threads` stamp and every metrics
`timers` section are zeroed, and the run-level `faults`, `base_seed` and
`threads` stamps are dropped. (Results are bit-identical at any thread
count, so two runs at different --threads values compare equal.)
Each --strip-prefix also drops every counter, gauge and histogram whose
key starts with P (e.g. `fault.` and `recovery.` when one side ran under
fault injection). Exits 1 when the files differ, naming every experiment
that differs with its first differing key path and both values, e.g.
`output_sensitivity: metrics.counters.memory.arena_scopes 632 vs 128`;
exits 1 as well when either file selected no experiments, and 0 when
they match.
"""

import argparse
import itertools
import json
import sys

MISSING = object()  # a key or list item that one side lacks


def canonical(path, strip_prefixes):
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("count", 0) == 0:
        sys.exit(f"{path}: no experiments selected (count == 0)")
    for key in ("faults", "base_seed", "threads"):
        doc.pop(key, None)
    for result in doc["results"]:
        for key in ("wall_ms", "wall_ms_serial", "speedup", "threads"):
            if key in result:
                result[key] = 0
        metrics = result.get("metrics", {})
        metrics["timers"] = {}
        for section in ("counters", "gauges", "histograms"):
            values = metrics.get(section, {})
            for key in [k for k in values if k.startswith(tuple(strip_prefixes))]:
                del values[key]
    return doc


def first_difference(a, b, path=""):
    """The first (path, a value, b value) at which a and b differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        items = [(a.get(k, MISSING), b.get(k, MISSING), f"{path}.{k}" if path else str(k))
                 for k in {**a, **b}]
    elif isinstance(a, list) and isinstance(b, list):
        items = [(x, y, f"{path}[{i}]")
                 for i, (x, y) in enumerate(itertools.zip_longest(a, b, fillvalue=MISSING))]
    else:
        return None if a == b else (path, a, b)
    for item in items:
        found = first_difference(*item)
        if found:
            return found
    return None


def report(label, found):
    """Prints `label: path a vs b` for a first_difference result."""
    if found:
        path, a, b = found
        a, b = ("<missing>" if v is MISSING else json.dumps(v) for v in (a, b))
        print(f"{label}: {path} {a} vs {b}", file=sys.stderr)


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
        report(result_a.get("id"), first_difference(result_a, result_b))
    report("top-level fields differ",
           first_difference({**a, "results": None}, {**b, "results": None}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
