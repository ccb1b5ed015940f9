#!/usr/bin/env python3
"""Runs coverpack_bench once and checks how it exits.

    bench_flag_check.py BINARY EXIT MESSAGE [--creates FILE] -- ARGS...

Passes when BINARY, run with ARGS, exits with status EXIT and MESSAGE
occurs in its stderr (an empty MESSAGE matches anything). With --creates,
FILE is removed before the run and must exist after it.
"""

import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binary")
    parser.add_argument("exit", type=int)
    parser.add_argument("message")
    parser.add_argument("--creates", metavar="FILE")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    options = parser.parse_args(argv[:split])
    args = argv[split + 1:]

    if options.creates and os.path.exists(options.creates):
        os.remove(options.creates)
    run = subprocess.run([options.binary, *args], stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True, timeout=120)
    failures = []
    if run.returncode != options.exit:
        failures.append(f"exit status {run.returncode}, expected {options.exit}")
    if options.message not in run.stderr:
        failures.append(f"stderr lacks {options.message!r}")
    if options.creates and not os.path.exists(options.creates):
        failures.append(f"{options.creates} was not written")
    if failures:
        print(f"coverpack_bench {' '.join(args)}: " + "; ".join(failures), file=sys.stderr)
        print(run.stderr, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
