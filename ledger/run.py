#!/usr/bin/env python3
"""Build the ledger benchmark from source and run one workload.

Run from the root of a checkout:

    python3 ledger/run.py --workload paper_flow --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/ledger (Release). Build output goes to
stderr, so the last line of stdout is the ledger's result object. Exits
non-zero, printing no result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "ledger")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "ledger", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("ledger: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "ledger")
    try:
        return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("ledger: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
