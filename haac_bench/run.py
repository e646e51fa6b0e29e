#!/usr/bin/env python3
"""Build haac_bench from this source tree and run one benchmark.

Usage (from the root of the repository):

    python3 haac_bench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

The library and the benchmark are built as a Release CMake project in
`.bench_build/` at the root of the tree (the first run builds, later runs
only check that the build is current). Build output goes to stderr; the
benchmark's own output, whose last line is the JSON result, goes to
stdout. Without the repository's sources next to this directory the
build fails and the script exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "haac_bench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "haac_bench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    # Replace this process: the benchmark's exit code is the result.
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
