#!/usr/bin/env python3
"""Entry point of the abclsim benchmark.

    python3 abclbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 abclbench/run.py --selftest

Run from the root of a checkout. Builds abclbench/ (which compiles the
library from ../src) into .bench_build/abclbench with CMake in Release
mode, then runs the abclbench binary with the same arguments. Build output
goes to stderr, so the last line of stdout is the binary's JSON result.
Traced runs write their Chrome trace into .bench_build/abclbench/out.
Exits non-zero, printing no result, when the build fails -- for instance in
a directory that holds the benchmark but not the library sources.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "abclbench")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "abclbench")
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", BUILD, "--target", "abclbench", "-j", jobs]

    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode == 0

    # Configure only when the build tree is missing or broken; an up-to-date
    # tree makes the build step a fraction of a second.
    if not step(make) and not (step(configure) and step(make)):
        sys.exit("abclbench: build failed")


def main():
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY] + sys.argv[1:] + ["--out", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("abclbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        # A crashed run counts as every check failed.
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
        sys.exit("abclbench: benchmark exited with code %d" % proc.returncode)


if __name__ == "__main__":
    main()
