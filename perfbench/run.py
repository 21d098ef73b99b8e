#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fit_cold --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark into .bench_build/ (Release); later runs only
re-check the build. Build output goes to stderr; the benchmark's last stdout
line is the JSON result. Exits non-zero when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no repository sources next to the benchmark",
              file=sys.stderr)
        return False
    cmake = shutil.which("cmake")
    if cmake is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
