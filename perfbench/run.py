#!/usr/bin/env python3
"""Build the benchmark harness from this checkout and run one workload.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 5 --trace 0

Run from the root of the checkout. The harness is configured and built
into .bench_build/ (build output goes to stderr), then run with these
arguments unchanged; it parses and checks them itself, so a malformed flag
exits 2. Its last line on stdout is the JSON result. The exit code is the
harness's, or 1 when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configure once, then build the harness; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    harness = os.path.join(BUILD, "perfbench")
    return subprocess.run([harness] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
