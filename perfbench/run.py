#!/usr/bin/env python3
"""Build the campaign benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chaos|stream|guarded --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The simulator's libraries are built from ../src together with the
benchmark into .bench_build/perfbench (build output goes to standard
error). The benchmark's own output, whose last line is the JSON result,
goes to standard output; the exit status is the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources at src/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    if argv == ["--self-test"]:
        if not build("perfbench_selftest"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if not build("campaign_bench"):
        return 2
    sys.stdout.flush()
    cmd = [os.path.join(BUILD, "campaign_bench")] + argv + ["--work-dir", BUILD]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
