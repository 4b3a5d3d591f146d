#!/usr/bin/env python3
"""Build and run the hlsc benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload synth_dsp --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe (and the libraries it links) with dune into
.bench_build/, then runs it with the given arguments. The last line of
standard output is the run's JSON result. Exits non-zero, without a
result, when the checkout cannot be built or the run fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 175


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(3)


def build():
    if not os.path.isfile("dune-project"):
        fail("no dune-project here; run from the root of a checkout")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")
    return os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    exe = build()
    scratch = os.path.join(BUILD_DIR, "perfbench-run")
    cmd = [exe] + sys.argv[1:] + ["--scratch", scratch]
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
