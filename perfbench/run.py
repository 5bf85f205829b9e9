#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench (and the
simulator libraries from src/) in Release mode under the directory named
by $CARGO_TARGET_DIR, else .bench_build, then runs it with the same
arguments. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero without a result when the build
or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "perfbench")]
                          + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
