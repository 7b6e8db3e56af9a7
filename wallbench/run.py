#!/usr/bin/env python3
"""Build the wall-clock benchmark from source and run one workload.

Run from the repository root:

    python3 wallbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

The first run configures and builds wallbench/ (which compiles ../src) into
.bench_build/wallbench; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
The exit code is the benchmark's: 0 when every check passed, 1 when an
operation failed its check, 2 when the build or the run could not proceed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wallbench")
WORKLOADS = ("ingest", "ingest_bulk")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int, choices=range(1, 61),
                        metavar="1..60")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("platform sources (src/) not found next to wallbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "wallbench", "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "wallbench")


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"wallbench: build failed: {e}", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"wallbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
