#!/usr/bin/env python3
"""Builds and runs the end-to-end partitioning benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (and the library layers it
drives, from src/) into .bench_build/ with CMake in Release mode; later runs
only check the build is current. Build output goes to stderr. The benchmark
binary's output is passed through unchanged: its last stdout line is the
JSON result. Exits non-zero, without a result, when the build or the run
fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
# e2e_bench measures for at most MAX_SECONDS. Set-up (three input
# generations), the checks and the last job's overrun take well under
# RUN_ALLOWANCE_S on top; the timeout only catches a hung run, and keeps
# even a MAX_SECONDS run under three minutes.
MAX_SECONDS = 60
RUN_ALLOWANCE_S = 110


def build():
    binary = os.path.join(BUILD_DIR, "e2e_bench")
    if not os.path.exists(binary):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "e2e_bench", "-j", "4"],
        stdout=sys.stderr, check=True)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be between 1 and {MAX_SECONDS}")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", WORK_DIR]
    timeout_s = args.seconds + RUN_ALLOWANCE_S
    try:
        return subprocess.run(cmd, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {timeout_s} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
