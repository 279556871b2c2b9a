#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite|fuzz|serve --seed N \
        --seconds S --trace 0|1

Configures and builds perfbench/ (the nachos libraries from src/ plus
the benchmark binary) in .bench_build/ as a Release build, then runs the
binary with the same arguments. Build output goes to stderr, so the last
line of stdout is the binary's JSON result. Exits non-zero, without a
result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
TARGET = "nachos_perfbench"
# Set-up, trial overrun and the final checks on top of --seconds.
RUN_MARGIN_S = 130


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", TARGET,
                    "-j", "3"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, TARGET)


def run_timeout(args):
    """--seconds plus RUN_MARGIN_S; the binary itself rejects a bad value."""
    try:
        seconds = int(args[args.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 0
    return max(seconds, 0) + RUN_MARGIN_S


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    timeout = run_timeout(sys.argv[1:])
    try:
        done = subprocess.run([binary] + sys.argv[1:], timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
