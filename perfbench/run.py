#!/usr/bin/env python3
"""Builds and runs the simulator benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fig11-suite --seed 1 --seconds 10 --trace 0

The perfbench program is configured and built from source on first use, in
.bench_build/perfbench; later runs only re-check the build.  Build output goes to stderr.  The program's stdout is
passed through; its last line is the JSON result.  --record rewrites the
workload's reference file for the given seed's input set instead of checking
against it.
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs a build step with its output sent to stderr; exits on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "sim", "machine.h")):
        fail("simulator sources (src/) not found; run from the repository root")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", build_dir, "-j", "4"], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig11-suite", "replay-local", "build-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    build_dir = os.path.join(".bench_build", "perfbench")
    binary = build(root, build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--refs", os.path.join(root, "perfbench", "reference"), "--out", out_dir]
    if args.record:
        cmd.append("--record")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        sys.exit(1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
