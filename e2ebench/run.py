#!/usr/bin/env python3
"""Builds and runs the Graphitti end-to-end benchmark (e2ebench).

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload every_record --seed 1 --seconds 45 --trace 0

The engine and the benchmark are compiled from source into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); durable
directories and the trace file live under the same build directory. The
last line of standard output is the benchmark's JSON result. The exit
code is non-zero when the build, any operation or any answer check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds e2ebench; output goes to stderr."""
    source_dir = os.path.join(root, "e2ebench")
    if not os.path.isfile(os.path.join(root, "src", "core", "graphitti.h")):
        log("no engine sources under ./src; run from the root of a checkout")
        return None
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append([cmake, "--build", build_dir, "-j", "3"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("build timed out")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(build_dir, "e2ebench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "e2ebench")
    binary = build(root, build_dir)
    if binary is None:
        return 2

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        code = done.returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        code = 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
