#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper|fleet|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --test      # build and run the helper tests

Run it from the repository root. It configures perfbench/ with CMake in
$CARGO_TARGET_DIR (default .bench_build) under the root, builds the
benchmark program from the sources in src/, and runs it. The program
prints one JSON line of metrics as the last line of standard output;
build output goes to standard error. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["paper", "fleet", "serve"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the helper tests instead")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no program sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2

    binary = build("perfbench_tests" if args.test else "perfbench")
    if binary is None or not os.path.isfile(binary):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.test:
        return subprocess.run([binary]).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.dirname(binary)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
