#!/usr/bin/env python3
"""Builds and runs the CGraph benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one after another

Run from the repository root. The first run configures and builds the engine and the
benchmark into .bench_build/ (CMake, Ninja when available); later runs rebuild only
what changed. Before each workload the helper self-tests run. The last line of
standard output is the workload's JSON result; the exit status is non-zero when a
result disagrees with its reference, the build fails, or the engine sources are
missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["batch-heavy", "online-queries", "replay-async"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
# A run must end within 180 s; the binary is stopped well before that.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no engine sources next to {BENCH_DIR}; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "perfbench_selftest",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(command):
    """Runs a benchmark binary; returns (exit code, stdout)."""
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(command)} exceeded {RUN_TIMEOUT_S} s", 1)
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]")

    build()
    code, out = run([os.path.join(BUILD_DIR, "perfbench_selftest")])
    if code != 0:
        sys.stdout.write(out)
        fail("helper self-tests failed", 1)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in workloads:
        code, out = run([os.path.join(BUILD_DIR, "perfbench"), "--workload", name,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace)])
        lines = out.rstrip("\n").split("\n")
        if len(workloads) > 1:
            print(f"## {name}")
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
        else:
            sys.stdout.write(out)
        try:
            results[name] = json.loads(lines[-1])
        except (ValueError, IndexError):
            fail(f"{name}: no result line (exit {code})", 1)
        if code != 0 or not results[name].get("correct", False):
            results[name]["correct"] = False

    if len(workloads) > 1:
        print(json.dumps(results))
    sys.exit(0 if all(r["correct"] for r in results.values()) else 1)


if __name__ == "__main__":
    main()
