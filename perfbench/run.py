#!/usr/bin/env python3
"""Build and run the two-clock benchmark.

    python3 perfbench/run.py --workload syscall_dense|remote_reseed|fleet_swarm \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds perfbench/ (which
compiles the simulator from src/) into $CARGO_TARGET_DIR, default .bench_build,
then runs the `twoclock` binary. Build output goes to stderr; the binary's report
goes to stdout and its last line is the JSON result. The exit code is the
binary's: 0 when every correctness check passed, non-zero otherwise. With
--trace 1 the spans of the traced reps are written to
<build dir>/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("syscall_dense", "remote_reseed", "fleet_swarm")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "twoclock", "-j", "4"],
        stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.exists(os.path.join(root, "src", "sim", "simulator.h")):
        fail(f"simulator sources not found under {root}/src")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(bench_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [os.path.join(build_dir, "twoclock"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
