#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 simbench/run.py --workload sdbp-llc [--seed N] [--seconds S]
                            [--trace 0|1]
    python3 simbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/simbench (default
.bench_build/simbench under the repository root); run output (sweep
manifests, span traces) to its out/ subdirectory.  The last line of
stdout is the run's JSON result.  See simbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sdbp-llc", "cache-resident", "quad-shared", "sweep-fanout")
# One run measures for --seconds and then checks its outputs; the
# slowest workload needs well under a minute past its measuring time.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "simbench")


def build(bdir):
    """Configure (once) and build; build logs go to stderr."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("simbench: build failed: " + " ".join(cmd))


def child_env():
    # The library reads SDBP_* variables (instruction budgets, fault
    # injection, span tracing, scalar kernels); none may leak into a
    # measurement.
    return {k: v for k, v in os.environ.items() if not k.startswith("SDBP_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    bdir = build_dir()
    build(bdir)
    out = os.path.join(bdir, "out")
    os.makedirs(out, exist_ok=True)

    if args.selftest:
        cmd = [os.path.join(bdir, "simbench_selftest"), "--out", out]
    else:
        cmd = [os.path.join(bdir, "simbench"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("simbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    if proc.returncode:
        sys.exit("simbench: %s exited with %d" % (cmd[0], proc.returncode))
    if args.selftest:
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("simbench: no result line")


if __name__ == "__main__":
    main()
