#!/usr/bin/env python3
"""Build tcbench from source and run one workload.

Usage (from the repository root):

    python3 tcbench/run.py --workload ingest|query|dashboard \
        --seed N --seconds S --trace 0|1

The first run configures and compiles the library sources and the
benchmark into .bench_build/tcbench (Release); later runs rebuild only what
changed. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tcbench")
RUN_TIMEOUT_S = 170


def checkout_env():
    """Environment whose temporary files (compiler scratch included) stay
    inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env)
        if result.returncode != 0:
            print("tcbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "query", "dashboard"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    env = checkout_env()
    if not build(env):
        return 1
    run_dir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    cmd = [os.path.join(BUILD_DIR, "tcbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--dir", run_dir]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print("tcbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
