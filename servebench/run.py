#!/usr/bin/env python3
"""Builds and runs the prefrep serving benchmark.

Run from the repository root:

    python3 servebench/run.py --workload warm_reads --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --selftest

The first call configures and builds the library and the benchmark in
Release mode under $CARGO_TARGET_DIR/servebench (default
.bench_build/servebench); later calls rebuild only what changed. The
benchmark's report goes to stdout; its last line is one JSON object with the
fields correct, attempted, failed and metrics. The exit status is the
benchmark's: 0 when every checked answer was right. A failed build exits
with status 3 and prints no result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "servebench")


def run_quiet(cmd, timeout):
    """Runs a build step; on failure shows its output on stderr."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-8000:])
    return proc.returncode == 0


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true",
                        help="run the harness self-tests instead")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        if not build():
            sys.stderr.write("servebench: build failed\n")
            return 3
    except subprocess.TimeoutExpired:
        sys.stderr.write("servebench: build timed out\n")
        return 3

    out = build_dir()
    if args.selftest:
        cmd = [os.path.join(out, "servebench_selftest")]
    else:
        cmd = [os.path.join(out, "servebench"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace]
        if args.trace == "1":
            cmd += ["--trace-out",
                    os.path.join(out, "spans-%s-%s.jsonl" % (args.workload,
                                                             args.seed))]
    sys.stdout.flush()
    try:
        # Inherits stdout: the benchmark's last line stays the last line.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("servebench: run timed out\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
