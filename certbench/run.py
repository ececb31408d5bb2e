#!/usr/bin/env python3
"""Builds the certification-job benchmark (Release) and runs one workload.

    python3 certbench/run.py --workload catalog-cold --seed 1 --seconds 10 --trace 0
    python3 certbench/run.py --quick

Workloads: ticket-heavy, catalog-cold, catalog-warm.  The build goes to
.bench_build/certbench under the repository root and is reused by later
runs; build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "certbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"certbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout):
    proc = subprocess.Popen([str(c) for c in cmd], stdout=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        fail(f"command failed ({code}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no ccal sources under {ROOT / 'src'}; nothing to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout.
    with open(BUILD.parent / "certbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            run_checked(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        run_checked(["cmake", "--build", BUILD, "--target", "certbench",
                     "-j", jobs], BUILD_TIMEOUT_S)
    return BUILD / "certbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--quick", action="store_true",
                   help="run the benchmark's own verdict-check test")
    a = p.parse_args()
    if a.quick:
        args = ["--quick"]
    else:
        if a.workload is None or a.seed is None or a.seconds is None \
                or a.trace is None:
            fail("--workload, --seed, --seconds and --trace are required")
        args = ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", repr(a.seconds), "--trace", str(a.trace)]

    binary = build()
    proc = subprocess.Popen([str(binary)] + args, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"certbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
