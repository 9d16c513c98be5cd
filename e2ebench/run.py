#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout and run one workload.

    python3 e2ebench/run.py --workload small-hot --seed 1 --seconds 20 --trace 0

The first call configures and builds e2ebench/ (the trico library, the
trico_cli worker and bench_e2e) into .bench_build/ at the checkout root;
later calls rebuild incrementally. Build output goes to stderr. The bench
then runs the workload for --seconds: with --trace 0 its last stdout line
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run, whose spans land in .bench_build/results/. Every result is also
merged into .bench_build/results/e2e.jsonl for compare.py.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(BUILD, "results")
PR_SET_CHILD_SUBREAPER = 36


def bench_timeout_s(seconds):
    """Input generation, five cluster launches, a measured window that may
    run on to its OK-request floor, and a traced run's replay."""
    return 60 + 3 * seconds


def build():
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "--parallel", "4"], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        # bench_e2e prints a result line only for a single workload.
        parser.error("--workload takes one workload name")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    os.makedirs(RESULTS, exist_ok=True)
    command = [os.path.join(BUILD, "bench_e2e"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--duration-s", str(args.seconds),
               "--scratch", os.path.join(BUILD, "scratch"),
               "--out", os.path.join(RESULTS, "e2e.jsonl")]
    if args.trace:
        command += ["--trace", os.path.join(
            RESULTS, f"spans-{args.workload}-{args.seed}.jsonl")]
    # Processes the bench leaves behind if it dies (its coordinator and
    # workers) reparent here, so they can be waited for.
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1)
    # Its own process group, so a timeout stops the coordinator and the
    # workers along with the bench.
    bench = subprocess.Popen(command, start_new_session=True)
    try:
        code = bench.wait(timeout=bench_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        print("run.py: bench timed out", file=sys.stderr)
        os.killpg(bench.pid, signal.SIGTERM)
        code = 1
    reap_all(bench.pid)
    return code


def reap_all(group):
    """Waits for every remaining child; SIGKILLs the group after 30 s."""
    deadline = time.monotonic() + 30
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                try:
                    os.killpg(group, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
