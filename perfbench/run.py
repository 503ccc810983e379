#!/usr/bin/env python3
"""Build and run the host ATM pipeline benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Configures and builds perfbench/ (which
builds ../src, unchanged) in Release under .bench_build/perfbench, then
runs the benchmark binary once. The last line of standard output is the
result JSON; build output, check failures and the reference figures go to
standard error. A traced run (--trace 1) also writes its spans to
.bench_build/perfbench/spans/<workload>-seed<N>.jsonl.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "atm_perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "atm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--trace")
    known, _ = parser.parse_known_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY] + sys.argv[1:]
    if known.trace == "1" and known.workload:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{known.workload}-seed{known.seed}.jsonl")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
