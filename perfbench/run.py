#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

  python3 perfbench/run.py --workload fwd-min --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --self-check

The first call configures and builds perfbench/ (the libraries from src/
plus the benchmark binary) into .bench_build/ at the repository root; later
calls only rebuild what changed. The binary's stdout is passed through, so
the last line is the JSON result. --self-check runs every workload on a
tiny budget, traced and untraced, and checks its outputs and metric names
against BENCHMARK.json.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["fwd-min", "cm-attack", "reprogram"]
# The binary bounds itself (a watchdog ends a wedged parallel segment);
# this only guards against a hang elsewhere.
SLACK_S = 120


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "np", "mpsoc.hpp")):
        sys.stderr.write("perfbench: repository sources (src/) not found\n")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed\n")
            return False
    return True


def run_binary(workload, seed, seconds, trace, quick=False, capture=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--keys", os.path.join(HERE, "keys")]
    if trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        # One file per workload, overwritten by each traced run.
        cmd += ["--spans-out", os.path.join(spans_dir, workload + ".jsonl")]
    if quick:
        cmd.append("--quick")
    try:
        return subprocess.run(cmd, timeout=seconds + SLACK_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return None


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            before = len(problems)
            proc = run_binary(workload, 1, 1, trace, quick=True, capture=True)
            if proc is None or proc.returncode != 0:
                problems.append("%s: exit %s" % (
                    label, None if proc is None else proc.returncode))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: output check failed" % label)
            if set(metrics) != expected[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: %s" %
                                (label, sorted(set(metrics) ^ expected[trace])))
            for name, m in metrics.items():
                v = m["value"]
                if not math.isfinite(v) or (trace == 0 and v <= 0):
                    problems.append("%s: %s = %r" % (label, name, v))
            print("%-24s %s" % (label, "ok" if len(problems) == before
                                else "FAIL"))
    for p in problems:
        print("FAIL " + p)
    print("self-check %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_check:
        return self_check()
    proc = run_binary(args.workload, args.seed, args.seconds, args.trace)
    return 1 if proc is None else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
