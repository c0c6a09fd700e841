#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the igcn library through the repository's own
CMakeLists.txt) into .bench_build/perfbench, runs igcn_perfbench with
the same arguments, checks the shape of its result and prints it as the
last line of standard output. Build logs go to standard error. Exits
non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "igcn_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 350


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "igcn_perfbench", "-j", "4"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a non-negative integer")
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != names:
        raise ValueError("metrics %s differ from BENCHMARK.json %s"
                         % (sorted(result["metrics"]), sorted(names)))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("igcn_perfbench exited with %d"
                               % proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError("igcn_perfbench printed no result")
        result = check_result(lines[-1], args.trace)
    except (OSError, ValueError, RuntimeError,
            subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
