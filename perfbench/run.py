#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to stderr. The last line
of stdout is the benchmark's JSON result: for --trace 0 each metric is the
median over PROCESSES benchmark processes, for --trace 1 one process's figures.
See perfbench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
# An untraced run is split over this many processes, each measuring its
# share of --seconds, and reports each metric's median over them: on the
# 4-core VM the benchmark was tuned on, one process runs up to 15% faster
# or slower than the next, for its whole life.
PROCESSES = 5


def build(build_dir):
    """Configure and build the perfbench binary; returns its path."""
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_prove", "fast_compile", "serve_edits"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        exe = build(os.path.join(build_root, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # A traced run stays one process, so its attribution adds up exactly.
    processes = 1 if args.trace == "1" else PROCESSES
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for _ in range(processes):
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / processes), "--trace", args.trace]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            return proc.returncode
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": statistics.median(r["metrics"][name]["value"]
                                                      for r in results),
                           "unit": m["unit"]}
                    for name, m in results[0]["metrics"].items()},
    }
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
