#!/usr/bin/env python3
"""Check that the benchmark's deterministic figures repeat exactly.

    python3 perfbench/check_anchors.py [--strict | --update]

For the default and the held-out seed in anchors.json, runs every workload
twice untraced and twice traced (one pass each), and fails when a
deterministic figure -- makespan and code-size sums, solver and heuristic
counters, cache-outcome ratios -- differs between the two runs. Drift from
the anchors recorded in anchors.json is reported; --strict fails on it,
--update records the current figures instead.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ANCHORS = os.path.join(HERE, "anchors.json")
WORKLOADS = ["paper_prove", "fast_compile", "serve_edits"]
EXACT = {
    "0": ["makespan_cycles_sum", "code_bytes_sum"],
    "1": ["dsl.ir_nodes", "ir.nodes_removed", "codegen.bytes", "sim.cycles", "sim.reconfigs",
          "heur.rungs_tried", "heur.rung_ok_ratio", "cp.nodes", "cp.failures",
          "cp.cutoff_prunes", "cp.propagations", "cp.wakeups", "cp.trail_bytes",
          "cp.prop_useful_ratio", "cp.proven_ratio", "pipeline.modulo_ii", "inputs.known_bad",
          "heur.adapt_ok_ratio", "svc.hit_ratio", "svc.near_ratio", "svc.miss_ratio",
          "svc.shed_ratio"],
}


def run(workload, seed, trace):
    """One shortest run (a single pass of each kind); returns its exact figures."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", trace]
    out = subprocess.run(cmd, cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run not correct: {result['failed']} failed")
    return {k: result["metrics"][k]["value"] for k in EXACT[trace]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true", help="fail on drift from anchors.json")
    mode.add_argument("--update", action="store_true", help="record the current figures")
    args = parser.parse_args()

    with open(ANCHORS) as f:
        doc = json.load(f)
    ok = True
    drift = False
    for seed in (doc["default_seed"], doc["held_out_seed"]):
        for workload in WORKLOADS:
            figures = {}
            for trace in ("0", "1"):
                first, second = run(workload, seed, trace), run(workload, seed, trace)
                for key, value in first.items():
                    if second[key] != value:
                        print(f"FAIL {workload} seed {seed}: {key} {value} then {second[key]}")
                        ok = False
                figures.update(first)
            recorded = doc["anchors"].setdefault(str(seed), {}).setdefault(workload, {})
            for key, value in figures.items():
                if recorded.get(key) != value:
                    print(f"drift {workload} seed {seed}: {key} anchored {recorded.get(key)}, "
                          f"now {value}")
                    drift = True
            if args.update:
                doc["anchors"][str(seed)][workload] = figures
            print(f"{workload} seed {seed}: checked {len(figures)} figures")
    if args.update:
        with open(ANCHORS, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    if not ok or (drift and args.strict):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
