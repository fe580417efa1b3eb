#!/usr/bin/env python3
"""Check that the benchmark's modelled metrics repeat exactly across runs.

Accuracy, modelled energy and the compile counts are functions of the seed
alone, so two processes run with the same seed must report them bit for bit
equal; the host-time metrics are free to differ. Runs every workload twice
untraced and twice traced, and exits non-zero, naming every metric that
differed, if any did. Run from the repository root:

    python3 perfbench/check_determinism.py [--seed N] [--seconds S]
"""

import argparse
import json
import subprocess
import sys

# (trace mode, metric) pairs that must repeat exactly for a seed.
DETERMINISTIC = [
    (0, "mean_abs_error"),
    (0, "model_energy_nj"),
    (1, "sc_core.scc_abs_err"),
    (1, "sc_graph.compile.compiles_per_image"),
    (1, "sc_graph.compile.steps_per_plan"),
    (1, "sc_graph.compile.repairs_per_plan"),
    (1, "sc_image.planner.calls_per_image"),
]


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"FAILED: {workload} --trace {trace} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"FAILED: {workload} --trace {trace} reported incorrect output: {result}")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0)
    opts = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    mismatches = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            names = [name for mode, name in DETERMINISTIC if mode == trace]
            first = run(bench["command"], workload, opts.seed, opts.seconds, trace)
            second = run(bench["command"], workload, opts.seed, opts.seconds, trace)
            for name in names:
                a, b = first[name]["value"], second[name]["value"]
                status = "ok" if a == b else "DIFFERS"
                print(f"{workload:<16} {name:<38} {a!r:<24} {b!r:<24} {status}")
                if a != b:
                    mismatches.append(f"{workload} {name}: {a!r} then {b!r}")
    if mismatches:
        print("\nFAILED: deterministic metrics changed between runs with seed "
              f"{opts.seed}:\n  " + "\n  ".join(mismatches), file=sys.stderr)
        sys.exit(1)
    print(f"\nall deterministic metrics repeat exactly for seed {opts.seed}")


if __name__ == "__main__":
    main()
