#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values as a
share of their median, next to the bound BENCHMARK.json fixes for it.

Run from the repository root:

    python3 perfbench/spread.py --seeds 10 [--workload gbed_serve ...]

With `--seeds 1` it is the one command that prints every end-to-end metric
of every workload, by name and unit.

Exits non-zero when a run is incorrect or a spread (set-up time excepted)
exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: all)")
    parser.add_argument("--verbose", action="store_true", help="print every value")
    opts = parser.parse_args()
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values = {}
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            result = run(bench["command"], workload, seed, opts.seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect: {result}")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload} ({opts.seeds} seeds, {opts.seconds} s each)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bound / 3 else (" (over bound/3)" if spread <= bound else " OVER BOUND")
            if spread > bound and name != "setup_s":
                ok = False
            print(f"  {name:<16} median {med:<12.6g} {metric['unit']:<7} spread {spread:7.2%}  bound {bound:.0%}{flag}")
            if opts.verbose:
                print("    " + " ".join(f"{x:.5g}" for x in v))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
