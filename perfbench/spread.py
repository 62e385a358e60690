#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, measured the way its bounds are.

    python3 perfbench/spread.py <workload> <runs> [--seconds S] [--trace 0|1]
                                [--first-seed N] [--same-seed]

Runs the command named in BENCHMARK.json (from the repository root)
`runs` times, with seeds first-seed, first-seed+1, ... (or one seed
throughout with --same-seed). For every metric it prints the median and
the inter-quartile range as a share of the median, the quartiles taken
by `statistics.quantiles(values, n=4)`, next to the metric's bound.
With --same-seed it also checks that every run printed the same
`counts` line: the exact counts of the fixed input prefix must not
depend on timing.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    counts = next((l for l in lines if l.startswith("counts ")), None)
    return result, counts


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("runs", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--values", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, counts = {}, set()
    for i in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else i)
        result, count_line = run_once(bench["command"], args.workload, seed,
                                      seconds, args.trace)
        if not result["correct"]:
            sys.exit(f"seed {seed}: correct=false")
        counts.add(count_line)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"run {i + 1}/{args.runs} seed {seed} done", file=sys.stderr)

    print(f"{'metric':36} {'median':>14} {'iqr/median':>11} {'bound':>7}")
    for name, vs in values.items():
        median = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / abs(median) if median else 0.0
        bound = bounds.get(name)
        print(f"{name:36} {median:14.6g} {share:11.4f} "
              f"{'' if bound is None else bound:>7}")
        if args.values:
            print("    " + " ".join(f"{v:.6g}" for v in vs))
    if args.same_seed:
        same = len(counts) == 1
        print(f"counts identical across runs: {same}")
        if not same:
            for line in sorted(counts):
                print("  " + line)
            sys.exit(1)


if __name__ == "__main__":
    main()
