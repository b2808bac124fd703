#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and quartile spread against its bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload fleet_wire --seeds 1-10

The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). A metric is steady when its spread
stays under a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    catalogue = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    values = {m["name"]: [] for m in catalogue}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        started = time.monotonic()
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        wall = time.monotonic() - started
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed} ({wall:.1f} s): " + " ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in values), flush=True)

    print(f"{'metric':28} {'median':>12} {'spread':>8} {'bound':>6}")
    for metric in catalogue:
        name = metric["name"]
        vals = values[name]
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
        else:
            spread = 0.0
        bound = metric.get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread >= bound else "loose")
        print(f"{name:28} {med:12.5g} {spread:8.3f} {bound if bound is not None else '':>6} {flag}")


if __name__ == "__main__":
    main()
