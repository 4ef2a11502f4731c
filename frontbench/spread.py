#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, per end-to-end metric, the
median and the spread (q3 - q1) / median of the values across runs, with the
quartiles of Python's statistics.quantiles(values, n=4), next to the metric's
bound in BENCHMARK.json.

    python3 frontbench/spread.py --workload olap_session --seeds 1 2 3 4 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace",
                               str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:32s} median={med:<14.6g} spread={spread:7.4f} "
              f"bound={bound}{flag}")


if __name__ == "__main__":
    main()
