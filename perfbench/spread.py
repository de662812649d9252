#!/usr/bin/env python3
"""Run one workload with several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload tcp_small_read --seeds 1-10

For every metric it prints the median, the quartile spread
(Q3 - Q1) / median as Python's statistics.quantiles(values, n=4) gives the
quartiles, and, for end-to-end metrics, the metric's bound from
BENCHMARK.json. A spread at or above a third of the bound is flagged: the
benchmark is meant to stay well inside its own bounds. Run from the root of
the checkout; each run goes through run.py exactly as a single run would.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(HERE.parent / "BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        run = subprocess.run(cmd, capture_output=True, text=True)
        if run.returncode != 0:
            sys.stderr.write(run.stdout + run.stderr)
            sys.exit(f"seed {seed}: run.py exited with {run.returncode}")
        result = json.loads(run.stdout.strip().split("\n")[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {len(next(iter(values.values())))} runs")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = f"bound {bound:.2f}" + ("  <-- over a third" if spread >= bound / 3 else "")
        print(f"  {name:34s} median {med:14.6g}  spread {spread:7.4f}  {flag}")


if __name__ == "__main__":
    main()
