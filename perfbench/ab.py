#!/usr/bin/env python3
"""Paired A/B comparison of two checkouts on one workload.

    python3 perfbench/ab.py --base DIR --change DIR --workload steady \
        [--pairs 10] [--seconds 20] [--first-seed 1]

Runs `perfbench/run.py` (untraced) in each checkout, alternating which
side goes first in each pair, with a fresh seed per pair shared by both
sides.  For every end-to-end metric it prints each side's median and
quartiles, the change/base ratio of the medians, the base's own spread
(quartile distance over median) and the share of pairs the change won.
A gain is claimed only over at least ten pairs, when the change wins at
least nine tenths of them and the medians differ by more than the base's
spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"ab: {checkout} seed {seed} failed (exit {out.returncode})\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(args.base, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    base, change = {}, {}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [(args.base, base), (args.change, change)]
        if i % 2:
            order.reverse()
        for checkout, sink in order:
            result = run(checkout, args.workload, seed, args.seconds)
            for name, m in result["metrics"].items():
                sink.setdefault(name, []).append(m["value"])
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)

    print(f"workload {args.workload}: {args.pairs} pairs, {args.seconds}s runs")
    for name, sense in better.items():
        b, c = base.get(name, []), change.get(name, [])
        if not b or not c:
            continue
        bq, cq = quartiles(b), quartiles(c)
        spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        wins = sum((y < x) if sense == "lower" else (y > x) for x, y in zip(b, c))
        gain = len(b) >= 10 and wins >= 0.9 * len(b) and abs(ratio - 1) > spread
        print(f"{name}: base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
              f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
              f"ratio {ratio:.4f}  base spread {spread:.4f}  "
              f"change won {wins}/{len(b)}{'  GAIN' if gain else ''}")


if __name__ == "__main__":
    main()
