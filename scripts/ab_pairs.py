#!/usr/bin/env python3
"""Alternated A/B runs of the benchmark of two checkouts:

    python3 scripts/ab_pairs.py A B --workload W --seeds 711..720 --seconds 10

Per seed of the range S1..Sn runs A's and B's `bench/run.py`, A first on
even pairs, and prints the pair's end-to-end metrics (A -> B); then, per
metric of BENCHMARK.json, the pairs B wins, the median of B / A, and the
distance between the quartiles of A's runs over their median.
"""

import argparse
import json
import pathlib
import subprocess
import sys
from statistics import median, quantiles


def run(checkout, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    doc = json.loads(out.strip().splitlines()[-1])
    if not doc["correct"]:
        sys.exit(f"{checkout} seed {seed}: {doc['failed']} wrong outcomes")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a"), ap.add_argument("b")
    for opt in ("--workload", "--seeds"):
        ap.add_argument(opt, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split(".."))
    spec = json.loads((pathlib.Path(args.a) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = []
    for k, seed in enumerate(range(lo, hi + 1)):
        order = (args.a, args.b) if k % 2 == 0 else (args.b, args.a)
        got = {c: run(c, args.workload, seed, args.seconds) for c in order}
        pairs.append((got[args.a], got[args.b]))
        print(f"seed {seed}: " + ", ".join(
            f"{n} {pairs[-1][0][n]:.4g} -> {pairs[-1][1][n]:.4g}"
            for n in better))
    for name, how in better.items():
        ratios = [b[name] / a[name] for a, b in pairs]
        wins = sum((r < 1) if how == "lower" else (r > 1) for r in ratios)
        q1, _, q3 = quantiles(a_runs := [a[name] for a, _ in pairs], n=4)
        print(f"{name:12s} B wins {wins}/{len(pairs)}, median B/A "
              f"{median(ratios):.3f}, A quartile distance / median "
              f"{(q3 - q1) / median(a_runs):.3f}")


if __name__ == "__main__":
    main()
