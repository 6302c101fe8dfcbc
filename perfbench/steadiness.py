#!/usr/bin/env python3
"""Steadiness and sensitivity of the end-to-end benchmark.

Steadiness: runs each workload once per seed and reports, for every
end-to-end metric, the median, the quartiles (statistics.quantiles with
n=4) and the spread, (Q3 - Q1) / median. BENCHMARK.json's bounds are
derived from these spreads; a metric is called steady when its spread is
below a third of its bound.

    python3 perfbench/steadiness.py --workload paper-eval --seeds 1-10

Sensitivity: with --inject LAYER=FRACTION every seed is run twice, once
plain and once with the benchmark spinning FRACTION of each call's own
time after every call into LAYER (no change to the program), alternating
which runs first. It reports how far each metric's median moved and
whether the move exceeds the metric's bound, i.e. whether the benchmark's
regression gate would catch that slowdown.

    python3 perfbench/steadiness.py --workload trace-lab --seeds 1-5 \\
        --inject ipbc=0.15

Run from the root of a checkout; each run goes through perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steadiness: %s seed %d failed (exit %d)"
                 % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("steadiness: %s seed %d reported failed checks"
                 % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--inject", metavar="LAYER=FRACTION")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    seeds = parse_seeds(args.seeds)

    for workload in args.workload:
        base, injected = [], []
        for i, seed in enumerate(seeds):
            if args.inject and i % 2:
                injected.append(run_once(workload, seed, seconds, args.inject))
            base.append(run_once(workload, seed, seconds))
            if args.inject and not i % 2:
                injected.append(run_once(workload, seed, seconds, args.inject))
        print("== %s: %d seeds, %g s per run%s" % (
            workload, len(seeds), seconds,
            ", injecting " + args.inject if args.inject else ""))
        if not args.inject:
            print("%-28s %12s %12s %12s %8s %8s  %s" % (
                "metric", "median", "Q1", "Q3", "spread", "bound", ""))
        else:
            print("%-28s %12s %12s %8s %8s  %s" % (
                "metric", "plain", "injected", "moved", "bound", ""))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med, q1, q3, spread = summary([r[name] for r in base])
            if not args.inject:
                verdict = "steady" if spread < bound / 3 else "NOT STEADY"
                print("%-28s %12.6g %12.6g %12.6g %7.1f%% %7.1f%%  %s" % (
                    name, med, q1, q3, 100 * spread, 100 * bound, verdict))
                continue
            inj = statistics.median([r[name] for r in injected])
            worse = (inj - med) / med
            if m["better"] == "higher":
                worse = -worse
            verdict = "detected" if worse > bound else "not detected"
            print("%-28s %12.6g %12.6g %7.1f%% %7.1f%%  %s" % (
                name, med, inj, 100 * worse, 100 * bound, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
