#!/usr/bin/env python3
"""Steadiness check: runs workloads over several seeds and reports, per
end-to-end metric, the median, the quartiles and the interquartile range
as a share of the median (the spread BENCHMARK.json's bounds are set
from).

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads a,b] [--runs 10]
                                [--first-seed 1] [--seconds S]

--seconds defaults to BENCHMARK.json's run_seconds. Prints one Markdown
table row per (workload, metric) and flags spreads above a third of the
metric's bound. Runs one harness at a time.
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
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print("| workload | metric | median | q1 | q3 | IQR/median | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        values = {}
        failed = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit("%s seed %d failed:\n%s" % (workload, seed, out.stderr))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failed.append("%d/%d" % (result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name in bounds:
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med
            flag = " (over a third of bound)" if share > bounds[name] / 3 else ""
            print("| %s | %s | %.6g | %.6g | %.6g | %.4f%s | %.2f |"
                  % (workload, name, med, q1, q3, share, flag, bounds[name]))
        print("| %s | failed/attempted | %s | | | | |"
              % (workload, " ".join(failed)))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
