#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs the benchmark command once per seed on each workload (tracing off),
then prints, per metric, the median, the quartiles (Python's
statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and the
bound from BENCHMARK.json. A spread at or above a third of its bound is
flagged, as is one above the bound. setup_s is reported but not judged.
A failed run is reported and left out of the figures. Run it from the
repository root. Exits non-zero if any run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        print("  run failed: %s seed %d (exit %d)" % (workload, seed, out.returncode))
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failures = 0
    for wl in names:
        values = {}
        for k in range(args.runs):
            r = run_once(bench["command"], wl, args.first_seed + k,
                         bench["run_seconds"])
            if r is None:
                failures += 1
                continue
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d runs ok)" % (wl, len(values.get("setup_s", []))))
        for name, vs in values.items() if len(values.get("setup_s", [])) >= 2 else []:
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, 0.0)
            flag = ""
            if name != "setup_s":
                if spread > bound:
                    flag = "OVER BOUND"
                elif spread >= bound / 3:
                    flag = "over 1/3 bound"
            print("  %-24s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f bound %.2f %s"
                  % (name, med, q1, q3, spread, bound, flag))
        sys.stdout.flush()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
