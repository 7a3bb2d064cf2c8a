#!/usr/bin/env python3
"""Host-cost gate over the repository benchmark.

    python3 tools/ci/perf_gate.py            # gate against the baseline
    python3 tools/ci/perf_gate.py --write    # regenerate the baseline

Run it from anywhere. It runs `perfbench/run.py` once per workload
listed in BENCHMARK.json (seed 1, `--seconds 1`, no trace) and compares
the result with tools/ci/baselines/perfbench-seed1.json.

Gated: the end-to-end metrics that repeat exactly for a binary and a
seed -- `minor_words_per_op`, `peak_heap_mb` and every `virt_*` --
each at its BENCHMARK.json bound (a relative change in the worse
direction larger than the bound fails). A workload that fails a check
or any operation also fails the gate. Wall-clock metrics vary from
machine to machine and run to run, so they are printed next to the
baseline but never gated.

After a change that moves a gated metric on purpose, regenerate the
baseline with --write and say why in the commit message.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
BASELINE = os.path.join(ROOT, "tools", "ci", "baselines", "perfbench-seed1.json")
SEED = 1
SECONDS = 1


def gated(name):
    return name in ("minor_words_per_op", "peak_heap_mb") or name.startswith("virt_")


def run_workload(name):
    cmd = [sys.executable, "perfbench/run.py", "--workload", name,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise SystemExit("perf_gate: %s exited with %d" % (name, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit("perf_gate: %s: %d of %d operations failed"
                         % (name, result["failed"], result["attempted"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


# Relative change of [new] against [base], positive when worse.
def worsening(base, new, better):
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else 0.0 - change


def main():
    write = sys.argv[1:] == ["--write"]
    if sys.argv[1:] and not write:
        sys.stderr.write("usage: perf_gate.py [--write]\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs = {w["name"]: run_workload(w["name"]) for w in bench["workloads"]}
    if write:
        with open(BASELINE, "w") as f:
            json.dump({"seed": SEED, "seconds": SECONDS, "workloads": runs}, f,
                      indent=1, sort_keys=True)
            f.write("\n")
        print("perf_gate: wrote %s" % os.path.relpath(BASELINE, ROOT))
        return 0
    with open(BASELINE) as f:
        baseline = json.load(f)["workloads"]
    failures = 0
    for workload, values in runs.items():
        print("== %s" % workload)
        base = baseline.get(workload)
        if base is None:
            print("  no baseline for this workload")
            failures += 1
            continue
        for name, value in values.items():
            if name not in metrics or name not in base:
                continue
            m = metrics[name]
            worse = worsening(base[name], value, m["better"])
            if gated(name):
                ok = worse <= m["bound"]
                failures += 0 if ok else 1
                verdict = "ok" if ok else "FAIL (bound %g)" % m["bound"]
            else:
                verdict = "report only"
            print("  %-22s %16.6g -> %16.6g  %+7.2f%% worse  %s"
                  % (name, base[name], value, 100 * worse, verdict))
    if failures:
        print("perf_gate: %d gated metric(s) regressed" % failures)
        return 1
    print("perf_gate: every gated metric within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
