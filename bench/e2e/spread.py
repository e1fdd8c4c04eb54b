#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

Runs SETS sets of RUNS runs per workload through run.py (the command
BENCHMARK.json names), each run with its own seed (set 1: seeds 1-10,
set 2: seeds 11-20), interleaving workloads and reversing their order in
the second set. For each (metric, workload)
it reports, per set, the median and the spread = (Q3 - Q1) / median with
quartiles from statistics.quantiles(values, n=4), and the drift of each
set's median from the first set's. A metric passes when every spread is
below a third of its bound and every drift stays within the bound
(setup_s: drift only), and prints the bound the data supports: three times
the largest spread (setup_s: drift), rounded up to the next 0.01. Writes
the numbers and the host record to --out.

    python3 bench/e2e/spread.py --out bench/e2e/baseline.json

Run from the root of a checkout; takes about 2 * 10 * 4 * 23 s.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SETS = 2
RUNS = 10
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit("spread.py: %s seed %d failed:\n%s" % (workload, seed,
                                                        out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_build", "e2e", "runs",
                           "%s-%d-plain" % (workload, seed), "result.json")) as f:
        host = json.load(f)["host"]
    return {name: m["value"] for name, m in result["metrics"].items()}, host


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    # Metrics are chosen never to be 0, so the median is a valid base.
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    sets = []
    host = {}
    started = time.time()
    for s in range(SETS):
        order = workloads if s % 2 == 0 else workloads[::-1]
        samples = {w: {m["name"]: [] for m in metrics} for w in order}
        for r in range(RUNS):
            seed = FIRST_SEED + s * RUNS + r
            for w in order:
                values, host = run_once(w, seed, bench["run_seconds"])
                for name, value in values.items():
                    samples[w][name].append(value)
                print("set %d seed %d %s done (%.0f s)" % (
                    s + 1, seed, w, time.time() - started), file=sys.stderr)
        sets.append({w: {name: summarize(v) for name, v in per.items()}
                     for w, per in samples.items()})

    ok = True
    largest = {m["name"]: 0.0 for m in metrics}
    print("%-18s %-15s %6s %s" % ("workload", "metric", "bound",
                                  "median / spread / drift per set"))
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = sets[0][w][name]["median"]
            cells = []
            for st in sets:
                x = st[w][name]
                sign = 1 if m["better"] == "lower" else -1
                drift = sign * (x["median"] - first) / first
                x["drift"] = drift
                gated = drift if name == "setup_s" else x["spread"]
                largest[name] = max(largest[name], gated)
                good = drift <= bound and (name == "setup_s" or
                                           x["spread"] < bound / 3)
                ok = ok and good
                cells.append("%.6g / %.3f / %+.3f%s" % (
                    x["median"], x["spread"], drift, "" if good else " !"))
            print("%-18s %-15s %6.3f %s" % (w, name, bound, " | ".join(cells)))
    for name, value in largest.items():
        print("%-15s largest %s %.3f -> bound from this data %.2f" % (
            name, "drift" if name == "setup_s" else "spread", value,
            math.ceil(300 * value) / 100))

    if args.out:
        host = {k: host[k] for k in ("nproc", "os", "compiler", "build_type")}
        with open(args.out, "w") as f:
            json.dump({"schema": "ocb-bench-e2e-baseline-v1", "host": host,
                       "run_seconds": bench["run_seconds"],
                       "runs_per_set": RUNS,
                       "bounds": {m["name"]: m["bound"] for m in metrics},
                       "sets": sets}, f, indent=1)
            f.write("\n")
    print("spread check: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
