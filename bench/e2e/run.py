#!/usr/bin/env python3
"""Benchmark entry point named by BENCHMARK.json.

Builds bench_e2e from source (first run only; later runs find the build up
to date), runs one workload in its own process, and prints the result as
the last line of standard output:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

Run it from the root of a checkout. With --trace 0 the metrics are the
end-to-end set of BENCHMARK.json, with --trace 1 the per-layer set (the
traced run also leaves spans.json and layers.json next to result.json).
Build and run outputs go to .bench_build/e2e/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no simulator sources at %s/src" % ROOT)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"] for m in
                 json.load(f)["per_layer" if args.trace else "end_to_end"]]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)

    out_dir = os.path.join(BUILD, "runs", "%s-%d-%s" % (
        args.workload, args.seed, "trace" if args.trace else "plain"))
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--json_out=" + result_path]
    if args.trace:
        cmd.append("--trace=" + out_dir)
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: bench_e2e exceeded %d s" % RUN_TIMEOUT_S)
    if not os.path.exists(result_path):
        sys.exit("run.py: bench_e2e exited %d without a result" % rc)

    with open(result_path) as f:
        result = json.load(f)
    section = result["per_layer" if args.trace else "end_to_end"]
    missing = [n for n in names if n not in section]
    if missing:
        print("run.py: metrics missing from the run: %s" % ", ".join(missing),
              file=sys.stderr)
    metrics = {n: section[n] for n in names if n in section}
    correct = bool(result["correct"]) and rc == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
