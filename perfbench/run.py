#!/usr/bin/env python3
"""Builds and runs the secure-query-serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from src/)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark's self-test, then runs one workload. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}
holding the end-to-end metrics BENCHMARK.json names (--trace 0) or its
per-layer metrics (--trace 1). Any failure exits non-zero without a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns it."""
    try:
        return subprocess.run(cmd, timeout=timeout, check=False, **kwargs)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))


def build(build_dir):
    log = subprocess.DEVNULL
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = run(["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"], 600, stdout=log)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = run(["cmake", "--build", build_dir, "-j", "4"], 900, stdout=log)
    if r.returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(build_dir)
    r = run([os.path.join(build_dir, "perfbench_selftest")], 60,
            stdout=subprocess.DEVNULL)
    if r.returncode != 0:
        fail("self-test failed")

    data_dir = os.path.join(build_dir, "data-%d" % os.getpid())
    try:
        r = run([os.path.join(build_dir, "perfbench"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--data-dir", data_dir],
                RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % r.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric %s missing from the output" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, not %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
