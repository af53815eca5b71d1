#!/usr/bin/env python3
"""Builds and runs the tokyonet end-to-end benchmark.

Run from the root of a tokyonet checkout:

    python3 perfbench/run.py --workload catalog_mem --seed 1 --seconds 15 --trace 0

Builds the driver (perfbench/driver, linked against ../src) as a Release
build under .bench_build/, runs one workload in one process and prints,
as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics. The metrics are the `end_to_end` list of
BENCHMARK.json with --trace 0 and its `per_layer` list with --trace 1;
this script checks that the driver reported exactly those names with
exactly those units. The exit code is 0 only when every output check
passed.

Extra flags for the self-test (perfbench/selftest.py): --tiny shrinks
every workload, --inject frame|reference injects a fault on purpose.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = ".bench_work"
RUN_TIMEOUT_S = 170
# Pool threads. On a shared VM every parallel region waits for threads
# the host may not be running: at 2 pool threads a catalog pass's wall
# time spread 0.18 (IQR over median, ten seeds) while its CPU time spread
# 0.05. With one pool thread wall time tracks CPU time. The ingest server
# still sizes the pool to its shard count.
POOL_THREADS = 1
BUILD_JOBS = 4


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(BUILD_JOBS, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject", choices=("frame", "reference"))
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root (BENCHMARK.json not found)")
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("tokyonet sources (src/) not found next to perfbench/")
    want = expected_metrics(args.trace)

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    env = {k: v for k, v in os.environ.items() if not k.startswith("TOKYONET_")}
    threads = min(POOL_THREADS, len(os.sched_getaffinity(0)))
    env["TOKYONET_THREADS"] = str(threads)
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.strip().splitlines()
    if not lines:
        fail(f"driver exited with {proc.returncode} and no result", 1)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, wrong unit {wrong}", 1)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
