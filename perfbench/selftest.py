#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at a tiny scale.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that
  * every workload in BENCHMARK.json runs untraced and traced, passes
    its output checks, and reports exactly the end-to-end (resp.
    per-layer) metric names of BENCHMARK.json with their units and a
    finite value;
  * an injected fault shows up: one perturbed reference rendering per
    workload, and one corrupted frame in the traced run's ingest session,
    each give a non-zero failed_ratio, "correct": false and a non-zero
    exit code;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 0 when every check holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys

SEED = 7
FAILURES = []


def run(args, cwd="."):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--seed", str(SEED), "--seconds", "1", "--tiny"] + args
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return p, result


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def record(workload, trace):
    path = os.path.join(".bench_out", f"{workload}-seed{SEED}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in workloads:
            p, result = run(["--workload", w, "--trace", str(trace)])
            label = f"{w} --trace {trace}"
            expect(p.returncode == 0 and result is not None,
                   f"{label} exits 0 with a result")
            if result is None:
                print(p.stderr[-3000:])
                continue
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label} prints exactly correct/attempted/failed/metrics")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label} passes its output checks")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == want, f"{label} emits every {key} name with its unit")
            finite = all(isinstance(m["value"], (int, float))
                         and math.isfinite(m["value"])
                         for m in result["metrics"].values())
            expect(finite, f"{label} reports finite values")

    # Ingest runs in the traced run's layer sweep, so the corrupted frame
    # is injected there.
    faults = [(w, "reference", 0) for w in workloads]
    faults.append((workloads[0], "frame", 1))
    for w, fault, trace in faults:
        p, result = run(["--workload", w, "--trace", str(trace), "--inject", fault])
        label = f"{w} --trace {trace} --inject {fault}"
        expect(p.returncode != 0, f"{label} exits non-zero")
        expect(result is not None and result["correct"] is False
               and result["failed"] > 0, f"{label} reports the failure")
        expect(record(w, trace)["failed_ratio"] > 0,
               f"{label} has failed_ratio > 0")

    bare = os.path.join(".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    p, result = run(["--workload", workloads[0], "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(p.returncode != 0 and result is None,
           "without the sources the benchmark exits non-zero, printing no result")

    print(f"{len(FAILURES)} failed check(s)" if FAILURES else "self-test OK")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
