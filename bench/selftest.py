"""Harness self-test at tiny sizes.

    python3 bench/run.py --self-test

Checks, in about ten seconds:

* the thread count handed to children is capped at os.cpu_count()
  (asserted on the computed environment; no thread is started);
* BENCHMARK.json lists exactly the metrics the harness reports;
* every workload runs once and its result line matches the schema;
* traced and untraced runs of each workload write byte-identical
  artifacts for the same seed;
* peak_rss_mb is the child's own peak: below this process's peak, and
  larger for an mc run with 200 times the trials;
* --compare calls one failed crosscheck point in 2000 worse;
* a traced run reports every per-layer metric.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil

import numpy as np

SEED = 5


def check_result(result: dict, table: dict) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            problems.append(f"{key} is not an integer")
    if not result.get("attempted", 0) >= 1 or result.get("failed") != 0:
        problems.append(f"attempted {result.get('attempted')}, failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(table):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(table))}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"} or not isinstance(entry["value"], (int, float)):
            problems.append(f"{name}: malformed entry {entry}")
        elif not math.isfinite(entry["value"]):
            problems.append(f"{name}: value {entry['value']}")
    json.dumps(result, allow_nan=False)
    return problems


def check_spec(run) -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    if listed != {k: (v.unit, v.better) for k, v in run.END_TO_END.items()}:
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if listed != {k: (v.unit, v.better) for k, v in run.PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer differs from PER_LAYER")
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    return problems


def check_thread_cap(run) -> list:
    cap = os.cpu_count() or 1
    problems = []
    if run.child_threads(10**6) != cap or run.child_threads(0) != 1:
        problems.append("child_threads does not clamp to [1, os.cpu_count()]")
    for wl in run.WORKLOADS.values():
        for requested in (wl.threads, 10**6):
            if int(run.child_env(requested)["CAVSIM_THREADS"]) > cap:
                problems.append(f"{wl.name}: CAVSIM_THREADS above os.cpu_count()")
    return problems


def check_byte_identity(run, wl) -> list:
    root = run.WORK / f"selftest-{os.getpid()}-{wl.name}"
    shutil.rmtree(root, ignore_errors=True)
    bench = run.Bench(wl, SEED, True, root)
    try:
        plain, plain_out, _ = bench.run_workload(wl, traced=False)
        traced, traced_out, _ = bench.run_workload(wl, traced=True)
        if plain.code or traced.code:
            return [f"{wl.name}: exit codes {plain.code} / {traced.code}"]
        a, b = run.artifact_hashes(plain_out), run.artifact_hashes(traced_out)
        return [] if a == b and a else [f"{wl.name}: traced artifacts differ: {a} vs {b}"]
    finally:
        shutil.rmtree(root, ignore_errors=True)


def check_child_rss(run) -> list:
    """The child's peak must be its own and must grow with the trials."""
    root = run.WORK / f"selftest-{os.getpid()}-rss"
    shutil.rmtree(root, ignore_errors=True)
    bench = run.Bench(run.WORKLOADS["mc-fine"], SEED, True, root)
    ballast = np.ones(10_000_000)  # 80 MB touched: a parent peak a child must not inherit
    rss = {}
    try:
        for trials in (1_000, 200_000):
            size = {"points": 2, "trials": trials, "sigma-phi": 0.1, "window": 1}
            child, _out, _ = bench.run_workload(run.Workload("mc-fine", 1, size, size), traced=False)
            rss[trials] = child.rss_mb
    finally:
        shutil.rmtree(root, ignore_errors=True)
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    del ballast
    problems = []
    if not rss[1_000] < own_mb:
        problems.append(f"child peak {rss[1_000]:.1f} MB is not below the harness's {own_mb:.1f} MB")
    if not rss[200_000] > rss[1_000] + 10.0:
        problems.append(f"child peak does not grow with trials: {rss}")
    return problems


def check_verdicts(run) -> list:
    base = [1.0] * 10
    change = [1.0] * 9 + [1999 / 2000]
    problems = []
    if run.correctness_verdict(base, change) != "worse":
        problems.append("one failed point in 2000 is not called worse")
    if run.correctness_verdict(base, base) != "no worse":
        problems.append("identical ok_ratio is not called no worse")
    return problems


def main(run) -> int:
    problems = check_thread_cap(run) + check_spec(run) + check_verdicts(run) + check_child_rss(run)
    for name, wl in run.WORKLOADS.items():
        rec = run.run_once(name, SEED, 0, trace=False, tiny=True, min_reps=1)
        found = [f"{name}: {p}" for p in check_result(rec["result"], run.END_TO_END)]
        found += check_byte_identity(run, wl)
        print(f"ok   {name}" if not found else f"FAIL {name}", flush=True)
        problems += found
    rec = run.run_once("sweep-zeta", SEED, 0, trace=True, tiny=True, min_reps=1)
    problems += [f"traced: {p}" for p in check_result(rec["result"], run.PER_LAYER)]
    for problem in problems:
        print("problem:", problem)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0
