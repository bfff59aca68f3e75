"""Smoke test of the benchmark: a short run of every workload.

    python3 perfbench/smoke.py

For every workload, with and without tracing, it checks that the last line
of stdout is the result object, that every metric is printed with its unit,
and that no operation failed.  It also checks that ``BENCHMARK.json`` at the
repository root lists the metrics and workloads ``run.py`` prints, and that
the benchmark refuses to run without the engine sources.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

WORKLOADS = ("cli", "descent", "words")


def bench(cwd, workload, trace, seconds="0.5"):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(workload, trace):
    proc = bench(run.ROOT, workload, trace)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr[-500:]}"
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(doc)}"
    if doc["failed"] != 0 or not doc["correct"] or doc["attempted"] < 1:
        return f"{doc['failed']} of {doc['attempted']} operations failed: {proc.stderr[-500:]}"
    expected = run.per_layer_metrics() if trace else list(run.END_TO_END)
    got = [(name, m["unit"]) for name, m in doc["metrics"].items()]
    if got != expected:
        return f"metrics {got} != {expected}"
    table = {}  # name -> (value, unit) from the lines before the JSON object
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            table[parts[0]] = (parts[1], parts[2])
    for name, unit in expected + [("fail_frac", "ratio")]:
        if table.get(name, (None, None))[1] != unit:
            return f"{name} [{unit}] missing from the table"
    if table["fail_frac"][0] != "0":
        return "fail_frac is not 0"
    return None


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        return f"workloads {spec['workloads']}"
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        return "end_to_end does not match run.END_TO_END"
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != run.per_layer_metrics():
        return "per_layer does not match run.per_layer_metrics()"
    return None


def check_refuses_without_engine():
    bare = run.BENCH_DIR / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench(bare, "cli", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return f"ran without src/: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"
    return None


def main():
    checks = [("BENCHMARK.json", check_benchmark_json),
              ("no engine sources", check_refuses_without_engine)]
    for workload in WORKLOADS:
        for trace in (0, 1):
            checks.append((f"{workload} --trace {trace}",
                           lambda w=workload, t=trace: check_run(w, t)))
    for name, check in checks:
        err = check()
        print(f"[{'FAIL' if err else 'PASS'}] {name}{': ' + err if err else ''}", flush=True)
        if err:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
