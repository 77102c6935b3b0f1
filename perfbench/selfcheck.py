#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark itself.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seed N]

Checks that BENCHMARK.json, run.py and layers.py name the same workloads and
metrics with the same units; runs every workload at ``--tiny`` size with
tracing off and on, and requires every named metric to be printed with its
unit, every output to pass its checks (fail ratio 0) and the result line to
have exactly the agreed keys.  Finally it copies only BENCHMARK.json and
perfbench/ into a scratch directory under .bench_build/ and requires the
benchmark to fail there without printing a result.  Exits 0 when all holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402


def check_definitions(bench: dict) -> list[str]:
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        problems.append(f"end_to_end {e2e} differs from run.END_TO_END_UNITS {run.END_TO_END_UNITS}")
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    table = [(name, unit, better) for name, unit, better, *_ in layers.LAYERS]
    if declared != table:
        problems.append("per_layer in BENCHMARK.json differs from layers.LAYERS")
    return problems


def check_run(bench: dict, workload: str, seed: int, trace: int) -> list[str]:
    label = f"{workload} trace={trace}"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        return [f"{label}: exit code {done.returncode}: {done.stderr[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    if "fail_ratio = 0.0 " not in done.stdout:
        problems.append(f"{label}: fail_ratio is not printed as 0")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        problems.append(f"{label}: metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{label}: metric {m['name']} missing or without unit {m['unit']}")
        elif not any(line.startswith(f"metric {m['name']} = ") and f" {m['unit']}" in line for line in lines):
            problems.append(f"{label}: metric {m['name']} not printed with its unit")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_build" / "perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["benchmark did not fail cleanly in a directory without the package source"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_definitions(bench)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            found = check_run(bench, workload, args.seed, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    problems += check_bare_directory()
    for problem in problems:
        print(f"problem: {problem}")
    print("selfcheck ok" if not problems else f"selfcheck failed: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
