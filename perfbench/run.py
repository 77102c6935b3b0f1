#!/usr/bin/env python3
"""Benchmark of the qmcmc package: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload reference-noiseless --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the current directory; the command
fails with exit code 2 when that source tree is missing.  Workloads are
described in ``BENCHMARK.json`` and built in ``workloads.py``; every
experiment seed derives from ``--seed``.  The load is one process running one
workload as a closed loop: each operation starts when the previous one has
finished, with no threads beyond the BLAS default.

``--trace 0`` measures the end-to-end metrics untraced: set-up time over
fresh interpreters, then one untimed warm-up operation, then whole passes
over the operation list until ``--seconds`` have gone by.  ``--trace 1``
runs untraced passes for half the time, then traced passes (see
``spans.py``) for the other half, and reports the per-layer metrics, the
tracing overhead and how much of the traced time the layer self times
explain.  Every operation's output is checked; the last line printed is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("reference-noiseless", "noisy-light", "noisy-heavy", "wide-qpe")

SETUP_REPEATS = 5
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import qmcmc\n"
    "qmcmc.references.load_references()\n"
    "print(repr(time.perf_counter() - t0))\n"
)
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
# Caps the span arrays (about 53k spans per reference-noiseless pass).
MAX_TRACE_PASSES = 10
TINY_NOISY_SHOTS = 500

END_TO_END_UNITS = {"setup_s": "s", "shots_per_s": "1/s", "pass_s_p50": "s", "peak_rss_mib": "MiB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Wall time to import qmcmc and load the references in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "caches": cpu_caches(),
    }


def blas_threads(np) -> int | str:
    """Thread count of NumPy's bundled OpenBLAS, when it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def cpu_caches() -> dict[str, str]:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
        elif kind != "Instruction":
            caches[f"L{level}d"] = size
    return caches


class Runner:
    """Runs passes over the operation list and checks every output."""

    def __init__(self, workload: str, ops):
        self.workload = workload
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []

    def run_op(self, op, tracer=None) -> tuple[float, int, str]:
        self.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                out, shots = op.run()
            else:
                with tracer.span("bench.op"):
                    out, shots = op.run()
        except Exception:  # an operation that raises is a counted failure, not a crash
            elapsed = perf_counter() - t0
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return elapsed, 0, f"{op.label}: raised"
        elapsed = perf_counter() - t0
        problems, canonical = op.check(out, shots)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed, shots, canonical

    def run_pass(self, tracer=None) -> tuple[float, int]:
        total, shots, parts = 0.0, 0, []
        for op in self.ops:
            elapsed, op_shots, canonical = self.run_op(op, tracer)
            total += elapsed
            shots += op_shots
            parts.append(canonical)
        self.digests.append(hashlib.sha256("\n".join(parts).encode()).hexdigest())
        return total, shots

    def passes(
        self, seconds: float, min_passes: int, tracer=None, max_passes: int | None = None
    ) -> list[tuple[float, int]]:
        """Whole passes until ``seconds`` of wall time have gone by."""
        results = []
        start = perf_counter()
        while len(results) < min_passes or (
            perf_counter() - start < seconds and len(results) != max_passes
        ):
            results.append(self.run_pass(tracer))
        return results

    def digest_problems(self) -> list[str]:
        if len(set(self.digests)) > 1:
            return [f"passes produced {len(set(self.digests))} different outputs at one seed"]
        return []


def emit(metrics: dict[str, tuple[float, str]], notes: dict[str, str]) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value} {unit}{note}")


def end_to_end(runner: Runner, seconds: float, min_passes: int) -> tuple[dict, dict]:
    setup = [measure_setup() for _ in range(SETUP_REPEATS)]
    timed = runner.passes(seconds, min_passes)
    times = [t for t, _ in timed]
    metrics = {
        "setup_s": statistics.median(setup),
        "shots_per_s": sum(s for _, s in timed) / sum(times),
        "pass_s_p50": statistics.median(times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, max {max(setup):.4f} s",
        "pass_s_p50": f"passes={len(times)}, max {max(times):.4f} s",
        "shots_per_s": f"{sum(s for _, s in timed)} shots in {sum(times):.3f} s",
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def per_layer(runner: Runner, seconds: float, min_passes: int) -> tuple[dict, dict]:
    import layers
    import spans

    untraced = [t for t, _ in runner.passes(seconds / 2, min_passes)]
    failed_before = runner.failed
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [t for t, _ in runner.passes(seconds / 2, min_passes, tracer, MAX_TRACE_PASSES)]
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT_DIR / f"trace-{runner.workload}.npz")

    table = spans.SpanTable(tracer)
    root = table.mask(spans.ROOT)
    traced_wall = float(table.dur[root].sum())
    if abs(float(table.self_time.sum()) - traced_wall) > 1e-6 * max(1.0, traced_wall):
        runner.problems.append("span self times do not add up to the traced operation time")
    if traced_wall > sum(traced) * (1 + 1e-9):
        runner.problems.append("traced operation spans exceed the traced pass time")
    layer_self = float(table.self_time[~root].sum())

    raw = layers.layer_metrics(table)
    raw["experiments.errors"] = runner.failed - failed_before
    values = layers.per_pass(raw, len(traced))
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    values["trace.layer_self_share"] = layer_self / traced_wall
    metrics = {name: (values[name], unit) for name, unit in layers.UNITS.items()}

    by_layer = table.self_by_layer()
    print(f"traced passes={len(traced)} untraced passes={len(untraced)} traced wall={traced_wall:.4f} s")
    for layer, seconds_self in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"self {layer:12s} {seconds_self / len(traced):.6f} s/pass  {seconds_self / traced_wall:7.2%}")
    for name, unit, better, moves, workload, why in layers.LAYERS:
        print(f"layer {name} [{unit}, {better}] -> {moves} on {workload}: {why}")
    return metrics, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="self-check size: noisy workloads at 500 shots, one pass",
    )
    args = parser.parse_args(argv)

    if not (SRC / "qmcmc" / "__init__.py").is_file():
        print(f"error: no qmcmc source tree at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import qmcmc

    if Path(qmcmc.__file__).resolve().parent != (SRC / "qmcmc").resolve():
        print(f"error: imported qmcmc from {qmcmc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    noisy_shots = TINY_NOISY_SHOTS if args.tiny else workloads.NOISY_SHOTS
    runner = Runner(args.workload, workloads.build(args.workload, args.seed, noisy_shots))
    min_passes = 1 if args.tiny else (MIN_TRACE_PASSES if args.trace else MIN_PASSES)

    print("env " + json.dumps(environment(), sort_keys=True))
    runner.run_op(runner.ops[0])  # untimed warm-up
    if args.trace:
        metrics, notes = per_layer(runner, args.seconds, min_passes)
    else:
        metrics, notes = end_to_end(runner, args.seconds, min_passes)
    runner.problems.extend(runner.digest_problems())

    print(f"workload {args.workload} seed={args.seed} ops/pass={len(runner.ops)} trace={args.trace}")
    print(f"sha256 {args.workload} seed={args.seed} {runner.digests[0]}")
    emit(metrics, notes)
    print(f"fail_ratio = {runner.failed / runner.attempted} ({runner.failed}/{runner.attempted} operations)")
    for problem in dict.fromkeys(runner.problems):
        print(f"problem: {problem}")
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
