"""The four benchmark workloads: operation lists and per-operation checks.

A workload is a list of operations derived from the workload seed.  One pass
runs every operation once, in order; passes repeat the same list, so every
pass must produce byte-identical outputs.  Each operation returns
``(output, shots)``; its check returns the problems found (empty when the
output is correct) and a canonical JSON string that the pass digest covers.

The program is reached only through module attributes (``qx.run``, not a
copied ``run``), so the tracer's rebinding of those attributes sees every
call the benchmark makes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import pi, sqrt
from typing import Callable

import numpy as np

import qmcmc.algorithms as qa
import qmcmc.circuit as qc
import qmcmc.experiments as qx
import qmcmc.markov as qm
import qmcmc.references as qr
import qmcmc.spue as qs
import qmcmc.statevector as qsv
from qmcmc.errors import SchemaError
from qmcmc.noise import NoiseModel

# Shot counts of scripts/run_reference_experiments.py.
REFERENCE_SHOTS = {
    "lcu-state-prep": 10_000,
    "lcu-qae": 1000,
    "szegedy-state-prep": 10_000,
    "cswap-state-prep": 10_000,
    "dual-eigenstate": 10_000,
    "dual-overlap": 1000,
}
SPECTRAL_ENCODINGS = ("lcu", "szegedy", "cswap", "dual")
NOISELESS_TVD_MAX = 0.05

NOISY_SHOTS = 10_000
NOISY_P2 = {"noisy-light": 5e-4, "noisy-heavy": 5e-3}
# Success fraction (cswap: phase-0 rate; dual-overlap: zero-outcome rate) of
# the package when this benchmark was introduced: the mean over seeds 0..4
# at 1e4 shots.  A run passes when it lies within
# 0.01 + 5 binomial standard deviations of this value.
NOISY_SUCCESS = {
    ("noisy-light", "cswap-state-prep"): 0.98546,
    ("noisy-light", "dual-overlap"): 0.94030,
    ("noisy-heavy", "cswap-state-prep"): 0.90010,
    ("noisy-heavy", "dual-overlap"): 0.63742,
}

QPE_T = 8
QAE_T = 6
WIDE_SHOTS = 10_000
STATIONARY_DELTA = 0.25
STATIONARY_POWER = 3


@dataclass(frozen=True)
class Operation:
    label: str
    run: Callable[[], tuple[object, int]]
    check: Callable[[object, int], tuple[list[str], str]]


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def build(name: str, seed: int, noisy_shots: int = NOISY_SHOTS) -> list[Operation]:
    if name == "reference-noiseless":
        return _reference_noiseless(seed)
    if name in NOISY_P2:
        return _noisy(name, seed, noisy_shots)
    if name == "wide-qpe":
        return _wide_qpe(seed)
    raise ValueError(f"unknown workload {name!r}")


# -- shared checks ---------------------------------------------------------------


def _histogram_problems(label: str, hist: dict, shots: int, width: int) -> list[str]:
    problems = []
    if sum(hist.values()) != shots:
        problems.append(f"{label}: histogram sums to {sum(hist.values())}, not {shots}")
    bad = sorted(k for k in hist if len(k) != width)
    if bad:
        problems.append(f"{label}: outcomes {bad[:3]} do not have bit_order width {width}")
    return problems


def _report_problems(report) -> list[str]:
    spec = report.spec
    width = len(report.bit_order)
    problems = _histogram_problems(spec.name, report.histogram, spec.shots, width)
    if spec.name == "dual-eigenstate":
        problems += _histogram_problems(
            spec.name + " walked", report.derived["walk_applied_histogram"], spec.shots, width
        )
    if spec.name == "lcu-qae":
        estimates = report.derived["mean_estimate_histogram"]
        if sum(estimates.values()) != report.success_count:
            problems.append("lcu-qae: estimate histogram does not sum to the prep successes")
    return problems


def _rounded(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _canonical(obj) -> str:
    """Sorted JSON with floats at 12 significant digits.

    ``experiments.tvd`` sums over a set of outcome strings, so the last bits
    of every TVD follow the interpreter's string-hash seed; rounding keeps the
    digest equal across processes while counts stay exact.
    """
    return json.dumps(_rounded(obj), sort_keys=True)


# -- reference-noiseless ----------------------------------------------------------


def _run_and_compare(spec) -> Callable[[], tuple[object, int]]:
    def op():
        report = qx.run(spec)
        comparisons = {"expected": qx.compare(report, "expected")}
        for device in qr.experiment_reference(spec.name).get("devices", {}):
            try:
                comparisons[device] = qx.compare(report, device)
            except SchemaError:
                continue  # device row without a comparable table, as in the reference script
        return (report, comparisons), spec.shots

    return op


def _check_compared(out, shots) -> tuple[list[str], str]:
    report, comparisons = out
    problems = _report_problems(report)
    expected_tvd = comparisons["expected"]["tvd"]
    if not expected_tvd <= NOISELESS_TVD_MAX:
        problems.append(f"{report.spec.name}: TVD {expected_tvd:.4f} against expected > {NOISELESS_TVD_MAX}")
    for source, comparison in comparisons.items():
        if not 0.0 <= comparison["tvd"] <= 1.0:
            problems.append(f"{report.spec.name}: TVD against {source} outside [0, 1]")
    return problems, _canonical({"report": report.to_dict(), "comparisons": comparisons})


def _check_spectral(report, shots) -> tuple[list[str], str]:
    spectral = report.derived["spectral"]
    problems = [] if spectral["ok"] else [f"spectral-check {report.spec.encoding}: {spectral['violations']}"]
    return problems, _canonical(report.to_dict())


def _spectral(spec) -> Callable[[], tuple[object, int]]:
    return lambda: (qx.run(spec), 0)


def _reference_noiseless(seed: int) -> list[Operation]:
    seeds = _seeds(seed, len(REFERENCE_SHOTS))
    ops = [
        Operation(name, _run_and_compare(qx.ExperimentSpec(name, shots=shots, seed=s)), _check_compared)
        for (name, shots), s in zip(REFERENCE_SHOTS.items(), seeds)
    ]
    ops += [
        Operation(
            f"spectral-check/{enc}",
            _spectral(qx.ExperimentSpec("spectral-check", encoding=enc)),
            _check_spectral,
        )
        for enc in SPECTRAL_ENCODINGS
    ]
    return ops


# -- noisy-light / noisy-heavy ------------------------------------------------------


def _success_fraction(report) -> float:
    if report.spec.name == "dual-overlap":
        return report.derived["zero_outcomes"] / report.spec.shots
    return report.derived["phase0_count"] / report.spec.shots


def _noisy_check(reference: float) -> Callable:
    def check(report, shots) -> tuple[list[str], str]:
        problems = _report_problems(report)
        frac = _success_fraction(report)
        band = 0.01 + 5 * sqrt(reference * (1 - reference) / shots)
        if abs(frac - reference) > band:
            problems.append(
                f"{report.spec.name}: success fraction {frac:.4f} outside "
                f"{reference:.4f} +- {band:.4f}"
            )
        return problems, _canonical(report.to_dict())

    return check


def _noisy(name: str, seed: int, shots: int) -> list[Operation]:
    noise = NoiseModel(p1=2e-5, p2=NOISY_P2[name], p_meas=1e-3)
    ops = []
    for exp, s in zip(("cswap-state-prep", "dual-overlap"), _seeds(seed, 2)):
        spec = qx.ExperimentSpec(exp, shots=shots, seed=s, noise=noise)
        ops.append(
            Operation(exp, lambda spec=spec: (qx.run(spec), spec.shots), _noisy_check(NOISY_SUCCESS[name, exp]))
        )
    return ops


# -- wide-qpe --------------------------------------------------------------------------


def _qpe(seed: int) -> Callable[[], tuple[object, int]]:
    def op():
        walk, eigenstate_prep = qs.dual_walk(pi / 4)
        eigenstate = qsv.statevector_of(eigenstate_prep)
        return qa.phase_estimation(walk.circuit, eigenstate, QPE_T, WIDE_SHOTS, seed), WIDE_SHOTS

    return op


def _check_qpe(pe, shots) -> tuple[list[str], str]:
    problems = [] if pe.histogram == {0: shots} else [f"phase estimation histogram {pe.histogram} is not all k=0"]
    return problems, _canonical({str(k): c for k, c in pe.histogram.items()})


def _qae(seed: int) -> Callable[[], tuple[object, int]]:
    def op():
        oracle = qa.FunctionOracle.from_table([0.0, 1.0], 1)
        uniform = qsv.from_amplitudes(np.full(2, 1 / np.sqrt(2)))
        return qa.qae_mean(uniform, oracle, QAE_T, WIDE_SHOTS, seed), WIDE_SHOTS

    return op


def _check_qae(hist, shots) -> tuple[list[str], str]:
    problems = [] if hist == {0.5: shots} else [f"qae_mean returned {hist}, not {{0.5: {shots}}}"]
    return problems, _canonical({repr(k): c for k, c in hist.items()})


def _stationary():
    kernel = qm.two_state_kernel(STATIONARY_DELTA)
    walk = qs.szegedy_walk(kernel)
    initial = qsv.from_amplitudes(qc.unitary_of(qs.two_state_row_prep(kernel))[:, 0])
    state, prob = qa.prepare_stationary(walk, initial, STATIONARY_POWER)
    return (walk, state, prob), 0


def _check_stationary(out, shots) -> tuple[list[str], str]:
    walk, state, prob = out
    expected = walk.spue.isometry.matrix @ (np.ones(2) / np.sqrt(2))
    problems = []
    if abs(prob - 0.5) > 1e-12:
        problems.append(f"prepare_stationary success probability {prob} is not 1/2")
    if float(np.max(np.abs(state.amps - expected))) > 1e-10:
        problems.append("prepare_stationary state is not the embedded stationary state")
    amps = [[float(a.real), float(a.imag)] for a in state.amps]
    return problems, _canonical({"prob": prob, "amps": amps})


def _wide_qpe(seed: int) -> list[Operation]:
    qpe_seed, qae_seed = _seeds(seed, 2)
    return [
        Operation("phase_estimation", _qpe(qpe_seed), _check_qpe),
        Operation("qae_mean", _qae(qae_seed), _check_qae),
        Operation("prepare_stationary", _stationary, _check_stationary),
    ]
