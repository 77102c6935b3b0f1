"""End-to-end experiment runner with machine-readable reports.

Each named experiment builds its gate-level pipeline, executes it (noiseless
statevector sampling, or transpiled noise trajectories when a noise model is
set), and emits a report whose histogram bit order matches the bundled
reference tables.  Bit-order translation lives entirely in this module;
lower layers are order-agnostic.

Reports are reproducible: identical spec and seed give byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import acos, pi, sqrt

import numpy as np

from .algorithms import FunctionOracle, mean_estimate_from_phase
from .circuit import Circuit
from .errors import SchemaError
from .markov import MarkovKernel, two_state_kernel
from .noise import ZERO_NOISE, NoiseModel, sample_with_noise
from .references import experiment_reference, gate_reference, reference_histogram
from .spue import (
    DUAL_QUBITS,
    check_spectral_correspondence,
    cswap_walk,
    dual_walk,
    lcu_walk,
    szegedy_walk,
    two_state_row_prep,
)
from .statevector import statevector_of
from .transpile import transpile_native

EXPERIMENT_NAMES = (
    "lcu-state-prep",
    "lcu-qae",
    "szegedy-state-prep",
    "cswap-state-prep",
    "dual-eigenstate",
    "dual-overlap",
    "spectral-check",
)

REPORT_VERSION = 1


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: experiment name, kernel parameter, shot budget, noise."""

    name: str
    delta: float = 0.25
    acceptance_angle: float | None = None
    shots: int = 10_000
    seed: int = 0
    noise: NoiseModel | None = None
    t: int = 2
    encoding: str = "szegedy"  # spectral-check only

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.name!r}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.t < 1:
            raise ValueError("phase register needs at least one bit")

    def angle(self) -> float:
        if self.acceptance_angle is not None:
            return self.acceptance_angle
        return pi / 4 if self.name.startswith("dual") else float(np.arcsin(sqrt(self.delta)))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["noise"] = None if self.noise is None else asdict(self.noise)
        return d

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentSpec":
        """Inverse of ``to_dict``; malformed input raises ``SchemaError``."""
        try:
            fields = dict(obj)
            if fields.get("noise") is not None:
                fields["noise"] = NoiseModel.from_dict(fields["noise"])
            return cls(**fields)
        except (SchemaError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed experiment spec: {exc}") from exc


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    bit_order: tuple[str, ...]
    histogram: dict[str, int]
    success_count: int | None
    derived: dict
    comparison: dict | None = None
    version: int = REPORT_VERSION

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "histogram": dict(sorted(self.histogram.items())),
            "bit_order": list(self.bit_order),
            "success_count": self.success_count,
            "derived": self.derived,
            "comparison": self.comparison,
            "seed": self.spec.seed,
            "version": self.version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentReport":
        """Rebuild a report from ``to_dict`` output, without its comparison.

        Every histogram key must be a ``len(bit_order)``-wide string of 0s and
        1s and every count a non-negative ``int``; otherwise ``SchemaError``.
        """
        try:
            report = cls(
                ExperimentSpec.from_dict(obj["spec"]),
                tuple(obj["bit_order"]),
                dict(obj["histogram"]),
                obj["success_count"],
                obj["derived"],
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed report: {exc}") from exc
        width = len(report.bit_order)
        for key, count in report.histogram.items():
            if not isinstance(key, str) or len(key) != width or not set(key) <= {"0", "1"}:
                raise SchemaError(f"malformed report: histogram key {key!r} is not {width} bits")
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise SchemaError(f"malformed report: count {count!r} of {key} is not a non-negative int")
        return report


# -- pipelines -----------------------------------------------------------------


def flip_proposal() -> MarkovKernel:
    """Deterministic two-state flip, the proposal behind the swap encodings."""
    return MarkovKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _controlled_lcu_walk_ops(delta: float, c: str, a: str, x: str) -> list:
    """Controlled walk for the two-unitary mix: only the core gates need controls."""
    theta = acos(sqrt(1 - delta))
    circ = Circuit([c, a, x])
    circ.ry(2 * theta, a)
    circ.x(x, controls=(c, a))
    circ.ry(-2 * theta, a)
    circ.z(a, controls=(c,))
    return list(circ.ops)


def lcu_state_prep_circuit(delta: float) -> Circuit:
    circ = Circuit(["c", "a", "x"])
    circ.h("c")
    for _ in range(3):
        circ.extend(_controlled_lcu_walk_ops(delta, "c", "a", "x"))
    circ.h("c")
    circ.measure("x", "c", "a")
    return circ.freeze()


def szegedy_state_prep_circuit(delta: float) -> Circuit:
    kernel = two_state_kernel(delta)
    row_prep = two_state_row_prep(kernel)
    circ = Circuit(["c", "x", "y"])
    circ.extend(row_prep.ops)
    circ.h("c")
    for _ in range(3):
        circ.swap("x", "y", controls=("c",))
        circ.extend(row_prep.inverse().ops)
        circ.z("y", controls=("c",))
        circ.extend(row_prep.ops)
    circ.h("c")
    circ.measure("x", "y", "c")
    return circ.freeze()


def cswap_state_prep_circuit(acceptance_angle: float) -> Circuit:
    theta = acceptance_angle
    circ = Circuit(["p", "x", "y", "coin"])
    circ.h("x")  # uniform stationary state on x
    prep_ops = Circuit(["x", "y", "coin"])
    prep_ops.cx("x", "y").x("y").ry(-2 * theta, "coin")
    circ.extend(prep_ops.ops)
    circ.h("p")
    # Controlled walk: controlled swap, then the prep-conjugated reflection
    # with only its core phase flips controlled.
    circ.swap("x", "y", controls=("coin", "p"))
    circ.extend(prep_ops.inverse().ops)
    circ.z("y", controls=("p",))
    circ.z("coin", controls=("p",))
    circ.z("coin", controls=("p", "y"))
    circ.extend(prep_ops.ops)
    circ.h("p")
    circ.measure("p", "x", "y", "coin")
    return circ.freeze()


def indicator_oracle() -> FunctionOracle:
    """Oracle for the indicator of state 1 on one state qubit."""
    return FunctionOracle.from_table([0.0, 1.0], 1)


def lcu_qae_circuit(delta: float, t: int = 2) -> Circuit:
    """Stationary-state preparation followed by mean estimation, end to end.

    Register roles: c prep ancilla (post-filtered), a encoding ancilla,
    x state, f function flag, j1 j0 the phase register.
    """
    if t != 2:
        raise ValueError("the bundled estimation pipeline is built for t = 2")
    names = ["c", "a", "x", "f", "j1", "j0"]
    circ = Circuit(names)
    circ.h("c")
    for _ in range(3):
        circ.extend(_controlled_lcu_walk_ops(delta, "c", "a", "x"))
    circ.h("c")
    oracle_ops = indicator_oracle().circuit.renamed({"x0": "x"}).ops
    circ.extend(oracle_ops)

    def controlled_reflection_walk(ctrl: str):
        # prep network of the target state: uniform state on x, then oracle.
        prep = Circuit(["x", "f"]).ry(pi / 2, "x")
        prep.extend(indicator_oracle().circuit.renamed({"x0": "x"}).ops)
        circ.extend(prep.inverse().ops)
        circ.z("x", controls=(ctrl,))
        circ.z("f", controls=(ctrl,))
        circ.z("f", controls=(ctrl, "x"))
        circ.extend(prep.ops)
        circ.z("f", controls=(ctrl,))

    circ.h("j0").h("j1")
    controlled_reflection_walk("j0")
    controlled_reflection_walk("j1")
    controlled_reflection_walk("j1")
    # Swap-free inverse QFT over (j0, j1); j0 carries the high phase bit.
    circ.h("j1")
    circ.phase(-pi / 2, "j0", controls=("j1",))
    circ.h("j0")
    circ.measure("x", "c", "j1", "j0", "f", "a")
    return circ.freeze()


def dual_eigenstate_circuits(acceptance_angle: float) -> tuple[Circuit, Circuit, float]:
    """(V circuit, V + walk circuit, dense invariance norm)."""
    walk, v_prep = dual_walk(acceptance_angle)
    v_only = Circuit(DUAL_QUBITS)
    v_only.extend(v_prep.ops)
    v_only.measure(*DUAL_QUBITS)
    walked = Circuit(DUAL_QUBITS)
    walked.extend(v_prep.ops)
    walked.extend(walk.circuit.ops)
    walked.measure(*DUAL_QUBITS)
    v_state = statevector_of(v_prep)
    norm = float(np.linalg.norm(walk.total @ v_state.amps - v_state.amps))
    return v_only.freeze(), walked.freeze(), norm


def dual_overlap_circuit(acceptance_angle: float) -> Circuit:
    walk, v_prep = dual_walk(acceptance_angle)
    circ = Circuit(DUAL_QUBITS)
    circ.extend(v_prep.ops)
    circ.extend(walk.circuit.ops)
    circ.extend(v_prep.inverse().ops)
    circ.measure(*DUAL_QUBITS)
    return circ.freeze()


# -- execution ------------------------------------------------------------------


def _counts(
    circuit: Circuit,
    shots: int,
    seed,
    noise: NoiseModel | None,
) -> dict[str, int]:
    """Histogram of a pipeline's readout, noiselessly or with trajectories.

    A zero noise model skips transpilation (there are no noise sites to
    attach to), so it samples the logical circuit like the noiseless path.
    """
    noise = ZERO_NOISE if noise is None else noise
    if noise.attach == "native" and not noise.is_zero:
        circuit = transpile_native(circuit).circuit
    return sample_with_noise(circuit, noise, shots, seed)


def _marginal(counts: dict[str, int], positions: list[int]) -> dict[str, int]:
    out: dict[str, int] = {}
    for bits, c in counts.items():
        key = "".join(bits[p] for p in positions)
        out[key] = out.get(key, 0) + c
    return out


def tvd(hist_a: dict[str, int], hist_b: dict[str, int]) -> float:
    """Total variation distance between two count histograms."""
    na, nb = sum(hist_a.values()), sum(hist_b.values())
    if na == 0 or nb == 0:
        raise ValueError("empty histogram")
    # Sorted keys fix the summation order, so the float does not depend on
    # the interpreter's string-hash seed.
    keys = sorted(set(hist_a) | set(hist_b))
    return 0.5 * sum(abs(hist_a.get(k, 0) / na - hist_b.get(k, 0) / nb) for k in keys)


def run(spec: ExperimentSpec) -> ExperimentReport:
    """Build, execute and post-process the named experiment."""
    if spec.name == "lcu-state-prep":
        return _run_lcu_state_prep(spec)
    if spec.name == "lcu-qae":
        return _run_lcu_qae(spec)
    if spec.name == "szegedy-state-prep":
        return _run_szegedy(spec)
    if spec.name == "cswap-state-prep":
        return _run_cswap(spec)
    if spec.name == "dual-eigenstate":
        return _run_dual_eigenstate(spec)
    if spec.name == "dual-overlap":
        return _run_dual_overlap(spec)
    return _run_spectral_check(spec)


def _run_lcu_state_prep(spec: ExperimentSpec) -> ExperimentReport:
    circ = lcu_state_prep_circuit(spec.delta)
    bits = ("x", "c", "a")
    counts = _counts(circ, spec.shots, spec.seed, spec.noise)
    success = sum(c for k, c in counts.items() if k[1] == "0")
    cond_x = _marginal({k: c for k, c in counts.items() if k[1] == "0"}, [0])
    uniform = {b: 1 for b in ("0", "1")}
    derived = {
        "success_rate": success / spec.shots,
        "conditional_x": dict(sorted(cond_x.items())),
        "conditional_x_tvd_from_uniform": tvd(cond_x, uniform) if success else None,
    }
    return ExperimentReport(spec, bits, counts, success, derived)


def _run_szegedy(spec: ExperimentSpec) -> ExperimentReport:
    circ = szegedy_state_prep_circuit(spec.delta)
    bits = ("x", "y", "c")
    counts = _counts(circ, spec.shots, spec.seed, spec.noise)
    success = sum(c for k, c in counts.items() if k[2] == "0")
    conditional = {k: c for k, c in counts.items() if k[2] == "0"}
    joint = _marginal(conditional, [0, 1])
    derived = {
        "success_rate": success / spec.shots,
        "conditional_joint_xy": dict(sorted(joint.items())),
        "conditional_x": dict(sorted(_marginal(conditional, [0]).items())),
    }
    return ExperimentReport(spec, bits, counts, success, derived)


def _run_cswap(spec: ExperimentSpec) -> ExperimentReport:
    circ = cswap_state_prep_circuit(spec.angle())
    raw = _counts(circ, spec.shots, spec.seed, spec.noise)
    # Reference tables carry a fifth, always-zero compilation ancilla bit.
    counts = {k + "0": c for k, c in raw.items()}
    bits = ("p", "x", "y", "coin", "sc")
    success = sum(c for k, c in counts.items() if k[0] == "0")
    derived = {
        "phase0_count": success,
        "x_marginal": dict(sorted(_marginal(counts, [1]).items())),
        "delta": float(np.sin(spec.angle()) ** 2),
    }
    return ExperimentReport(spec, bits, counts, success, derived)


def _run_lcu_qae(spec: ExperimentSpec) -> ExperimentReport:
    circ = lcu_qae_circuit(spec.delta, spec.t)
    bits = ("x", "c", "j1", "j0", "f", "a")
    counts = _counts(circ, spec.shots, spec.seed, spec.noise)
    success = sum(c for k, c in counts.items() if k[1] == "0")
    estimates: dict[str, int] = {}
    for k, c in counts.items():
        if k[1] != "0":  # post-filter on preparation success
            continue
        # Wire j0 carries the high bit of the measured phase value.
        phase_k = (int(k[3]) << 1) | int(k[2])
        est = mean_estimate_from_phase(phase_k, spec.t)
        key = f"{est:g}"
        estimates[key] = estimates.get(key, 0) + c
    derived = {
        "prep_success_count": success,
        "mean_estimate_histogram": dict(sorted(estimates.items())),
        "expected_mean": 0.5,
    }
    return ExperimentReport(spec, bits, counts, success, derived)


def _run_dual_eigenstate(spec: ExperimentSpec) -> ExperimentReport:
    v_circ, walked_circ, invariance = dual_eigenstate_circuits(spec.angle())
    bits = tuple(DUAL_QUBITS)
    counts = _counts(v_circ, spec.shots, (spec.seed, 0), spec.noise)
    walked = _counts(walked_circ, spec.shots, (spec.seed, 1), spec.noise)
    support = {"001010", "001100", "010010", "010100", "101010", "101100", "110010", "110100"}
    derived = {
        "walk_applied_histogram": dict(sorted(walked.items())),
        "eigenstate_support_ok": set(counts) <= support,
        "walk_invariance_norm": invariance,
        "histogram_tvd_before_after_walk": tvd(counts, walked),
    }
    return ExperimentReport(spec, bits, counts, None, derived)


def _run_dual_overlap(spec: ExperimentSpec) -> ExperimentReport:
    circ = dual_overlap_circuit(spec.angle())
    bits = tuple(DUAL_QUBITS)
    counts = _counts(circ, spec.shots, spec.seed, spec.noise)
    zeros = counts.get("0" * 6, 0)
    derived = {
        "zero_outcomes": zeros,
        "overlap_estimate": zeros / spec.shots,
    }
    return ExperimentReport(spec, bits, counts, zeros, derived)


def _run_spectral_check(spec: ExperimentSpec) -> ExperimentReport:
    if spec.encoding == "lcu":
        walk = lcu_walk(spec.delta)
    elif spec.encoding == "szegedy":
        walk = szegedy_walk(two_state_kernel(spec.delta))
    elif spec.encoding == "cswap":
        walk = cswap_walk(flip_proposal(), spec.angle())
    elif spec.encoding == "dual":
        walk, _ = dual_walk(spec.angle())
    else:
        raise ValueError(f"unknown encoding {spec.encoding!r}")
    report = check_spectral_correspondence(walk)
    derived = {"spectral": report.to_dict(), "encoding": spec.encoding}
    return ExperimentReport(spec, (), {}, None, derived)


# -- comparisons ----------------------------------------------------------------


def compare(report: ExperimentReport, source: str = "expected") -> dict:
    """TVD and per-outcome z-scores of a report against a reference dataset.

    ``source`` is 'expected' or a device name.  Device rows are informational:
    they carry hardware noise and are not a correctness contract.
    """
    name = report.spec.name
    ref = experiment_reference(name)
    if name == "lcu-qae":
        mine = {k: v for k, v in report.derived["mean_estimate_histogram"].items()}
        if source == "expected":
            theirs = {f"{float(k):g}": v for k, v in ref["expected_estimates"].items()}
        else:
            theirs = {
                f"{float(k):g}": v
                for k, v in _device_entry(ref, source)["estimates"].items()
            }
        return _histogram_comparison(mine, theirs, source)
    if name == "dual-overlap":
        zeros = report.derived["zero_outcomes"]
        mine = {"zero": zeros, "other": report.spec.shots - zeros}
        if source == "expected":
            z = ref["expected_summary"]["zero_outcomes"]
            total = ref["shots"]
        else:
            z = _device_entry(ref, source)["summary"]["zero_outcomes"]
            total = ref["shots"]
        theirs = {"zero": z, "other": total - z}
        return _histogram_comparison(mine, theirs, source)
    if name == "spectral-check":
        raise SchemaError("spectral-check has no measurement reference")
    theirs = reference_histogram(name, source)
    if tuple(ref["bit_order"]) != tuple(report.bit_order):
        raise SchemaError(
            f"bit order mismatch: report {report.bit_order} vs reference {ref['bit_order']}"
        )
    widths = {len(k) for k in list(theirs) + list(report.histogram)}
    if len(widths) > 1:
        raise SchemaError(f"outcome spaces differ in width: {sorted(widths)}")
    return _histogram_comparison(report.histogram, theirs, source)


def _device_entry(ref: dict, source: str) -> dict:
    devices = ref.get("devices", {})
    if source not in devices:
        raise SchemaError(f"no reference rows for source {source!r}")
    return devices[source]


def _histogram_comparison(mine: dict[str, int], theirs: dict[str, int], source: str) -> dict:
    n_mine = sum(mine.values())
    n_ref = sum(theirs.values())
    z_scores = {}
    for key in sorted(set(mine) | set(theirs)):
        p = theirs.get(key, 0) / n_ref
        expected = n_mine * p
        sigma = np.sqrt(n_mine * p * (1 - p)) if 0 < p < 1 else 0.0
        obs = mine.get(key, 0)
        z_scores[key] = float((obs - expected) / sigma) if sigma > 0 else None
    return {
        "source": source,
        "tvd": tvd(mine, theirs),
        "z_scores": z_scores,
    }


def run_with_comparison(spec: ExperimentSpec, source: str = "expected") -> ExperimentReport:
    report = run(spec)
    if spec.name == "spectral-check":
        return report
    comparison = compare(report, source)
    return ExperimentReport(
        report.spec,
        report.bit_order,
        report.histogram,
        report.success_count,
        report.derived,
        comparison,
    )


# -- transpile reporting ---------------------------------------------------------


def reference_pipelines(delta: float = 0.25) -> dict[str, Circuit]:
    """The experiment pipelines at the reference parameter values."""
    v_circ, walked, _ = dual_eigenstate_circuits(pi / 4)
    return {
        "lcu-state-prep": lcu_state_prep_circuit(delta),
        "lcu-qae": lcu_qae_circuit(delta),
        "szegedy-state-prep": szegedy_state_prep_circuit(delta),
        "cswap-state-prep": cswap_state_prep_circuit(float(np.arcsin(sqrt(delta)))),
        "dual-eigenstate": walked,
        "dual-overlap": dual_overlap_circuit(pi / 4),
    }


def transpile_report(delta: float = 0.25) -> dict[str, dict]:
    """Native gate counts for every pipeline, against bundled references."""
    out = {}
    for name, circ in reference_pipelines(delta).items():
        ref = gate_reference(name)
        result = transpile_native(circ, ref)
        entry = result.count_report()
        entry["total"] = sum(result.counts.values())
        entry["qubits"] = circ.num_qubits
        if result.warnings:
            entry["warnings"] = list(result.warnings)
        out[name] = entry
    return out
