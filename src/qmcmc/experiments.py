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
from dataclasses import asdict, dataclass, replace
from math import acos, pi, sqrt

import numpy as np

from ._apply import is_plain_real
from .algorithms import FunctionOracle, check_phase_bits, inverse_qft_ops, mean_estimate_from_phase
from .circuit import Circuit
from .errors import SchemaError
from .markov import flip_proposal, two_state_kernel
from .noise import ZERO_NOISE, NoiseModel, sample_with_noise
from .references import experiment_reference, gate_reference, reference_table
from .spue import (
    DUAL_QUBITS,
    check_spectral_correspondence,
    cswap_walk,
    dual_walk,
    lcu_walk,
    szegedy_walk,
    two_state_row_prep,
)
from .statevector import check_shots, statevector_of
from .transpile import transpile_native

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
        check_shots(self.shots)
        check_phase_bits(self.t)
        if not (_is_count(self.shots) and _is_count(self.t)):  # the report is JSON
            raise ValueError(f"shots and t must be plain ints, not {self.shots!r} and {self.t!r}")
        if not _is_count(self.seed):  # so one spec always gives one report
            raise ValueError(f"seed must be a plain int >= 0, not {self.seed!r}")
        if not (is_plain_real(self.delta) and 0 < self.delta < 1):
            raise ValueError(f"delta must be a float in (0, 1), not {self.delta!r}")
        angle = self.acceptance_angle
        if angle is not None and not (is_plain_real(angle) and 0 <= angle <= pi / 2):
            raise ValueError(
                f"acceptance angle must be None or lie in [0, pi/2] as a float or int, "
                f"not {angle!r}"
            )
        if self.encoding not in SPECTRAL_WALKS:
            raise ValueError(f"unknown encoding {self.encoding!r}")

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
        1s, every count a non-negative ``int``, and the counts must sum to
        ``spec.shots`` (spectral-check has no histogram).  The derived counts
        (lcu-qae's ``mean_estimate_histogram``, dual-overlap's
        ``zero_outcomes``) must be non-negative ``int`` too.  Otherwise
        ``SchemaError``.
        """
        try:
            report = cls(
                ExperimentSpec.from_dict(obj["spec"]),
                tuple(obj["bit_order"]),
                dict(obj["histogram"]),
                obj["success_count"],
                dict(obj["derived"]),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed report: {exc}") from exc
        width = len(report.bit_order)
        for key, count in report.histogram.items():
            if not isinstance(key, str) or len(key) != width or not set(key) <= {"0", "1"}:
                raise SchemaError(f"malformed report: histogram key {key!r} is not {width} bits")
            if not _is_count(count):
                raise SchemaError(f"malformed report: count {count!r} of {key} is not a non-negative int")
        total, shots = sum(report.histogram.values()), report.spec.shots
        if report.spec.name != "spectral-check" and total != shots:
            raise SchemaError(f"malformed report: histogram total {total} is not spec.shots {shots}")
        derived = report.derived
        if report.spec.name == "lcu-qae":
            estimates = derived.get("mean_estimate_histogram")
            if not isinstance(estimates, dict) or not all(map(_is_count, estimates.values())):
                raise SchemaError("malformed report: mean_estimate_histogram is not a table of counts")
        if report.spec.name == "dual-overlap" and not _is_count(derived.get("zero_outcomes")):
            raise SchemaError("malformed report: zero_outcomes is not a non-negative int")
        return report


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


# -- pipelines -----------------------------------------------------------------


def _lcu_prep(delta: float) -> Circuit:
    """H on c, three c-controlled two-unitary walk steps (control on the core gates), H on c."""
    theta = acos(sqrt(1 - delta))
    circ = Circuit(["c", "a", "x"])
    circ.h("c")
    for _ in range(3):
        circ.ry(2 * theta, "a")
        circ.x("x", controls=("c", "a"))
        circ.ry(-2 * theta, "a")
        circ.z("a", controls=("c",))
    return circ.h("c")


def lcu_state_prep_circuit(delta: float) -> Circuit:
    circ = _lcu_prep(delta)
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
        circ.reflection(row_prep, ["y"], controls=("c",))
    circ.h("c")
    circ.measure("x", "y", "c")
    return circ.freeze()


def cswap_state_prep_circuit(acceptance_angle: float) -> Circuit:
    theta = acceptance_angle
    circ = Circuit(["p", "x", "y", "coin"])
    circ.h("x")  # uniform stationary state on x
    prep = Circuit(["x", "y", "coin"]).cx("x", "y").x("y").ry(-2 * theta, "coin")
    circ.extend(prep.ops)
    circ.h("p")
    # Controlled walk: controlled swap, then the controlled reflection.
    circ.swap("x", "y", controls=("coin", "p"))
    circ.reflection(prep, ["y", "coin"], controls=("p",))
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
    circ = Circuit(["c", "a", "x", "f", "j1", "j0"])
    circ.extend(_lcu_prep(delta).ops)
    oracle = indicator_oracle().circuit.renamed({"x0": "x"})
    circ.extend(oracle.ops)
    # prep network of the target state: uniform state on x, then oracle.
    prep = Circuit(["x", "f"]).ry(pi / 2, "x").extend(oracle.ops)
    circ.h("j0").h("j1")
    # Controlled reflection walk: j0 applies it once, j1 twice.
    for ctrl in ("j0", "j1", "j1"):
        circ.reflection(prep, ["x", "f"], controls=(ctrl,))
        circ.z("f", controls=(ctrl,))
    inverse_qft_ops(circ, ["j0", "j1"])  # swap-free: j0 carries the high phase bit
    circ.measure("x", "c", "j1", "j0", "f", "a")
    return circ.freeze()


def dual_eigenstate_circuits(acceptance_angle: float) -> tuple[Circuit, Circuit, float]:
    """(V circuit, V + walk circuit, dense invariance norm)."""
    walk, v_prep = dual_walk(acceptance_angle)
    v_only = v_prep.copy().measure(*DUAL_QUBITS)
    walked = v_prep.copy().extend(walk.circuit.ops).measure(*DUAL_QUBITS)
    v_state = statevector_of(v_prep)
    norm = float(np.linalg.norm(walk.total @ v_state.amps - v_state.amps))
    return v_only.freeze(), walked.freeze(), norm


def dual_overlap_circuit(acceptance_angle: float) -> Circuit:
    walk, v_prep = dual_walk(acceptance_angle)
    circ = v_prep.copy().extend(walk.circuit.ops).extend(v_prep.inverse().ops)
    circ.measure(*DUAL_QUBITS)
    return circ.freeze()


# -- execution ------------------------------------------------------------------


def _counts(circuit: Circuit, spec: ExperimentSpec, seed=None) -> dict[str, int]:
    """Histogram of a pipeline's readout at the spec's shots, seed (or ``seed``) and noise.

    A zero noise model skips transpilation (there are no noise sites to
    attach to), so it samples the logical circuit like the noiseless path.
    """
    noise = ZERO_NOISE if spec.noise is None else spec.noise
    if noise.attach == "native" and not noise.is_zero:
        circuit = transpile_native(circuit).circuit
    return sample_with_noise(circuit, noise, spec.shots, spec.seed if seed is None else seed)


def _zero_at(counts: dict[str, int], position: int) -> dict[str, int]:
    """The outcomes whose bit at ``position`` reads 0."""
    return {k: c for k, c in counts.items() if k[position] == "0"}


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


def _run_lcu_state_prep(spec: ExperimentSpec) -> ExperimentReport:
    circ = lcu_state_prep_circuit(spec.delta)
    bits = circ.measured()
    counts = _counts(circ, spec)
    cond_x = _marginal(_zero_at(counts, 1), [0])
    success = sum(cond_x.values())
    uniform = {b: 1 for b in ("0", "1")}
    derived = {
        "success_rate": success / spec.shots,
        "conditional_x": dict(sorted(cond_x.items())),
        "conditional_x_tvd_from_uniform": tvd(cond_x, uniform) if success else None,
    }
    return ExperimentReport(spec, bits, counts, success, derived)


def _run_szegedy(spec: ExperimentSpec) -> ExperimentReport:
    circ = szegedy_state_prep_circuit(spec.delta)
    bits = circ.measured()
    counts = _counts(circ, spec)
    conditional = _zero_at(counts, 2)
    success = sum(conditional.values())
    joint = _marginal(conditional, [0, 1])
    derived = {
        "success_rate": success / spec.shots,
        "conditional_joint_xy": dict(sorted(joint.items())),
        "conditional_x": dict(sorted(_marginal(conditional, [0]).items())),
    }
    return ExperimentReport(spec, bits, counts, success, derived)


def _run_cswap(spec: ExperimentSpec) -> ExperimentReport:
    circ = cswap_state_prep_circuit(spec.angle())
    raw = _counts(circ, spec)
    # Reference tables carry a fifth, always-zero compilation ancilla bit.
    counts = {k + "0": c for k, c in raw.items()}
    bits = circ.measured() + ("sc",)
    success = sum(_zero_at(counts, 0).values())
    derived = {
        "phase0_count": success,
        "x_marginal": dict(sorted(_marginal(counts, [1]).items())),
        "delta": float(np.sin(spec.angle()) ** 2),
    }
    return ExperimentReport(spec, bits, counts, success, derived)


def _run_lcu_qae(spec: ExperimentSpec) -> ExperimentReport:
    circ = lcu_qae_circuit(spec.delta, spec.t)
    bits = circ.measured()
    counts = _counts(circ, spec)
    estimates = _mean_estimates(counts)
    success = sum(estimates.values())
    derived = {
        "prep_success_count": success,
        "mean_estimate_histogram": estimates,
        "expected_mean": 0.5,
    }
    return ExperimentReport(spec, bits, counts, success, derived)


def _mean_estimates(counts: dict[str, int]) -> dict[str, int]:
    """lcu-qae mean-estimate histogram of the prep successes, keyed by estimate."""
    estimates: dict[str, int] = {}
    for k, c in _zero_at(counts, 1).items():  # post-filter on preparation success
        # Wire j0 carries the high bit of the two-bit phase value.
        phase_k = (int(k[3]) << 1) | int(k[2])
        key = f"{mean_estimate_from_phase(phase_k, 2):g}"
        estimates[key] = estimates.get(key, 0) + c
    return dict(sorted(estimates.items()))


def _run_dual_eigenstate(spec: ExperimentSpec) -> ExperimentReport:
    v_circ, walked_circ, invariance = dual_eigenstate_circuits(spec.angle())
    bits = v_circ.measured()
    counts = _counts(v_circ, spec, (spec.seed, 0))
    walked = _counts(walked_circ, spec, (spec.seed, 1))
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
    bits = circ.measured()
    counts = _counts(circ, spec)
    zeros = counts.get("0" * 6, 0)
    derived = {
        "zero_outcomes": zeros,
        "overlap_estimate": zeros / spec.shots,
    }
    return ExperimentReport(spec, bits, counts, zeros, derived)


# The lambdas look each walk builder up by name when called, so a rebinding
# of the module name (a tracer, a test's monkeypatch) reaches them.
SPECTRAL_WALKS = {
    "lcu": lambda spec: lcu_walk(spec.delta),
    "szegedy": lambda spec: szegedy_walk(two_state_kernel(spec.delta)),
    "cswap": lambda spec: cswap_walk(flip_proposal(), spec.angle()),
    "dual": lambda spec: dual_walk(spec.angle())[0],
}


def _run_spectral_check(spec: ExperimentSpec) -> ExperimentReport:
    report = check_spectral_correspondence(SPECTRAL_WALKS[spec.encoding](spec))
    derived = {"spectral": report.to_dict(), "encoding": spec.encoding}
    return ExperimentReport(spec, (), {}, None, derived)


_RUNNERS = {
    "lcu-state-prep": _run_lcu_state_prep,
    "lcu-qae": _run_lcu_qae,
    "szegedy-state-prep": _run_szegedy,
    "cswap-state-prep": _run_cswap,
    "dual-eigenstate": _run_dual_eigenstate,
    "dual-overlap": _run_dual_overlap,
    "spectral-check": _run_spectral_check,
}
EXPERIMENT_NAMES = tuple(_RUNNERS)


def run(spec: ExperimentSpec) -> ExperimentReport:
    """Build, execute and post-process the named experiment."""
    return _RUNNERS[spec.name](spec)


# -- comparisons ----------------------------------------------------------------


def compare(report: ExperimentReport, source: str = "expected") -> dict:
    """TVD and per-outcome z-scores of a report against a reference dataset.

    ``source`` is 'expected' or a device name.  Device rows are informational:
    they carry hardware noise and are not a correctness contract.  Every
    table on the report's side is computed from its histogram.
    """
    name = report.spec.name
    if name == "spectral-check":
        raise SchemaError("spectral-check has no measurement reference")
    ref = experiment_reference(name)
    if tuple(ref["bit_order"]) != tuple(report.bit_order):
        raise SchemaError(
            f"bit order mismatch: report {report.bit_order} vs reference {ref['bit_order']}"
        )
    if name == "lcu-qae":
        mine = _mean_estimates(report.histogram)
        table = reference_table(name, source, "estimates")
        theirs = {f"{float(k):g}": v for k, v in table.items()}
    elif name == "dual-overlap":
        zeros = report.histogram.get("0" * len(report.bit_order), 0)
        mine = {"zero": zeros, "other": sum(report.histogram.values()) - zeros}
        z = reference_table(name, source, "summary")["zero_outcomes"]
        theirs = {"zero": z, "other": ref["shots"] - z}
    else:
        mine = report.histogram
        theirs = reference_table(name, source, "counts")
        widths = {len(k) for k in list(theirs) + list(mine)}
        if len(widths) > 1:
            raise SchemaError(f"outcome spaces differ in width: {sorted(widths)}")
    return _histogram_comparison(mine, theirs, source)


def _histogram_comparison(mine: dict[str, int], theirs: dict[str, int], source: str) -> dict:
    """TVD and z-scores of ``mine`` against ``theirs``; the TVD is None when ``mine`` is empty."""
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
        "tvd": tvd(mine, theirs) if n_mine else None,
        "z_scores": z_scores,
    }


def run_with_comparison(spec: ExperimentSpec, source: str = "expected") -> ExperimentReport:
    report = run(spec)
    if spec.name == "spectral-check":
        return report
    return replace(report, comparison=compare(report, source))


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
        counts = transpile_native(circ).counts
        total = sum(counts.values())
        reference = gate_reference(name)
        entry = {"counts": counts, "reference": reference, "total": total, "qubits": circ.num_qubits}
        for kind, ref in (reference or {}).items():
            have = total if kind == "total" else counts.get(kind, 0)
            if ref > 0 and have > 2 * ref:  # a "qubits" entry has no count, so it never warns
                entry.setdefault("warnings", []).append(f"{kind}: {have} gates vs reference {ref} (> 2x)")
        out[name] = entry
    return out
