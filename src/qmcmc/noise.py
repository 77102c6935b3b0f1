"""Stochastic Pauli noise via trajectory sampling.

Each shot follows a pure-state trajectory: after every gate, with
probability p1 or p2 (by gate arity) a uniformly random non-identity Pauli
hits the gate's qubits, and the bits of the terminal readout flip with
probability p_meas.

Draw discipline per shot stream (seed, shot_index): the terminal-outcome
uniform comes first, then the measurement-flip uniforms, then one uniform
per gate site (with a Pauli choice drawn on demand when a site fires).
Because the outcome uniform is the first draw, the all-zero model reproduces
noiseless sampling bit-exactly, and the batched engine reproduces the
sequential one, ``apply_trajectory``, exactly.  The all-zero model skips the
draws altogether: it evolves one statevector and inverts the CDF with
``statevector.sample_from_probabilities``, the noiseless sampler itself.

The batched engine separates the fault draws from state evolution.  It
draws every shot's fault pattern, the tuple of its ``(site, pauli)`` events,
and evolves each distinct pattern once; most shots share the fault-free
pattern.  Patterns are evolved as one batch, in chunks whose amplitudes stay
within a fixed byte budget, so memory grows with the budget and the shot
count rather than with ``shots * 2**n``.  Each shot then inverts the CDF of
its pattern's outcome law with its own outcome uniform.

Default rates are an order-of-magnitude stand-in for trapped-ion hardware,
not calibrated device numbers.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._apply import Gate, apply_matrix, apply_matrix_nd, evolve, marginal_probabilities
from .circuit import Circuit
from .errors import SchemaError
from .rng import ShotStreams, shot_rng
from .statevector import (
    StateVector,
    from_amplitudes,
    invert_cdf,
    outcome_counts,
    sample_from_probabilities,
    zero_state,
)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI_1Q = [_PAULI["x"], _PAULI["y"], _PAULI["z"]]

# Amplitude bytes of one batch of fault patterns evolved together.
_BATCH_BYTES = 64 << 20


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing rates per gate plus a measurement bit-flip rate."""

    p1: float = 2e-5
    p2: float = 1e-3
    p_meas: float = 1e-3
    attach: str = "native"

    def __post_init__(self):
        for name in ("p1", "p2", "p_meas"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        if self.attach not in ("native", "logical"):
            raise ValueError("attach must be 'native' or 'logical'")
        if self.p2 < self.p1:
            warnings.warn("two-qubit rate p2 below single-qubit rate p1", stacklevel=2)

    @property
    def is_zero(self) -> bool:
        return self.p1 == 0.0 and self.p2 == 0.0 and self.p_meas == 0.0

    def rate_for(self, num_qubits: int) -> float:
        return self.p1 if num_qubits == 1 else self.p2

    def to_json(self) -> str:
        return json.dumps(
            {"p1": self.p1, "p2": self.p2, "p_meas": self.p_meas, "attach": self.attach}
        )

    @classmethod
    def from_dict(cls, obj) -> "NoiseModel":
        """Model from the object that ``to_json`` writes; a missing rate is 0.0
        and a missing ``attach`` is ``"native"``.

        A non-object, an unknown key or a bad value raises ``SchemaError``.
        """
        if not isinstance(obj, dict):
            raise SchemaError(f"noise model must be a JSON object, got {type(obj).__name__}")
        unknown = sorted(set(obj) - {"p1", "p2", "p_meas", "attach"})
        if unknown:
            raise SchemaError(f"unknown noise model key(s): {', '.join(unknown)}")
        rates = {name: obj.get(name, 0.0) for name in ("p1", "p2", "p_meas")}
        for name, v in rates.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaError(f"noise rate {name} must be a number, got {v!r}")
        try:
            rates = {name: float(v) for name, v in rates.items()}
            return cls(**rates, attach=obj.get("attach", "native"))
        except (OverflowError, ValueError) as exc:
            raise SchemaError(f"malformed noise model: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "NoiseModel":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed noise model JSON: {exc}") from exc
        return cls.from_dict(obj)


ZERO_NOISE = NoiseModel(0.0, 0.0, 0.0)


@lru_cache(maxsize=1024)
def _pauli_matrix(num_qubits: int, index: int) -> np.ndarray:
    """index in 1..4^k-1 selects a non-identity Pauli string (base-4 digits).

    Cached, so the returned array is read-only.
    """
    mats = []
    for _ in range(num_qubits):
        digit = index % 4
        index //= 4
        mats.append(np.eye(2, dtype=complex) if digit == 0 else _PAULI_1Q[digit - 1])
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    out.setflags(write=False)
    return out


def _sites(circuit: Circuit, model: NoiseModel) -> tuple[list[Gate], np.ndarray, np.ndarray]:
    """Resolved gates (one noise site each) with their arities and fault rates."""
    gates = list(circuit.gates())
    arities = np.array([len(targets) + len(controls) for _, targets, controls in gates], dtype=int)
    return gates, arities, np.array([model.rate_for(int(k)) for k in arities])


def _measured(circuit: Circuit) -> list[str]:
    """Measured qubits in readout order."""
    return [op.targets[0] for op in circuit.ops if op.kind == "measure"]


def _shot_events(
    rng: np.random.Generator, site_u: np.ndarray, rates: np.ndarray, arities: np.ndarray
) -> tuple[tuple[int, int], ...]:
    """(site, pauli index) pairs for one trajectory, in site order.

    ``site_u`` holds the trajectory's site uniforms; the Pauli index of each
    site that fires is drawn from ``rng`` on demand.
    """
    return tuple(
        (int(site), 1 + int(rng.integers(4 ** int(arities[site]) - 1)))
        for site in np.flatnonzero(site_u < rates)
    )


def apply_trajectory(
    circuit: Circuit,
    model: NoiseModel,
    seed: int,
    shot_index: int,
) -> tuple[StateVector, dict[str, int]]:
    """Evolve one noise trajectory from |0...0>; deterministic per (seed, shot_index).

    Returns the final state before readout and the recorded, possibly
    flipped, bit of each measured qubit.  This is the sequential oracle of
    ``sample_with_noise``: it reads the same stream in the same order, so its
    outcomes match the batched sampler bit for bit.
    """
    n = circuit.num_qubits
    measured = _measured(circuit)
    gates, arities, rates = _sites(circuit, model)
    rng = shot_rng(seed, shot_index)
    u_out = rng.random()
    flip_u = rng.random(len(measured))
    events = dict(_shot_events(rng, rng.random(len(rates)), rates, arities))
    amps = zero_state(n).amps
    for site, (mat, targets, controls) in enumerate(gates):
        amps = apply_matrix(amps, mat, targets, controls, n)
        if site in events:
            qubits = controls + targets
            amps = apply_matrix(amps, _pauli_matrix(len(qubits), events[site]), qubits, (), n)
    state = from_amplitudes(amps)
    outcomes: dict[str, int] = {}
    if measured:
        idx = tuple(circuit.index_of(q) for q in measured)
        probs = marginal_probabilities(state.amps, idx, n)[0]
        bits = format(int(invert_cdf(probs, u_out)), f"0{len(measured)}b")
        for j, q in enumerate(measured):
            outcomes[q] = int(bits[j]) ^ int(flip_u[j] < model.p_meas)
    return state, outcomes


def sample_with_noise(
    circuit: Circuit,
    model: NoiseModel,
    shots: int,
    seed: int,
) -> dict[str, int]:
    """Histogram over the circuit's measured qubits, in readout order, from
    batched noise trajectories.

    The all-zero model evolves one statevector and samples it with
    ``sample_from_probabilities``, so it is the noiseless sampler bit for bit.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    measured = _measured(circuit)
    if not measured:
        raise ValueError("nothing to measure")
    n = circuit.num_qubits
    m = len(measured)
    idx = tuple(circuit.index_of(q) for q in measured)

    if model.is_zero:
        final = evolve(_ground_batch(1, n), circuit.gates())
        probs = marginal_probabilities(final, idx, n)[0]
        return sample_from_probabilities(probs, m, shots, seed)

    gates, arities, rates = _sites(circuit, model)
    u_out = np.empty(shots)
    flip_u = np.empty((shots, m))
    pattern_of_shot = np.empty(shots, dtype=np.intp)
    rows: dict[tuple[tuple[int, int], ...], int] = {}
    streams = ShotStreams(seed)
    for s in range(shots):
        rng = streams.shot(s)
        u = rng.random(1 + m + len(rates))
        u_out[s] = u[0]
        flip_u[s] = u[1 : 1 + m]
        pattern = _shot_events(rng, u[1 + m :], rates, arities)
        pattern_of_shot[s] = rows.setdefault(pattern, len(rows))

    patterns = list(rows)
    shots_of_row = np.split(
        np.argsort(pattern_of_shot, kind="stable"), np.cumsum(np.bincount(pattern_of_shot))[:-1]
    )
    chunk = max(1, _BATCH_BYTES // (16 * 2**n))
    outcomes = np.empty(shots, dtype=np.intp)
    for first in range(0, len(patterns), chunk):
        final = _evolve_patterns(patterns[first : first + chunk], gates, n)
        probs = marginal_probabilities(np.ascontiguousarray(final), idx, n)
        for row_probs, group in zip(probs, shots_of_row[first : first + chunk]):
            outcomes[group] = invert_cdf(row_probs, u_out[group])
    if model.p_meas > 0:
        weights = 1 << np.arange(m - 1, -1, -1)
        outcomes ^= (flip_u < model.p_meas) @ weights
    return outcome_counts(outcomes, m)


def _evolve_patterns(
    patterns: list[tuple[tuple[int, int], ...]], gates: list[Gate], num_qubits: int
) -> np.ndarray:
    """One final state per fault pattern, as a ``(len(patterns), 2, ..., 2)`` batch.

    Every gate acts on the whole batch; at each site, each distinct Pauli
    acts in one kernel call on just the rows whose pattern carries it.
    """
    faults: dict[int, dict[int, list[int]]] = {}
    for row, pattern in enumerate(patterns):
        for site, pauli in pattern:
            faults.setdefault(site, {}).setdefault(pauli, []).append(row)
    batch = _ground_batch(len(patterns), num_qubits)
    for site, (mat, targets, controls) in enumerate(gates):
        batch = apply_matrix_nd(batch, mat, targets, controls)
        qubits = controls + targets
        for pauli, rows in faults.get(site, {}).items():
            batch[rows] = apply_matrix_nd(
                batch[rows], _pauli_matrix(len(qubits), pauli), qubits, ()
            )
    return batch


def _ground_batch(size: int, num_qubits: int) -> np.ndarray:
    batch = np.zeros((size,) + (2,) * num_qubits, dtype=complex)
    batch.reshape(size, -1)[:, 0] = 1.0
    return batch
