"""Stationary-state preparation and mean estimation on qubitized walks.

Preparation runs single-bit phase estimation of a walk power against a
control qubit and post-selects the 0 outcome, which filters the input onto
the walk's +1 eigenvector.  Mean estimation applies a function oracle to the
stationary state and phase-estimates the qubitized walk of the reflection
about the resulting state; measured phases convert to mean estimates through
the cosine map, and a phase register of t bits resolves exactly those means
whose phases are multiples of 1/2^t.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import atan2, cos, pi, sqrt

import numpy as np

from ._apply import evolve, marginal_probabilities
from .circuit import Circuit, controlled, unitary_of
from .config import PREP_INPUT_TOL, UNITARY_TOL
from .spue import WalkOperator
from .statevector import (
    StateVector,
    from_amplitudes,
    post_select,
    sample_from_probabilities,
)


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


# -- function oracles ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FunctionOracle:
    """Unitary access to f: maps |x, 0> to sqrt(f(x))|x, 0> + sqrt(1-f(x))|x, 1>."""

    values: np.ndarray
    num_state_qubits: int
    circuit: Circuit

    @classmethod
    def from_table(cls, values, num_state_qubits: int | None = None) -> "FunctionOracle":
        values = np.asarray(values, dtype=float)
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("function values must lie in [0, 1]")
        if num_state_qubits is None:
            num_state_qubits = max(1, int(np.ceil(np.log2(len(values)))))
        if len(values) > 2**num_state_qubits:
            raise ValueError("too many table entries for the state register")
        padded = np.zeros(2**num_state_qubits)
        padded[: len(values)] = values
        names = [f"x{i}" for i in range(num_state_qubits)] + ["f"]
        circ = Circuit(names)
        # Flag rotation per state: |0> -> sqrt(f)|0> + sqrt(1-f)|1>.
        angles = [2 * atan2(sqrt(max(1 - f, 0.0)), sqrt(f)) for f in padded]
        _multiplexed_ry(circ, names[:-1], "f", angles)
        circ.freeze()
        oracle = cls(padded, num_state_qubits, circ)
        oracle._verify()
        return oracle

    def matrix(self) -> np.ndarray:
        return unitary_of(self.circuit)

    def _verify(self):
        u = self.matrix()
        for x, f in enumerate(self.values):
            col = u[:, x << 1]
            expect = np.zeros_like(col)
            expect[x << 1] = sqrt(f)
            expect[(x << 1) | 1] = sqrt(1 - f)
            if float(np.max(np.abs(col - expect))) > UNITARY_TOL:
                raise ValueError(f"oracle column for state {x} deviates from contract")


def _multiplexed_ry(circ: Circuit, selectors: list[str], target: str, angles: list[float]):
    """Uniformly controlled Ry: rotation angle angles[k] for selector value k."""
    if len(angles) == 1:
        if abs(angles[0]) > 1e-15:
            circ.ry(angles[0], target)
        return
    half = len(angles) // 2
    low, high = np.asarray(angles[:half]), np.asarray(angles[half:])
    # Standard demultiplexing on the most significant selector.
    _multiplexed_ry(circ, selectors[1:], target, list((low + high) / 2))
    circ.cx(selectors[0], target)
    _multiplexed_ry(circ, selectors[1:], target, list((low - high) / 2))
    circ.cx(selectors[0], target)


def state_prep_circuit(probabilities, qubits: list[str]) -> Circuit:
    """Amplitude-tree preparation of sum_x sqrt(p(x)) |x> for nonnegative p."""
    probs = np.asarray(probabilities, dtype=float)
    n = len(qubits)
    if probs.shape != (2**n,):
        raise ValueError("probability vector must have one entry per basis state")
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > PREP_INPUT_TOL:
        raise ValueError("need a normalized nonnegative probability vector")
    circ = Circuit(qubits)
    for level in range(n):
        blocks = probs.reshape(2**level, -1)
        mass = blocks.sum(axis=1)
        halves = blocks.reshape(2**level, 2, -1).sum(axis=2)
        angles = [
            2 * atan2(sqrt(halves[k, 1]), sqrt(halves[k, 0])) if mass[k] > 1e-15 else 0.0
            for k in range(2**level)
        ]
        _multiplexed_ry(circ, qubits[:level], qubits[level], angles)
    return circ.freeze()


# -- phase estimation ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PhaseEstimate:
    """Counts per t-bit phase value k; measured phase is k / 2^t."""

    t: int
    histogram: dict[int, int]


def inverse_qft_ops(circ: Circuit, wires: list[str]):
    """Swap-free inverse QFT; wire wires[j] ends up carrying bit 2^(t-1-j) of k."""
    t = len(wires)
    for j in range(t - 1, -1, -1):
        for i in range(t - 1, j, -1):
            circ.phase(-2 * pi / 2 ** (i - j + 1), wires[j], controls=(wires[i],))
        circ.h(wires[j])


def qpe_circuit(walk_circuit: Circuit, t: int) -> tuple[Circuit, list[str]]:
    """Textbook phase estimation of a circuit-realized unitary.

    Controlled powers are built by repeated controlled application of the
    walk circuit.  Returns the circuit and the phase wires in readout order
    (most significant bit first).
    """
    if t < 1:
        raise ValueError("phase register needs at least one bit")
    phase_wires = [f"ph{j}" for j in range(t)]
    qubits = phase_wires + list(walk_circuit.qubits)
    circ = Circuit(qubits)
    for w in phase_wires:
        circ.h(w)
    for j, wire in enumerate(phase_wires):
        powered = controlled(walk_circuit, wire)
        for _ in range(2**j):
            circ.extend(powered.ops)
    inverse_qft_ops(circ, phase_wires)
    # Bit of weight 2^(t-1-j) lands on phase_wires[j]: MSB first on wire 0.
    return circ.freeze(), phase_wires


def phase_estimation(
    unitary: Circuit | np.ndarray,
    input_state: StateVector,
    t: int,
    shots: int,
    seed: int,
) -> PhaseEstimate:
    """Phase-estimate a unitary on a prepared input state.

    Circuit inputs run gate-by-gate with repeated controlled application;
    matrix inputs use dense controlled matrix powers (verification mode).
    """
    if t < 1:
        raise ValueError("phase register needs at least one bit")
    n_sys = input_state.num_qubits
    dim = input_state.dim
    if isinstance(unitary, Circuit):
        if unitary.num_qubits != n_sys:
            raise ValueError("unitary dimension does not match input state")
        circ, wires = qpe_circuit(unitary, t)
        gates = circ.gates()
        wire_index = tuple(circ.index_of(w) for w in wires)
    else:
        u = np.asarray(unitary, dtype=complex)
        if u.shape != (dim, dim):
            raise ValueError("unitary dimension does not match input state")
        iqft = Circuit([f"ph{j}" for j in range(t)])
        inverse_qft_ops(iqft, list(iqft.qubits))
        gates = chain(
            ((_H, (j,), ()) for j in range(t)),
            _controlled_powers(u, t, tuple(range(t, t + n_sys))),
            iqft.gates(),
        )
        wire_index = tuple(range(t))

    final = evolve(_padded(input_state, t), gates)
    probs = marginal_probabilities(final, wire_index, t + n_sys)[0]
    raw = sample_from_probabilities(probs, t, shots, seed)
    histogram: dict[int, int] = {}
    for bits, count in raw.items():
        k = sum(int(b) << (t - 1 - j) for j, b in enumerate(bits))
        histogram[k] = histogram.get(k, 0) + count
    return PhaseEstimate(t, histogram)


def _controlled_powers(u: np.ndarray, t: int, system: tuple[int, ...]):
    """u^(2^j) on the system register, controlled by phase wire j, for j < t."""
    power = u
    for j in range(t):
        yield power, system, (j,)
        power = power @ power


def _padded(state: StateVector, extra: int) -> np.ndarray:
    """|0...0> (x) state with ``extra`` leading qubits, as a batch of one."""
    amps = np.zeros(2**extra * state.dim, dtype=complex)
    amps[: state.dim] = state.amps
    return amps.reshape((1,) + (2,) * (extra + state.num_qubits))


def qpe_point_mass_distribution(phase: float, t: int) -> np.ndarray:
    """Exact QPE outcome law for one eigenphase: squared Dirichlet kernel."""
    n = 2**t
    ks = np.arange(n)
    amp = np.array(
        [np.sum(np.exp(2j * pi * np.arange(n) * (phase - k / n))) / n for k in ks]
    )
    return np.abs(amp) ** 2


# -- stationary-state preparation ----------------------------------------------


def prepare_stationary(
    walk: WalkOperator,
    initial: StateVector,
    reflection_power: int,
) -> tuple[StateVector, float]:
    """Single-bit phase estimation of walk^power with post-selection on 0.

    Hadamard on a fresh control, controlled walk power, Hadamard, select
    control = 0.  On success the returned register state is the projection of
    the input onto the walk's +1 eigenspace (exact when the chosen power maps
    all other input eigenphases to -1).
    """
    if reflection_power < 1:
        raise ValueError("reflection power must be >= 1")
    w_pow = np.linalg.matrix_power(walk.total, reflection_power)
    system = tuple(range(1, initial.num_qubits + 1))
    gates = ((_H, (0,), ()), (w_pow, system, (0,)), (_H, (0,), ()))
    state = from_amplitudes(evolve(_padded(initial, 1), gates).reshape(-1))
    selected, prob = post_select(state, 0, 0)
    kept = selected.amps[: initial.dim]
    return from_amplitudes(kept / np.linalg.norm(kept)), prob


# -- mean estimation -------------------------------------------------------------


def mean_estimate_from_phase(k: int, t: int) -> float:
    """Map a measured t-bit phase to a mean estimate via the cosine."""
    k_eff = min(k % 2**t, 2**t - k % 2**t)  # cosine evenness: k and 2^t - k agree
    return round((cos(2 * pi * k_eff / 2**t) + 1) / 2, 12)


def reflection_walk_circuit(prep: Circuit, flag: str) -> Circuit:
    """Qubitized walk of the reflection about prep|0> against the flag's |0>.

    The reflection is prep (2|0><0| - 1) prep^dag over all prep qubits; the
    walk multiplies it by Z on the flag.
    """
    circ = Circuit(prep.qubits)
    circ.extend(prep.inverse().ops)
    circ.zero_reflection(list(prep.qubits))
    circ.extend(prep.ops)
    circ.z(flag)
    return circ.freeze()


def qae_mean(
    pi_state: StateVector,
    oracle: FunctionOracle,
    t: int,
    shots: int,
    seed: int,
) -> dict[float, int]:
    """Amplitude-estimation histogram of mean estimates for E_pi(f).

    Applies the oracle to pi_state with a fresh flag qubit, then
    phase-estimates the qubitized walk of the reflection about the resulting
    state.  The reflection preparation network is rebuilt from pi_state's
    probabilities, so the input must have nonnegative real amplitudes (true
    for every coherent distribution encoding).
    """
    if t < 1:
        raise ValueError("phase register needs at least one bit")
    if pi_state.num_qubits != oracle.num_state_qubits:
        raise ValueError("state register size does not match oracle")
    if float(np.max(np.abs(pi_state.amps.imag))) > PREP_INPUT_TOL or np.any(
        pi_state.amps.real < -PREP_INPUT_TOL
    ):
        raise ValueError("qae_mean requires a nonnegative-real input state")
    probs = pi_state.probabilities()
    x_names = list(oracle.circuit.qubits[:-1])
    prep = Circuit(list(oracle.circuit.qubits))
    prep.extend(state_prep_circuit(probs, x_names).ops)
    prep.extend(oracle.circuit.ops)
    prep.freeze()
    walk = reflection_walk_circuit(prep, flag="f")
    with_flag = np.kron(pi_state.amps, np.array([1.0, 0.0]))
    entangled = unitary_of(oracle.circuit) @ with_flag
    pe = phase_estimation(walk, from_amplitudes(entangled), t, shots, seed)
    histogram: dict[float, int] = {}
    for k, count in pe.histogram.items():
        est = mean_estimate_from_phase(k, t)
        histogram[est] = histogram.get(est, 0) + count
    return histogram
