"""Stationary-state preparation and mean estimation on qubitized walks.

Preparation runs single-bit phase estimation of a walk power against a
control qubit and post-selects the 0 outcome, which filters the input onto
the walk's +1 eigenvector.  Mean estimation applies a function oracle to any
input state, giving |psi>, and phase-estimates the dense walk
W = Z_f (2|psi><psi| - 1); measured phases convert to mean estimates through
the cosine map, and a phase register of t bits resolves exactly those means
whose phases are multiples of 1/2^t.

Phase estimation has one route for circuit and matrix inputs: a circuit is
first turned into its dense unitary u.  The 2^t rows u^m psi, m < 2^t, come
from doubling with the powers u^(2^j) of repeated squaring, and the inverse
QFT of sum_m |m> u^m psi is a DFT over m, so the phase law is one FFT down
the rows; no gate touches the 2^(t+n) register.  ``qpe_circuit`` builds the
textbook gate-level circuit with 2^t - 1 controlled copies of the walk; the
tests evolve it as the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, pi, sqrt
from numbers import Integral

import numpy as np

from ._apply import check_dense_bytes, evolve, gram_deviation
from .circuit import _FIXED, Circuit, controlled, unitary_of
from .config import UNITARY_TOL
from .errors import NotUnitary
from .spue import WalkOperator
from .statevector import (
    StateVector,
    from_amplitudes,
    post_select,
    sample_from_probabilities,
)


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
        if values.ndim != 1 or not values.size:
            raise ValueError(
                f"a function table is a non-empty 1-D list of values, not shape {values.shape}"
            )
        if not np.all((values >= 0) & (values <= 1)):  # NaN fails both
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
            if not float(np.max(np.abs(col - expect))) <= UNITARY_TOL:
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
    check_phase_bits(t)
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

    A circuit input is converted once with ``unitary_of``, whose
    ``DENSE_BYTES`` budget limits circuits to 11 qubits.  A matrix input must
    be unitary within ``UNITARY_TOL``.  Row m of a
    ``(2**t, dim)`` array holds u^m psi, built by doubling: rows 2^j to
    2^(j+1) - 1 are rows 0 to 2^j - 1 times u^(2^j).  The inverse QFT of
    sum_m |m> u^m psi is a DFT over m, so k reads with probability
    ``sum_d |fft(rows, axis=0)[k, d]|**2 / 4**t``, the law of the textbook
    circuit with phase wire 0 as the most significant bit of k.  The rows'
    ``16 * 2**t * dim`` bytes must fit in ``DENSE_BYTES`` too.
    """
    dim = input_state.dim
    _check_phase_register(t, dim)
    if isinstance(unitary, Circuit):
        u = unitary_of(unitary)  # unitary by construction
    else:
        u = np.asarray(unitary, dtype=complex)
        err = gram_deviation(u) if u.shape == (dim, dim) else 0.0  # a wrong shape fails below
        if not err <= UNITARY_TOL:
            raise NotUnitary(f"matrix deviates from unitarity by {err:.3e}")
    if u.shape != (dim, dim):
        raise ValueError("unitary dimension does not match input state")
    rows = np.empty((2**t, dim), dtype=complex)
    rows[0] = input_state.amps
    power = u
    for j in range(t):
        if j:
            power = power @ power
        rows[2**j : 2 ** (j + 1)] = rows[: 2**j] @ power.T
    # np.fft is loaded on first use, so importing the package does not load it.
    probs = np.sum(np.abs(np.fft.fft(rows, axis=0)) ** 2, axis=1) / 4**t
    raw = sample_from_probabilities(probs, t, shots, seed)
    # Phase wire 0 carries the most significant bit of k.
    return PhaseEstimate(t, {int(bits, 2): count for bits, count in raw.items()})


def check_phase_bits(t) -> None:
    """Raise ``ValueError`` unless ``t`` is an integral, non-``bool`` number of bits >= 1."""
    if not isinstance(t, Integral) or isinstance(t, bool) or t < 1:
        raise ValueError(f"phase register needs an int number of bits >= 1, not {t!r}")


def _check_phase_register(t, dim: int) -> None:
    """Raise ``ValueError`` unless ``t`` is a bit count whose ``(2**t, dim)`` rows fit the budget."""
    check_phase_bits(t)
    holds = f"phase estimation holds 2**t rows of {dim} amplitudes"
    check_dense_bytes(16 * 2 ** int(t) * dim, holds, f"t = {t} exceeds")


def _padded(state: StateVector, extra: int) -> np.ndarray:
    """|0...0> (x) state with ``extra`` leading qubits, as a batch of one."""
    amps = np.zeros(2**extra * state.dim, dtype=complex)
    amps[: state.dim] = state.amps
    return amps.reshape((1,) + (2,) * (extra + state.num_qubits))


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
    h = _FIXED["h"]
    gates = ((h, (0,), ()), (w_pow, system, (0,)), (h, (0,), ()))
    state = from_amplitudes(evolve(_padded(initial, 1), gates).reshape(-1))
    selected, prob = post_select(state, 0, 0)
    kept = selected.amps[: initial.dim]
    return from_amplitudes(kept / np.linalg.norm(kept)), prob


# -- mean estimation -------------------------------------------------------------


def mean_estimate_from_phase(k: int, t: int) -> float:
    """Map a measured t-bit phase to a mean estimate via the cosine."""
    k_eff = min(k % 2**t, 2**t - k % 2**t)  # cosine evenness: k and 2^t - k agree
    return round((cos(2 * pi * k_eff / 2**t) + 1) / 2, 12)


def qae_mean(
    pi_state: StateVector,
    oracle: FunctionOracle,
    t: int,
    shots: int,
    seed: int,
) -> dict[float, int]:
    """Amplitude-estimation histogram of mean estimates for E_pi(f).

    Applies the oracle to pi_state with a fresh flag qubit, giving
    |psi> = O(|pi>|0>), then phase-estimates the qubitized walk
    W = Z_f (2|psi><psi| - 1) on |psi>.  W is built as the dense matrix it
    is, so any normalized state works, complex and negative amplitudes
    included.
    """
    if pi_state.num_qubits != oracle.num_state_qubits:
        raise ValueError("state register size does not match oracle")
    _check_phase_register(t, 2 * pi_state.dim)  # the walk adds the flag qubit
    psi = oracle.matrix() @ np.kron(pi_state.amps, [1.0, 0.0])
    psi /= np.linalg.norm(psi)  # a matrix input must be unitary within UNITARY_TOL
    reflection = 2 * np.outer(psi, psi.conj()) - np.eye(len(psi))
    walk = np.tile([1.0, -1.0], pi_state.dim)[:, None] * reflection  # Z on the flag
    pe = phase_estimation(walk, from_amplitudes(psi), t, shots, seed)
    histogram: dict[float, int] = {}
    for k, count in pe.histogram.items():
        est = mean_estimate_from_phase(k, t)
        histogram[est] = histogram.get(est, 0) + count
    return histogram
