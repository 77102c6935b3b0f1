"""Dense complex statevector simulator.

Circuit evolution, terminal-measurement collapse, shot sampling,
post-selection and overlaps for up to 16 qubits.  Gates reach a state only
through a ``Circuit`` (``statevector_of``, ``simulate``); the kernel itself is
``qmcmc._apply``.  Basis-state indexing is fixed package-wide: with register
order (q0, q1, ..., q_{n-1}), qubit q0 is the most significant index bit.

Shot sampling draws each shot from an independent counter-based stream keyed
by (seed, shot_index), so shots can be evaluated in any order, in parallel,
or in batches without changing the results.  The outcome uniforms of all
shots come from one vectorized pass, ``rng.first_uniforms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ._apply import evolve, marginal_probabilities
from .circuit import Circuit
from .config import BRANCH_NORM_CUTOFF, NORM_TOL, POST_SELECT_CUTOFF
from .errors import PostSelectImpossible
from .rng import first_uniforms

MAX_QUBITS = 16


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude array over an ordered qubit register set."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"supported qubit counts are 1..{MAX_QUBITS}")
        amps = np.array(self.amps, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(f"expected {2**self.num_qubits} amplitudes, got {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def zero_state(num_qubits: int) -> StateVector:
    return basis_state(num_qubits, 0)


def basis_state(num_qubits: int, index: int) -> StateVector:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def from_amplitudes(amps) -> StateVector:
    amps = np.asarray(amps, dtype=complex)
    n = int(np.log2(amps.shape[0]))
    if 2**n != amps.shape[0]:
        raise ValueError("amplitude count must be a power of two")
    return StateVector(n, amps)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    state: StateVector
    measurements: dict[str, int]


def simulate(circuit: Circuit, rng: np.random.Generator | None = None) -> SimulationResult:
    """Run a circuit from |0...0>, then collapse on its terminal measurements.

    Measured qubits collapse one at a time in readout order, each with one
    ``rng.random()`` inverted through ``invert_cdf``.
    """
    if rng is None and circuit.has_measurement():
        raise ValueError("circuit contains measurements; provide an rng")
    state = _evolved(circuit)
    outcomes: dict[str, int] = {}
    for name in circuit.measured():
        q = circuit.index_of(name)
        probs = marginal_probabilities(state.amps, (q,), state.num_qubits)[0]
        bit = int(invert_cdf(probs, rng.random()))
        state = _project(state, q, bit)
        outcomes[name] = bit
    return SimulationResult(state, outcomes)


def statevector_of(circuit: Circuit) -> StateVector:
    """Final state of a measurement-free circuit run from |0...0>."""
    if circuit.has_measurement():
        raise ValueError("circuit contains measurements; simulate it with an rng")
    return _evolved(circuit)


def _evolved(circuit: Circuit) -> StateVector:
    """State after the circuit's gates, from |0...0>; measure ops are skipped."""
    n = circuit.num_qubits
    batch = zero_state(n).amps.reshape((1,) + (2,) * n)
    return StateVector(n, evolve(batch, circuit.gates()).reshape(-1))


def _project(state: StateVector, qubit: int, value: int) -> StateVector:
    """Collapse onto ``qubit`` reading ``value`` and renormalize."""
    nd = state.amps.reshape((2,) * state.num_qubits).copy()
    nd[(slice(None),) * qubit + (1 - value,)] = 0.0
    flat = nd.reshape(-1)
    norm = np.linalg.norm(flat)
    if norm < BRANCH_NORM_CUTOFF:
        raise PostSelectImpossible(f"qubit {qubit} = {value} has zero probability")
    return StateVector(state.num_qubits, flat / norm)


def post_select(state: StateVector, qubit: int, value: int) -> tuple[StateVector, float]:
    """Condition on one qubit reading ``value``; returns (collapsed state, probability)."""
    if value not in (0, 1):
        raise ValueError("post-selected value must be 0 or 1")
    probs = marginal_probabilities(state.amps, (qubit,), state.num_qubits)[0]
    prob = float(probs[value])
    if prob <= POST_SELECT_CUTOFF:
        raise PostSelectImpossible(
            f"qubit {qubit} = {value} has probability {prob:.3e} <= cutoff"
        )
    return _project(state, qubit, value), prob


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("overlap requires equal qubit counts")
    return complex(np.vdot(a.amps, b.amps))


def sample(
    state: StateVector, qubits: tuple[int, ...] | list[int], shots: int, seed: int
) -> dict[str, int]:
    """Histogram of bitstrings over ``qubits`` (in that order) for seeded shots."""
    qubits = tuple(qubits)
    probs = marginal_probabilities(state.amps, qubits, state.num_qubits)[0]
    return sample_from_probabilities(probs, len(qubits), shots, seed)


def sample_from_probabilities(
    probs: np.ndarray, num_bits: int, shots: int, seed: int
) -> dict[str, int]:
    """Draw one uniform per shot from its own stream and invert the CDF.

    This exact draw discipline (outcome uniform is the first draw of each
    shot's stream) is shared with the noise-trajectory engine, which makes
    the all-zero noise model reproduce noiseless histograms bit-exactly.
    ``first_uniforms`` evaluates those first draws for every shot at once,
    with no per-shot generator.
    """
    check_shots(shots)
    u = first_uniforms(seed, np.arange(shots, dtype=np.uint64))
    return outcome_counts(invert_cdf(probs, u), num_bits)


def check_shots(shots) -> None:
    """Raise ``ValueError`` unless ``shots`` is an integral, non-``bool`` count in [1, 2**64]."""
    if not isinstance(shots, Integral) or isinstance(shots, bool) or shots < 1:
        raise ValueError(f"shots must be an int >= 1, not {shots!r}")
    if shots > 2**64:  # ShotStreams seats shot indices below 2**64
        raise ValueError(f"shots must be at most 2**64 (one shot stream each), not {shots}")


def invert_cdf(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome index for each uniform in ``u`` under the law ``probs``.

    The inversion rule of both shot samplers, of ``simulate`` and of
    ``noise.apply_trajectory``: ``searchsorted(side="right")`` on the CDF, whose last entry is raised to at least 1 so that rounding
    cannot leave a uniform beyond it, clamped to the last outcome.
    """
    cum = np.cumsum(probs)
    cum[-1] = max(cum[-1], 1.0)
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def outcome_counts(outcomes: np.ndarray, num_bits: int) -> dict[str, int]:
    """Histogram of outcome indices, keyed by ``num_bits``-wide bitstrings."""
    counts = np.bincount(outcomes)
    return {format(int(k), f"0{num_bits}b"): int(counts[k]) for k in np.flatnonzero(counts)}
