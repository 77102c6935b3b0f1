"""Dense complex statevector simulator.

Circuit evolution, terminal-measurement collapse, shot sampling and
post-selection for up to 16 qubits.  Gates reach a state only
through a ``Circuit`` (``statevector_of``, ``simulate``); the kernel itself is
``qmcmc._apply``.  Basis-state indexing is fixed package-wide: with register
order (q0, q1, ..., q_{n-1}), qubit q0 is the most significant index bit.

Shot sampling draws each shot from an independent counter-based stream keyed
by (seed, shot_index), so shots can be evaluated in any order, in parallel,
or in batches without changing the results.  Both samplers, this module's and
the noise engine's, walk the shots in blocks of ``_SHOT_BLOCK`` through
``shot_block_counts`` and add each block's counts, so their memory does not
grow with the shot count.  The outcome uniforms of a block come from one
vectorized pass, ``rng.first_uniforms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._apply import evolve, is_count, marginal_probabilities
from .circuit import Circuit
from .config import BRANCH_NORM_CUTOFF, NORM_TOL, POST_SELECT_CUTOFF
from .errors import PostSelectImpossible
from .rng import first_uniforms

MAX_QUBITS = 16
# Shots a sampler evaluates together: it holds the draws and outcomes of one
# block at a time.
_SHOT_BLOCK = 1 << 16
# CDF entries compared at once by the row-stacked ``invert_cdf``.
_CDF_ENTRIES = 1 << 13


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
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]


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
    """Final state of a measurement-free circuit run from |0...0>.

    A frozen circuit's state is computed once, kept as long as the circuit,
    and the same read-only ``StateVector`` is returned by every call.
    """
    if circuit.has_measurement():
        raise ValueError("circuit contains measurements; simulate it with an rng")
    return _evolved(circuit)


def _evolved(circuit: Circuit) -> StateVector:
    """State after the circuit's gates, from |0...0>; measure ops are skipped.

    Kept on a frozen circuit (``Circuit._kept``).
    """
    n = circuit.num_qubits

    def compute() -> StateVector:
        batch = zero_state(n).amps.reshape((1,) + (2,) * n)
        return StateVector(n, evolve(batch, circuit.gates()).reshape(-1))

    return circuit._kept("state", compute)


def _project(state: StateVector, qubit: int, value: int) -> StateVector:
    """Collapse onto ``qubit`` reading ``value`` and renormalize."""
    nd = state.amps.reshape((2,) * state.num_qubits).copy()
    nd[(slice(None),) * qubit + (1 - value,)] = 0.0
    flat = nd.reshape(-1)
    norm = np.linalg.norm(flat)
    if not norm >= BRANCH_NORM_CUTOFF:
        raise PostSelectImpossible(f"qubit {qubit} = {value} has zero probability")
    return StateVector(state.num_qubits, flat / norm)


def post_select(state: StateVector, qubit: int, value: int) -> tuple[StateVector, float]:
    """Condition on one qubit reading ``value``; returns (collapsed state, probability)."""
    if value not in (0, 1):
        raise ValueError("post-selected value must be 0 or 1")
    probs = marginal_probabilities(state.amps, (qubit,), state.num_qubits)[0]
    prob = float(probs[value])
    if not prob > POST_SELECT_CUTOFF:
        raise PostSelectImpossible(
            f"qubit {qubit} = {value} has probability {prob:.3e}, not above the cutoff"
        )
    return _project(state, qubit, value), prob


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
    ``first_uniforms`` evaluates those first draws for a whole block of shots
    at once, with no per-shot generator.
    """
    check_shots(shots)

    def outcomes_of(first: int, last: int) -> np.ndarray:
        return invert_cdf(probs, first_uniforms(seed, np.arange(first, last, dtype=np.uint64)))

    return shot_block_counts(shots, num_bits, outcomes_of)


def shot_block_counts(
    shots: int, num_bits: int, outcomes_of: Callable[[int, int], np.ndarray]
) -> dict[str, int]:
    """Histogram of ``shots`` outcomes, keyed by ``num_bits``-wide bitstrings
    in ascending order.

    ``outcomes_of(first, last)`` returns the outcome indices of shots ``first``
    to ``last - 1``.  It is called once per block of ``_SHOT_BLOCK`` shots,
    and each block's ``np.bincount`` is added to the total.  A shot's draws
    depend only on ``(seed, shot)``, so the blocks change no outcome.
    """
    counts = np.zeros(2**num_bits, dtype=np.int64)
    for first in range(0, shots, _SHOT_BLOCK):
        block = outcomes_of(first, min(shots, first + _SHOT_BLOCK))
        counts += np.bincount(block, minlength=len(counts))
    return {format(int(k), f"0{num_bits}b"): int(counts[k]) for k in np.flatnonzero(counts)}


def check_shots(shots) -> None:
    """Raise ``ValueError`` unless ``shots`` is an integral, non-``bool`` count in [1, 2**64]."""
    if not is_count(shots):
        raise ValueError(f"shots must be an int >= 1, not {shots!r}")
    if shots > 2**64:  # ShotStreams seats shot indices below 2**64
        raise ValueError(f"shots must be at most 2**64 (one shot stream each), not {shots}")


def invert_cdf(probs: np.ndarray, u: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """Outcome index for each uniform in ``u`` under the law ``probs``.

    The inversion rule of both shot samplers, of ``simulate`` and of
    ``noise.apply_trajectory``: ``searchsorted(side="right")`` on the CDF.
    Every caller's ``u`` lies in [0, 1) and the last CDF entry is raised to
    at least 1, so no rounding can push an index past the last outcome.

    Row-stacked form: ``probs`` holds one law per row, and the law of row
    ``i`` inverts the next ``counts[i]`` uniforms of ``u``.  Each row's CDF
    is built as above, and the outcome is the count of its entries ``<= u``,
    which is what ``searchsorted(side="right")`` returns on a CDF that never
    decreases.  The comparisons run in chunks of about ``_CDF_ENTRIES``.
    """
    cum = np.cumsum(probs, axis=-1)
    cum[..., -1] = np.maximum(cum[..., -1], 1.0)
    if counts is None:
        return np.searchsorted(cum, u, side="right")
    ends = np.cumsum(counts)
    out = np.empty(len(u), dtype=np.intp)
    step = max(1, _CDF_ENTRIES // cum.shape[1])
    for first in range(0, len(u), step):
        part = np.arange(first, min(first + step, len(u)))
        rows = np.searchsorted(ends, part, side="right")
        out[part] = np.count_nonzero(cum[rows] <= u[part, None], axis=1)
    return out
