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
walks the shots in the blocks of ``statevector.shot_block_counts``, the
noiseless sampler's driver.  Within a shot block it draws every shot's fault
pattern, the tuple of its ``(site, pauli)`` events, and evolves each distinct
pattern once; most shots share the fault-free pattern.  Shots are drawn in
groups of ``_DRAW_BLOCK``: every shot of a group fills one row of a reused
buffer with its ``1 + m + sites`` uniforms, and all the fault sites of the
group are screened against the rates at once, so a fault-free shot costs no
Python work past its draw.  A shot that faults is re-seated just past its
uniforms (``ShotStreams.shot(s, drawn=...)``) and draws its Pauli choices as
the sequential engine does.

Patterns are evolved in the input frame: the gates act only on the ``2**n``
basis columns of the prefix unitary, and a pattern's amplitudes change only
at its own fault sites, so gate work does not grow with the pattern count.
The frame products run in small row blocks that OpenBLAS keeps on the calling
thread (``_apply.serial_blocks``), so the engine uses one core.  The frame
takes ``16 * 4**n`` bytes, which bounds noisy sampling to 11 qubits.  Patterns
are handled in chunks whose amplitudes stay within a fixed byte budget, and a
chunk's final states are never held whole: each row block of pattern rows is
taken to the output frame, reduced to its outcome law, and every shot of its
patterns inverts that law's CDF with its own outcome uniform.  So memory grows
with the budgets (the shot block, the chunk and the frame) and not with the
shot count.

Default rates are an order-of-magnitude stand-in for trapped-ion hardware,
not calibrated device numbers.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from ._apply import (
    Gate, apply_matrix, apply_matrix_nd, check_dense_bytes, evolve, is_plain_real,
    marginal_probabilities, serial_blocks, serial_product,
)
from .circuit import _FIXED, Circuit
from .errors import SchemaError
from .rng import ShotStreams, shot_rng
from .statevector import (
    StateVector,
    check_shots,
    from_amplitudes,
    invert_cdf,
    sample_from_probabilities,
    shot_block_counts,
    zero_state,
)

_PAULI_1Q = [_FIXED["x"], _FIXED["y"], _FIXED["z"]]

# Shots drawn into one buffer and screened for faults together.
_DRAW_BLOCK = 64
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
            if not (is_plain_real(v) and 0.0 <= v < 1.0):
                raise ValueError(f"{name} must be a float or int in [0, 1), got {v!r}")
        if self.attach not in ("native", "logical"):
            raise ValueError("attach must be 'native' or 'logical'")
        if self.p2 < self.p1:
            warnings.warn("two-qubit rate p2 below single-qubit rate p1", stacklevel=3)

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
            if not is_plain_real(v):
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
    measured = circuit.measured()
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
    Any other model needs the ``16 * 4**n`` bytes of the input frame to fit
    in ``DENSE_BYTES``, so it is limited to 11 qubits.
    """
    check_shots(shots)
    measured = circuit.measured()
    if not measured:
        raise ValueError("nothing to measure")
    n = circuit.num_qubits
    m = len(measured)
    idx = tuple(circuit.index_of(q) for q in measured)

    if model.is_zero:
        final = evolve(_ground_batch(1, n), circuit.gates())
        probs = marginal_probabilities(final, idx, n)[0]
        return sample_from_probabilities(probs, m, shots, seed)
    check_dense_bytes(16 * 4**n, "noisy sampling holds a 2**n x 2**n frame", f"{n} qubits exceed")

    gates, arities, rates = _sites(circuit, model)
    chunk = max(1, _BATCH_BYTES // (16 * 2**n))
    weights = 1 << np.arange(m - 1, -1, -1)

    def outcomes_of(first: int, last: int) -> np.ndarray:
        u_out, flips, pattern_of_shot, patterns = _draw_patterns(
            seed, first, last, m, model.p_meas, rates, arities
        )
        by_row = np.argsort(pattern_of_shot, kind="stable")
        shots_of_row = np.split(by_row, np.cumsum(np.bincount(pattern_of_shot))[:-1])
        outcomes = np.empty(last - first, dtype=np.intp)
        for start in range(0, len(patterns), chunk):
            for row, final in _evolve_patterns(patterns[start : start + chunk], gates, n):
                for j, probs in enumerate(marginal_probabilities(final, idx, n), start + row):
                    outcomes[shots_of_row[j]] = invert_cdf(probs, u_out[shots_of_row[j]])
        if model.p_meas > 0:
            outcomes ^= flips @ weights
        return outcomes

    return shot_block_counts(shots, m, outcomes_of)


def _draw_patterns(
    seed: int, first: int, last: int, m: int, p_meas: float, rates: np.ndarray, arities: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[tuple[int, int], ...]]]:
    """Outcome uniforms, readout flips and pattern row of shots ``first`` to
    ``last - 1``, and their distinct fault patterns in order of first appearance.

    Shots are drawn in groups of ``_DRAW_BLOCK``: each shot's ``1 + m + sites``
    uniforms fill one row of a reused buffer, and the whole group is compared
    with the rates at once.  A fault-free shot takes the ``()`` pattern with
    no further work.  A shot that faults is re-seated just past its uniforms
    and draws its Pauli indices with ``_shot_events``, so every shot reads its
    stream as ``apply_trajectory`` does.
    """
    shots = last - first
    width = 1 + m + len(rates)
    u_out = np.empty(shots)
    flips = np.empty((shots, m), dtype=bool)
    pattern_of_shot = np.empty(shots, dtype=np.intp)
    rows: dict[tuple[tuple[int, int], ...], int] = {}
    streams = ShotStreams(seed)
    buffer = np.empty((min(shots, _DRAW_BLOCK), width))
    for lo in range(0, shots, _DRAW_BLOCK):
        block = buffer[: shots - lo]
        for s, row in enumerate(block, first + lo):
            streams.shot(s).random(out=row)
        hi = lo + len(block)
        u_out[lo:hi] = block[:, 0]
        np.less(block[:, 1 : 1 + m], p_meas, out=flips[lo:hi])
        faulted = (block[:, 1 + m :] < rates).any(axis=1)
        visit = faulted.copy()
        if () not in rows:
            visit[np.argmin(faulted)] = True  # the group's first fault-free shot, if any
        for j in np.flatnonzero(visit):
            pattern = ()
            if faulted[j]:
                rng = streams.shot(first + lo + j, drawn=width)
                pattern = _shot_events(rng, block[j, 1 + m :], rates, arities)
            pattern_of_shot[lo + j] = rows.setdefault(pattern, len(rows))
        if not faulted.all():
            pattern_of_shot[lo:hi][~faulted] = rows[()]
    return u_out, flips, pattern_of_shot, list(rows)


def _evolve_patterns(
    patterns: list[tuple[tuple[int, int], ...]], gates: list[Gate], num_qubits: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(first, finals)``: the final states of patterns ``first`` to
    ``first + len(finals) - 1``, one ``(len(finals), 2**n)`` row block at a time.

    The gates act on the input frame, not on the patterns.  The prefix
    unitary ``W_s = G_s ... G_1`` is carried as its ``2**n`` basis columns
    (row j of ``frame`` is ``W_s e_j``), and each pattern row ``x`` starts at
    |0...0>.  A fault ``P`` after gate ``s`` maps the row to
    ``W_s^dag P W_s x``, because ``G_S ... G_{s+1} P W_s = W W_s^dag P W_s``;
    the final state is ``W x``.  At each faulted site the rows that fire are
    gathered once and taken to the output frame, each distinct Pauli acts in
    one kernel call on its slice, and the rows are taken back.  Gate work
    thus grows with ``2**n`` columns rather than with the pattern count.  The
    last step, ``x -> W x``, runs block by block, so the caller can reduce
    each block before the next one exists.  The amplitudes agree with
    gate-by-gate evolution up to rounding.
    """
    faults: dict[int, dict[int, list[int]]] = {}
    for row, pattern in enumerate(patterns):
        for site, pauli in pattern:
            faults.setdefault(site, {}).setdefault(pauli, []).append(row)
    dim, shape = 2**num_qubits, (2,) * num_qubits
    frame = np.eye(dim, dtype=complex).reshape((dim,) + shape)
    rows = _ground_batch(len(patterns), num_qubits).reshape(len(patterns), dim)
    done = 0
    for site in sorted(faults):
        frame = evolve(frame, gates[done : site + 1])
        done = site + 1
        prefix = frame.reshape(dim, dim)
        _, targets, controls = gates[site]
        qubits = controls + targets
        groups = faults[site]
        hit = np.concatenate(list(groups.values()))
        out = serial_product(rows[hit], prefix).reshape((len(hit),) + shape)
        first = 0
        for pauli, group in groups.items():
            last = first + len(group)
            out[first:last] = apply_matrix_nd(
                out[first:last], _pauli_matrix(len(qubits), pauli), qubits, ()
            )
            first = last
        rows[hit] = serial_product(out.reshape(len(hit), dim), prefix.conj().T)
    frame = evolve(frame, gates[done:])
    yield from serial_blocks(rows, frame.reshape(dim, dim))


def _ground_batch(size: int, num_qubits: int) -> np.ndarray:
    batch = np.zeros((size,) + (2,) * num_qubits, dtype=complex)
    batch.reshape(size, -1)[:, 0] = 1.0
    return batch
