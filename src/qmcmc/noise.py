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
draws altogether: it is the noiseless simulator, ``statevector.sample`` on the
circuit's |0...0> state, which a frozen circuit keeps (``Circuit._kept``).

The batched engine separates the fault draws from state evolution.  It
walks the shots in the blocks of ``statevector.shot_block_counts``, the
noiseless sampler's driver.  Within a shot block it draws every shot's fault
pattern, the tuple of its ``(site, pauli)`` events, and evolves each distinct
pattern once; most shots share the fault-free pattern.  Shots are drawn in
groups of ``_DRAW_BLOCK``: every shot of a group is seated once and reads
the raw words of its ``1 + m + sites`` uniforms and ``_EXTRA_WORDS`` more as
one row of the group's array, and all the fault sites of the group are screened
against the rates at once, as integers (``rng.raw_thresholds``), so a
fault-free shot costs no Python work past its draw.  The Pauli choices of the
shots that fault are the 32-bit halves of their extra words through NumPy's
bounded-integer step (``rng.uint32_halves``, ``rng.lemire_integers``), equal
to the sequential engine's ``Generator.integers`` draws; a shot that fires
more sites than its extra words cover, or draws what NumPy would reject, is
seated again and drawn as the sequential engine draws it.

Patterns are evolved in the input frame: the gates act only on the ``2**n``
basis columns of the prefix unitary, and a pattern's amplitudes change only
at its own fault sites, so gate work does not grow with the pattern count.
At a faulted site each hit row takes its Pauli as a signed permutation of its
amplitudes, so no Pauli matrix is built.  The frame products run in small row
blocks that OpenBLAS keeps on the calling thread (``_apply.serial_blocks``),
so the engine uses one core.  The frame takes ``16 * 4**n`` bytes, which
bounds noisy sampling to 11 qubits.  Patterns are handled in chunks whose
amplitudes stay within a fixed byte budget, and a chunk's final states are
never held whole: each row block of pattern rows is taken to the output
frame, reduced to its outcome laws, and every shot of its patterns inverts
its law's CDF with its own outcome uniform, in one row-stacked ``invert_cdf``
call per row block.  So memory grows with the budgets (the shot block, the
chunk and the frame) and not with the shot count.

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
    Gate, apply_matrix, check_dense_bytes, evolve, is_plain_real, marginal_probabilities,
    serial_blocks, serial_product,
)
from .circuit import Circuit
from .errors import SchemaError
from .rng import (
    ShotStreams, lemire_integers, raw_thresholds, shot_rng, uint32_halves, uniforms,
)
from .statevector import (
    StateVector,
    _evolved,
    check_shots,
    from_amplitudes,
    invert_cdf,
    sample,
    shot_block_counts,
    zero_state,
)

# (-i)**k for k = 0..3: the phase of a Pauli string with k Y factors.
_Y_PHASES = (1, -1j, -1, 1j)

# Shots drawn into one buffer and screened for faults together.
_DRAW_BLOCK = 64
# Raw words each shot reads past its uniforms, two 32-bit Pauli draws per
# word; a shot that fires more sites than that is seated again.
_EXTRA_WORDS = 4
# Faulted shots whose patterns are built together; it bounds the Python
# objects that one pass holds.
_FAULT_BLOCK = 512
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
            amps = _apply_paulis(amps[None], np.array([events[site]]), controls + targets, n)[0]
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

    The all-zero model samples the simulator's |0...0> state with
    ``statevector.sample``, so it is the noiseless sampler bit for bit, takes
    1 to 16 qubits and evolves a frozen circuit once.  Any other model needs
    the ``16 * 4**n`` bytes of the input frame to fit in ``DENSE_BYTES``, so
    it is limited to 11 qubits.
    """
    check_shots(shots)
    measured = circuit.measured()
    if not measured:
        raise ValueError("nothing to measure")
    idx = tuple(circuit.index_of(q) for q in measured)
    if model.is_zero:
        return sample(_evolved(circuit), idx, shots, seed)

    n = circuit.num_qubits
    m = len(measured)
    check_dense_bytes(16 * 4**n, "noisy sampling holds a 2**n x 2**n frame", f"{n} qubits exceed")

    gates, arities, rates = _sites(circuit, model)
    chunk = max(1, _BATCH_BYTES // (16 * 2**n))
    weights = 1 << np.arange(m - 1, -1, -1)

    def outcomes_of(first: int, last: int) -> np.ndarray:
        u_out, flips, pattern_of_shot, patterns = _draw_patterns(
            seed, first, last, m, model.p_meas, rates, arities
        )
        # The shots of pattern row j are by_row[edges[j] : edges[j + 1]].
        by_row = np.argsort(pattern_of_shot, kind="stable")
        edges = np.zeros(len(patterns) + 1, dtype=np.intp)
        np.cumsum(np.bincount(pattern_of_shot), out=edges[1:])
        outcomes = np.empty(last - first, dtype=np.intp)
        for start in range(0, len(patterns), chunk):
            for row, final in _evolve_patterns(patterns[start : start + chunk], gates, n):
                # One CDF inversion for every shot of the block's patterns.
                bounds = edges[start + row : start + row + len(final) + 1]
                hit = by_row[bounds[0] : bounds[-1]]
                probs = marginal_probabilities(final, idx, n)
                outcomes[hit] = invert_cdf(probs, u_out[hit], np.diff(bounds))
        if model.p_meas > 0:
            outcomes ^= flips @ weights
        return outcomes

    return shot_block_counts(shots, m, outcomes_of)


def _draw_patterns(
    seed: int, first: int, last: int, m: int, p_meas: float, rates: np.ndarray, arities: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[tuple[int, int], ...]]]:
    """Outcome uniforms, readout flips and pattern row of shots ``first`` to
    ``last - 1``, and their distinct fault patterns in order of first appearance.

    Shots are drawn in groups of ``_DRAW_BLOCK``: each shot is seated once and
    the raw words of its ``1 + m + sites`` uniforms and ``_EXTRA_WORDS`` words
    after them make one row of the group's array, which is compared with the
    rates' word bounds at once.  A fault-free shot takes the ``()``
    pattern with no further work.  The extra words of the shots that fault
    give their Pauli indices, ``_FAULT_BLOCK`` shots at a time
    (``_fault_patterns``), so every shot reads its stream as
    ``apply_trajectory`` does.
    """
    shots = last - first
    width = 1 + m + len(rates)
    u_out = np.empty(shots)
    flips = np.empty((shots, m), dtype=bool)
    flip_bound, site_bounds = raw_thresholds(p_meas), raw_thresholds(rates)
    fired_shots, fired_sites, extra = [], [], []
    streams = ShotStreams(seed)
    seat, words = streams.shot, width + _EXTRA_WORDS
    for lo in range(0, shots, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, shots)
        block = np.array(
            [seat(s).bit_generator.random_raw(words) for s in range(first + lo, first + hi)]
        )
        u_out[lo:hi] = uniforms(block[:, 0])
        np.less(block[:, 1 : 1 + m], flip_bound, out=flips[lo:hi])
        fired = np.flatnonzero(block[:, 1 + m : width] < site_bounds)
        if len(fired):
            shot_in, site = np.divmod(fired, len(rates))
            fired_shots.append(shot_in + lo)
            fired_sites.append(site)
            # shot_in is sorted; keep each faulted shot's extra words once.
            extra.append(block[shot_in[np.diff(shot_in, prepend=-1) > 0], width:])
    rows: dict[tuple[tuple[int, int], ...], int] = {}
    pattern_of_shot = np.empty(shots, dtype=np.intp)
    faulted = np.zeros(shots, dtype=bool)
    free = 0  # the first fault-free shot
    if fired_shots:
        shot_of, site_of = np.concatenate(fired_shots), np.concatenate(fired_sites)
        extra = np.concatenate(extra)  # row k holds faulted shot k's extra words
        faulted[shot_of] = True
        # The () pattern is numbered after the faulted shots before shot
        # ``free``, which are all the shots before it.
        free = shots if faulted.all() else int(np.argmin(faulted))
        faulted_shots = np.flatnonzero(faulted)
        # Faulted shot k fired the sites site_of[bounds[k] : bounds[k + 1]].
        bounds = np.flatnonzero(np.diff(shot_of, prepend=-1, append=shots))
        for lo in range(0, len(faulted_shots), _FAULT_BLOCK):
            part = faulted_shots[lo : lo + _FAULT_BLOCK]
            patterns = _fault_patterns(
                streams, part + first, extra[lo : lo + len(part)],
                site_of, bounds[lo : lo + len(part) + 1], m, rates, arities,
            )
            ids = []
            for k, pattern in enumerate(patterns, lo):
                if k == free:
                    rows[()] = len(rows)
                ids.append(rows.setdefault(pattern, len(rows)))
            pattern_of_shot[part] = ids
    if free < shots:
        pattern_of_shot[~faulted] = rows.setdefault((), len(rows))
    return u_out, flips, pattern_of_shot, list(rows)


def _fault_patterns(
    streams: ShotStreams,
    shots: np.ndarray,
    extra: np.ndarray,
    site_of: np.ndarray,
    bounds: np.ndarray,
    m: int,
    rates: np.ndarray,
    arities: np.ndarray,
) -> list[tuple[tuple[int, int], ...]]:
    """Fault patterns of the faulted ``shots`` (absolute indices), shot ``k``
    having fired the sites ``site_of[bounds[k] : bounds[k + 1]]`` and read
    the raw words ``extra[k]`` after its uniforms.

    Each shot's Pauli indices are the 32-bit halves of those words through
    NumPy's bounded-integer step, one per fired site in site order, just as
    ``_shot_events`` draws them.  A shot that fired more sites than it has
    halves, or with a draw that NumPy would reject, is seated again and drawn
    by ``_shot_events`` itself.
    """
    halves = uint32_halves(extra)
    span = slice(bounds[0], bounds[-1])
    nth = np.repeat(np.arange(len(shots)), np.diff(bounds))  # the shot of each fired site
    draw = np.arange(span.start, span.stop) - bounds[nth]  # its draw within that shot
    spilled = draw >= halves.shape[1]
    # A spilled draw reads half 0 in its place; its shot is drawn again below.
    paulis, rejected = lemire_integers(
        halves[nth, np.where(spilled, 0, draw)], 4 ** arities[site_of[span]] - 1
    )
    pairs = list(zip(site_of[span].tolist(), (paulis + 1).tolist()))
    edges = (bounds - span.start).tolist()
    patterns = [tuple(pairs[a:b]) for a, b in zip(edges, edges[1:])]
    for k in dict.fromkeys(nth[spilled | rejected].tolist()):
        rng = streams.shot(int(shots[k]))
        patterns[k] = _shot_events(rng, rng.random(1 + m + len(rates))[1 + m :], rates, arities)
    return patterns


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
    gathered once, taken to the output frame, hit by their Paulis in one
    signed permutation (``_apply_paulis``), and taken back.  Gate work thus
    grows with ``2**n`` columns rather than with the pattern count.  The last
    step, ``x -> W x``, runs block by block, so the caller can reduce each
    block before the next one exists.  The amplitudes agree with gate-by-gate
    evolution up to rounding.
    """
    faults: dict[int, tuple[list[int], list[int]]] = {}
    for row, pattern in enumerate(patterns):
        for site, pauli in pattern:
            hit, paulis = faults.setdefault(site, ([], []))
            hit.append(row)
            paulis.append(pauli)
    dim, shape = 2**num_qubits, (2,) * num_qubits
    frame = np.eye(dim, dtype=complex).reshape((dim,) + shape)
    rows = np.zeros((len(patterns), dim), dtype=complex)
    rows[:, 0] = 1.0
    done = 0
    for site in sorted(faults):
        frame = evolve(frame, gates[done : site + 1])
        done = site + 1
        prefix = frame.reshape(dim, dim)
        _, targets, controls = gates[site]
        hit, paulis = faults[site]
        out = _apply_paulis(
            serial_product(rows[hit], prefix), np.array(paulis), controls + targets, num_qubits
        )
        rows[hit] = serial_product(out, prefix.conj().T)
    frame = evolve(frame, gates[done:])
    yield from serial_blocks(rows, frame.reshape(dim, dim))


def _apply_paulis(
    amps: np.ndarray, paulis: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Row r of ``amps`` (flat states) hit by the Pauli string ``paulis[r]`` on ``qubits``.

    A Pauli index's base-4 digit ``i`` (0 = I, 1 = X, 2 = Y, 3 = Z) acts on
    ``qubits[i]``, the least significant digit on ``qubits[0]``.  A Pauli string is a signed
    permutation: with ``xy`` the index bits its X and Y flip and ``zy`` those
    its Z and Y sign, ``(P psi)[i] = (-i)**#Y (-1)**parity(i & zy) psi[i ^ xy]``.
    So every row takes one gather, one multiply by its phase in {1, -1, i, -i}
    and a sign flip where the parity is odd, which moves each amplitude
    exactly, as the matrix product does.
    """
    # digits[r, i] is the Pauli of row r on qubits[i]; bits[i] is that qubit's index bit.
    digits = (paulis[:, None] >> 2 * np.arange(len(qubits))) & 3
    bits = 1 << (num_qubits - 1 - np.array(qubits))
    flip = ((digits ^ (digits >> 1)) & 1) @ bits  # X or Y
    sign = (digits >> 1) @ bits  # Y or Z
    phase = np.array(_Y_PHASES)[np.count_nonzero(digits == 2, axis=1) & 3]
    index = np.arange(amps.shape[1])
    out = amps[np.arange(len(amps))[:, None], index ^ flip[:, None]]
    out *= phase[:, None]
    np.negative(out, out=out, where=_odd_parity(len(index))[index & sign[:, None]])
    return out


@lru_cache(maxsize=None)
def _odd_parity(dim: int) -> np.ndarray:
    """Whether each index below ``dim`` (a power of 2) has an odd number of set bits."""
    odd = np.zeros(1, dtype=bool)
    while len(odd) < dim:
        odd = np.concatenate((odd, ~odd))
    odd.setflags(write=False)
    return odd
