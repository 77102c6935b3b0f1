"""Gate-level circuit intermediate representation.

Circuits are ordered lists of gate applications over named qubits.  Any gate
may carry extra control qubits; multi-controlled gates are first-class here
and are only decomposed when transpiling to the native set.  The register
order fixed at construction defines the basis-state index convention: the
leftmost qubit is the most significant index bit.

Circuits are built by appending (builder style) and can be frozen, after
which they are immutable; all analysis functions are pure.

Measurements are terminal: once a qubit is measured, only further measure ops
may follow, and no qubit is measured twice.  ``Circuit.append`` enforces
both, so every circuit is a unitary gate list followed by a readout, and
``Circuit.measured()`` is that readout's one bit order.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from itertools import combinations
from math import cos, sin
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from ._apply import Gate, check_dense_bytes, evolve, gram_deviation, is_plain_real, readonly
from .config import UNITARY_TOL
from .errors import AddressingError, NotUnitary, QmcmcError, SchemaError

_SQ2 = 1.0 / np.sqrt(2.0)
_T = TypeVar("_T")

# Shared by every op of their kind and read by noise and algorithms, so read-only.
_FIXED = {
    "h": readonly([[_SQ2, _SQ2], [_SQ2, -_SQ2]], complex),
    "x": readonly([[0, 1], [1, 0]], complex),
    "y": readonly([[0, -1j], [1j, 0]], complex),
    "z": readonly([[1, 0], [0, -1]], complex),
    "s": readonly([[1, 0], [0, 1j]], complex),
    "sdg": readonly([[1, 0], [0, -1j]], complex),
    "cx": readonly([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], complex),
    "cz": readonly(np.diag([1, 1, 1, -1]), complex),
    "swap": readonly([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], complex),
}

# kind -> (target count, parameter count); None marks matrix-backed kinds.
GATE_SIGNATURES = {
    "h": (1, 0), "x": (1, 0), "y": (1, 0), "z": (1, 0), "s": (1, 0), "sdg": (1, 0),
    "rx": (1, 1), "ry": (1, 1), "rz": (1, 1), "phase": (1, 1), "phasedx": (1, 2),
    "cx": (2, 0), "cz": (2, 0), "swap": (2, 0), "zzphase": (2, 1),
    "unitary": (None, 0), "measure": (1, 0),
}


def _rx(t: float) -> np.ndarray:
    c, s = cos(t / 2), sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(t: float) -> np.ndarray:
    c, s = cos(t / 2), sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t: float) -> np.ndarray:
    return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])


def _phase(lam: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * lam)])


def _phasedx(theta: float, phi: float) -> np.ndarray:
    return _rz(phi) @ _rx(theta) @ _rz(-phi)


def _zzphase(gamma: float) -> np.ndarray:
    a, b = np.exp(-1j * gamma / 2), np.exp(1j * gamma / 2)
    return np.diag([a, b, b, a])


# kind -> builder of the target matrix from the op's parameters.
_PARAMETRIC = {
    "rx": _rx, "ry": _ry, "rz": _rz, "phase": _phase, "phasedx": _phasedx, "zzphase": _zzphase,
}


def _finite_real(value) -> bool:
    """A finite float or an int that converts to one; nothing else is coerced."""
    return is_plain_real(value) and abs(value) <= sys.float_info.max


@dataclass(frozen=True, eq=False)
class GateApplication:
    """One gate acting on named target qubits, with optional extra controls."""

    kind: str
    targets: tuple[str, ...]
    controls: tuple[str, ...] = ()
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in GATE_SIGNATURES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "controls", tuple(self.controls))
        params = tuple(self.params)
        if not all(map(_finite_real, params)):
            raise ValueError(f"{self.kind} parameters must be finite floats or ints: {params!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in params))
        n_targets, n_params = GATE_SIGNATURES[self.kind]
        if len(self.params) != n_params:
            raise ValueError(f"{self.kind} takes {n_params} parameter(s)")
        if self.kind == "unitary":
            if self.matrix is None:
                raise ValueError("unitary kind requires an explicit matrix")
            m = readonly(self.matrix, complex)
            k = len(self.targets)
            if not 1 <= k <= 3 or m.shape != (2**k, 2**k):
                raise ValueError("generic unitaries support 1 to 3 target qubits")
            # Finiteness first: the Gram product of an inf entry warns before it fails.
            if not (np.isfinite(m).all() and gram_deviation(m) <= UNITARY_TOL):
                raise NotUnitary(f"matrix-backed gate is not unitary within {UNITARY_TOL:g}")
            object.__setattr__(self, "matrix", m)
        else:
            if self.matrix is not None:
                raise ValueError(f"{self.kind} does not take a matrix")
            if n_targets is not None and len(self.targets) != n_targets:
                raise ValueError(f"{self.kind} addresses {n_targets} target qubit(s)")
        if self.kind == "measure" and self.controls:
            raise ValueError("measure cannot be controlled")
        touched = self.targets + self.controls
        if len(set(touched)) != len(touched):
            raise AddressingError(f"qubit used twice in one gate: {touched}")

    @property
    def qubits(self) -> tuple[str, ...]:
        return self.controls + self.targets

    def base_matrix(self) -> np.ndarray:
        """Unitary on the target qubits only (controls not expanded)."""
        if self.kind in _FIXED:
            return _FIXED[self.kind]
        if self.kind in _PARAMETRIC:
            return _PARAMETRIC[self.kind](*self.params)
        if self.matrix is None:
            raise NotUnitary(f"{self.kind} has no unitary matrix")
        return self.matrix

    def inverse(self) -> "GateApplication":
        """The adjoint: first parameter negated, s and sdg swapped, matrix conjugate-transposed."""
        if self.kind == "measure":
            raise NotUnitary("measure is not invertible")
        if self.params:
            return replace(self, params=(-self.params[0],) + self.params[1:])
        if self.kind in ("s", "sdg"):
            return replace(self, kind={"s": "sdg", "sdg": "s"}[self.kind])
        if self.matrix is not None:
            return replace(self, matrix=self.matrix.conj().T)
        return self  # the other fixed kinds are self-inverse


class Circuit:
    """Ordered gate list over named qubits; append-to-build, then freeze."""

    def __init__(self, qubits: Sequence[str]):
        qubits = tuple(str(q) for q in qubits)
        if len(set(qubits)) != len(qubits):
            raise AddressingError("duplicate qubit names")
        if not qubits:
            raise ValueError("circuit needs at least one qubit")
        self.qubits = qubits
        self._index = {q: i for i, q in enumerate(qubits)}
        self._ops: list[GateApplication] = []
        # Measured qubits in readout order (dict keys: ordered, O(1) lookup).
        self._measured: dict[str, None] = {}
        self._frozen = False
        # Dense results of the frozen circuit (``unitary_of``, the |0...0>
        # evolution of ``statevector``), by kind; see ``_kept``.
        self._dense: dict[str, object] = {}

    # -- construction ------------------------------------------------------

    def append(self, gate: GateApplication) -> "Circuit":
        if self._frozen:
            raise RuntimeError("circuit is frozen")
        for q in gate.qubits:
            if q not in self._index:
                raise AddressingError(f"qubit {q!r} not declared in circuit")
        if gate.kind == "measure":
            q = gate.targets[0]
            if q in self._measured:
                raise AddressingError(f"qubit {q!r} measured twice")
            self._measured[q] = None
        elif self._measured:
            raise ValueError(f"{gate.kind} after a measurement: measurements are terminal")
        self._ops.append(gate)
        return self

    def extend(self, ops: Iterable[GateApplication]) -> "Circuit":
        for op in ops:
            self.append(op)
        return self

    def freeze(self) -> "Circuit":
        self._frozen = True
        return self

    def _kept(self, kind: str, compute: Callable[[], _T]) -> _T:
        """``compute()``, a dense result of this circuit's ops.

        A frozen circuit's ops cannot change, so its result is computed on the
        first call, kept under ``kind`` as long as the circuit, and shared by
        every later call; an array is made read-only for that.  An unfrozen
        circuit gets a fresh result on every call.
        """
        if not self._frozen:
            return compute()
        if kind not in self._dense:
            result = compute()
            if isinstance(result, np.ndarray):
                result.setflags(write=False)
            self._dense[kind] = result
        return self._dense[kind]

    def _add(self, kind, targets, controls=(), params=(), matrix=None) -> "Circuit":
        return self.append(GateApplication(kind, targets, controls, params, matrix))

    def h(self, q, controls=()):
        return self._add("h", (q,), controls)

    def x(self, q, controls=()):
        return self._add("x", (q,), controls)

    def y(self, q, controls=()):
        return self._add("y", (q,), controls)

    def z(self, q, controls=()):
        return self._add("z", (q,), controls)

    def s(self, q, controls=()):
        return self._add("s", (q,), controls)

    def sdg(self, q, controls=()):
        return self._add("sdg", (q,), controls)

    def rx(self, theta, q, controls=()):
        return self._add("rx", (q,), controls, (theta,))

    def ry(self, theta, q, controls=()):
        return self._add("ry", (q,), controls, (theta,))

    def rz(self, theta, q, controls=()):
        return self._add("rz", (q,), controls, (theta,))

    def phase(self, lam, q, controls=()):
        return self._add("phase", (q,), controls, (lam,))

    def phasedx(self, theta, phi, q, controls=()):
        return self._add("phasedx", (q,), controls, (theta, phi))

    def zzphase(self, gamma, a, b, controls=()):
        return self._add("zzphase", (a, b), controls, (gamma,))

    def cx(self, control, target, controls=()):
        return self._add("cx", (control, target), controls)

    def cz(self, a, b, controls=()):
        return self._add("cz", (a, b), controls)

    def swap(self, a, b, controls=()):
        return self._add("swap", (a, b), controls)

    def cswap(self, control, a, b):
        return self._add("swap", (a, b), (control,))

    def unitary(self, matrix, targets, controls=()):
        return self._add("unitary", tuple(targets), controls, matrix=matrix)

    def measure(self, *qubits):
        for q in qubits:
            self._add("measure", (q,))
        return self

    def reflection(self, prep: "Circuit", qubits: Sequence[str], controls=()) -> "Circuit":
        """Append prep (2|0..0><0..0| - 1) prep^dag, with |0..0> on ``qubits``.

        The core is an inclusion-exclusion product of Z gates over all
        nonempty subsets of ``qubits``: every basis state with at least one 1
        among them picks up an odd number of -1 factors (exact, no global
        phase).  Only the core carries ``controls``, ahead of each Z's own:
        prep and prep^dag cancel when a control is 0.
        """
        self.extend(prep.inverse().ops)
        qs = list(qubits)
        for size in range(1, len(qs) + 1):
            for subset in combinations(qs, size):
                self._add("z", (subset[-1],), tuple(controls) + subset[:-1])
        return self.extend(prep.ops)

    # -- inspection --------------------------------------------------------

    @property
    def ops(self) -> tuple[GateApplication, ...]:
        return tuple(self._ops)

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def index_of(self, name: str) -> int:
        return self._index[name]

    def gates(self) -> Iterator[Gate]:
        """Each unitary op as ``(matrix, target indices, control indices)``, in order.

        Measure ops are skipped.  The op's qubit order
        ``controls + targets`` matches ``GateApplication.qubits``.  Matrices
        are built lazily, one op at a time, so long circuits never hold them
        all at once.
        """
        index = self._index
        for op in self._ops:
            if op.kind != "measure":
                targets = tuple(index[q] for q in op.targets)
                controls = tuple(index[q] for q in op.controls)
                yield op.base_matrix(), targets, controls

    def has_measurement(self) -> bool:
        return bool(self._measured)

    def measured(self) -> tuple[str, ...]:
        """Measured qubit names in readout order, the bit order of every histogram."""
        return tuple(self._measured)

    def gate_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for op in self._ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def copy(self) -> "Circuit":
        out = Circuit(self.qubits)
        out.extend(self._ops)
        return out

    def renamed(self, mapping: dict[str, str]) -> "Circuit":
        """Same gates over renamed qubits (identity for unmapped names)."""
        def rename(names):
            return tuple(mapping.get(q, q) for q in names)

        out = Circuit(rename(self.qubits))
        for op in self._ops:
            out.append(replace(op, targets=rename(op.targets), controls=rename(op.controls)))
        return out

    def inverse(self) -> "Circuit":
        out = Circuit(self.qubits)
        out.extend(op.inverse() for op in reversed(self._ops))
        return out

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        ops = []
        for op in self._ops:
            entry = {
                "kind": op.kind,
                "targets": list(op.targets),
                "controls": list(op.controls),
                "params": list(op.params),
            }
            if op.matrix is not None:
                entry["matrix"] = [
                    [[float(z.real), float(z.imag)] for z in row] for row in op.matrix
                ]
            ops.append(entry)
        return {"qubits": list(self.qubits), "ops": ops}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "Circuit":
        def number(pair) -> complex:
            if not (isinstance(pair, list) and len(pair) == 2 and all(map(_finite_real, pair))):
                raise ValueError(f"matrix entry must be [re, im], both finite numbers: {pair!r}")
            return complex(*pair)

        def names(value) -> tuple[str, ...]:
            if not (isinstance(value, list) and all(isinstance(q, str) for q in value)):
                raise TypeError(f"expected a list of qubit names, got {value!r}")
            return tuple(value)

        try:
            circ = cls(names(obj["qubits"]))
            for entry in obj["ops"]:
                matrix = None
                if "matrix" in entry:
                    matrix = np.array([[number(pair) for pair in row] for row in entry["matrix"]])
                circ._add(
                    entry["kind"],
                    names(entry["targets"]),
                    names(entry.get("controls", [])),
                    tuple(entry.get("params", ())),
                    matrix,
                )
        except (KeyError, TypeError, ValueError, QmcmcError) as exc:
            raise SchemaError(f"malformed circuit serialization: {exc}") from exc
        return circ

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"circuit serialization is not JSON: {exc}") from exc
        return cls.from_dict(obj)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the ordered gate product; measurements are rejected.

    Its ``16 * 4**n`` bytes must fit in ``DENSE_BYTES``, so circuits are
    limited to 11 qubits.  A frozen circuit's unitary is computed once, kept
    as long as the circuit, and shared, read-only, by every call; an unfrozen
    circuit gets a fresh, writable array on every call.
    """
    if circuit.has_measurement():
        raise NotUnitary("circuit contains measurements")
    n = circuit.num_qubits
    holds = "a circuit unitary holds 2**n x 2**n amplitudes"
    check_dense_bytes(16 * 4**n, holds, f"{n} qubits exceed")
    dim = 2**n

    def compute() -> np.ndarray:
        # Row b of the batch is the evolution of basis state |b>; the circuit
        # unitary has those as columns.
        batch = np.eye(dim, dtype=complex).reshape((dim,) + (2,) * n)
        return evolve(batch, circuit.gates()).reshape(dim, dim).T.copy()

    return circuit._kept("unitary", compute)


def controlled(circuit: Circuit, control: str) -> Circuit:
    """New circuit computing |0><0| (x) I + |1><1| (x) U on control + original."""
    if control in circuit.qubits:
        raise AddressingError(f"control name {control!r} collides with circuit qubits")
    if circuit.has_measurement():
        raise NotUnitary("cannot control a circuit containing measurements")
    out = Circuit((control,) + circuit.qubits)
    for op in circuit.ops:
        out.append(replace(op, controls=op.controls + (control,)))
    return out
