"""Gate-level circuit intermediate representation.

Circuits are ordered lists of gate applications over named qubits.  Any gate
may carry extra control qubits; multi-controlled gates are first-class here
and are only decomposed when transpiling to the native set.  The register
order fixed at construction defines the basis-state index convention: the
leftmost qubit is the most significant index bit.

Circuits are built by appending (builder style) and can be frozen, after
which they are immutable; all analysis functions are pure.

Measurements are terminal: once a qubit is measured, only further measure ops
may follow.  ``Circuit.append`` enforces this, so every circuit is a unitary
gate list followed by a readout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import cos, sin
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._apply import Gate, evolve
from .config import UNITARY_TOL
from .errors import AddressingError, NotUnitary, SchemaError

_SQ2 = 1.0 / np.sqrt(2.0)

_FIXED_1Q = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}

_FIXED_2Q = {
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
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


def _is_unitary(m: np.ndarray) -> bool:
    return m.shape[0] == m.shape[1] and np.allclose(
        m.conj().T @ m, np.eye(m.shape[0]), atol=UNITARY_TOL, rtol=0
    )


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
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        n_targets, n_params = GATE_SIGNATURES[self.kind]
        if len(self.params) != n_params:
            raise ValueError(f"{self.kind} takes {n_params} parameter(s)")
        if any(not np.isfinite(p) for p in self.params):
            raise ValueError(f"{self.kind} received a non-finite parameter")
        if self.kind == "unitary":
            if self.matrix is None:
                raise ValueError("unitary kind requires an explicit matrix")
            m = np.array(self.matrix, dtype=complex)
            k = len(self.targets)
            if not 1 <= k <= 3 or m.shape != (2**k, 2**k):
                raise ValueError("generic unitaries support 1 to 3 target qubits")
            if not _is_unitary(m):
                raise NotUnitary(f"matrix-backed gate is not unitary within {UNITARY_TOL:g}")
            m.setflags(write=False)
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
        if self.kind in _FIXED_1Q:
            return _FIXED_1Q[self.kind]
        if self.kind in _FIXED_2Q:
            return _FIXED_2Q[self.kind]
        if self.kind == "rx":
            return _rx(*self.params)
        if self.kind == "ry":
            return _ry(*self.params)
        if self.kind == "rz":
            return _rz(*self.params)
        if self.kind == "phase":
            return _phase(*self.params)
        if self.kind == "phasedx":
            return _phasedx(*self.params)
        if self.kind == "zzphase":
            return _zzphase(*self.params)
        if self.kind == "unitary":
            return self.matrix
        raise NotUnitary(f"{self.kind} has no unitary matrix")

    def inverse(self) -> "GateApplication":
        if self.kind == "measure":
            raise NotUnitary("measure is not invertible")
        if self.kind == "s":
            return GateApplication("sdg", self.targets, self.controls)
        if self.kind == "sdg":
            return GateApplication("s", self.targets, self.controls)
        if self.kind in ("rx", "ry", "rz", "phase", "zzphase"):
            return GateApplication(self.kind, self.targets, self.controls, (-self.params[0],))
        if self.kind == "phasedx":
            theta, phi = self.params
            return GateApplication(self.kind, self.targets, self.controls, (-theta, phi))
        if self.kind == "unitary":
            return GateApplication(
                "unitary", self.targets, self.controls, matrix=self.matrix.conj().T
            )
        return self  # h, x, y, z, cx, cz, swap are self-inverse


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
        self._frozen = False

    # -- construction ------------------------------------------------------

    def append(self, gate: GateApplication) -> "Circuit":
        if self._frozen:
            raise RuntimeError("circuit is frozen")
        for q in gate.qubits:
            if q not in self._index:
                raise AddressingError(f"qubit {q!r} not declared in circuit")
        if gate.kind != "measure" and self.has_measurement():
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

    def zero_reflection(self, qubits: Sequence[str]) -> "Circuit":
        """Append 2|0..0><0..0| - 1 on the given qubits (exact, no global phase).

        Inclusion-exclusion product of Z gates over all nonempty subsets:
        every basis state with at least one 1 among the qubits picks up an
        odd number of -1 factors.
        """
        qs = list(qubits)
        for size in range(1, len(qs) + 1):
            for subset in combinations(qs, size):
                self._add("z", (subset[-1],), tuple(subset[:-1]))
        return self

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
        # Measurements are terminal, so the last op tells.
        return bool(self._ops) and self._ops[-1].kind == "measure"

    def gate_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for op in self._ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def copy(self, qubits: Sequence[str] | None = None) -> "Circuit":
        out = Circuit(qubits if qubits is not None else self.qubits)
        out.extend(self._ops)
        return out

    def renamed(self, mapping: dict[str, str]) -> "Circuit":
        """Same gates over renamed qubits (identity for unmapped names)."""
        new_names = tuple(mapping.get(q, q) for q in self.qubits)
        out = Circuit(new_names)
        for op in self._ops:
            out.append(
                GateApplication(
                    op.kind,
                    tuple(mapping.get(q, q) for q in op.targets),
                    tuple(mapping.get(q, q) for q in op.controls),
                    op.params,
                    op.matrix,
                )
            )
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
        try:
            circ = cls(obj["qubits"])
            for entry in obj["ops"]:
                matrix = None
                if "matrix" in entry:
                    matrix = np.array(
                        [[complex(re, im) for re, im in row] for row in entry["matrix"]]
                    )
                circ._add(
                    entry["kind"],
                    tuple(entry["targets"]),
                    tuple(entry.get("controls", ())),
                    tuple(entry.get("params", ())),
                    matrix,
                )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed circuit serialization: {exc}") from exc
        return circ

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        return cls.from_dict(json.loads(text))


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the ordered gate product; measurements are rejected."""
    if circuit.has_measurement():
        raise NotUnitary("circuit contains measurements")
    dim = 2**circuit.num_qubits
    # Row b of the batch is the evolution of basis state |b>; the circuit
    # unitary has those as columns.
    batch = np.eye(dim, dtype=complex).reshape((dim,) + (2,) * circuit.num_qubits)
    return evolve(batch, circuit.gates()).reshape(dim, dim).T.copy()


def controlled(circuit: Circuit, control: str) -> Circuit:
    """New circuit computing |0><0| (x) I + |1><1| (x) U on control + original."""
    if control in circuit.qubits:
        raise AddressingError(f"control name {control!r} collides with circuit qubits")
    if circuit.has_measurement():
        raise NotUnitary("cannot control a circuit containing measurements")
    out = Circuit((control,) + circuit.qubits)
    for op in circuit.ops:
        out.append(
            GateApplication(op.kind, op.targets, op.controls + (control,), op.params, op.matrix)
        )
    return out
