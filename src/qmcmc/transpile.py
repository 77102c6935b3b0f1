"""Lowering to the trapped-ion native gate set {PhasedX, Rz, ZZPhase}.

The pipeline is correctness-first: composite and multi-controlled gates are
rewritten with standard identities (controlled-swap via CX + Toffoli, k
controls via the square-root recursion, generic matrices via two-level
rotations with Gray-code addressing), two-qubit gates via a fixed ZZPhase
template, and single-qubit gates via ZYZ Euler angles (Barenco et al. 1995,
"Elementary gates for quantum computation").  Lowering is one recursive pass:
every rule yields gates with fewer controls or fewer targets, or native ones,
and each of them is lowered in turn.  The only optimization applied
afterwards is one peephole pass that merges adjacent rotations and drops the
ones that cancel; gate-count parity with any particular compiler is out of
scope, so counts are reported against optional reference numbers and large
ratios are flagged as warnings only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, pi

import numpy as np
from scipy.linalg import schur

from .circuit import Circuit, GateApplication

NATIVE_KINDS = {"phasedx", "rz", "zzphase", "measure"}

_ANGLE_EPS = 1e-12

_ROTATIONS = ("rz", "zzphase", "phasedx")


@dataclass(frozen=True)
class TranspileReport:
    """Native circuit plus a gate-count report against optional references."""

    circuit: Circuit
    counts: dict[str, int]
    reference: dict[str, int] | None = None
    warnings: tuple[str, ...] = ()

    def count_report(self) -> dict:
        return {"counts": dict(self.counts), "reference": self.reference}


def transpile_native(
    circuit: Circuit, reference: dict[str, int] | None = None
) -> TranspileReport:
    """Rewrite a circuit over {PhasedX, Rz, ZZPhase, measure}.

    The output is unitary-equivalent to the input up to global phase
    (measurement-free case); measurements pass through in place.
    """
    ops = _merged([g for op in circuit.ops for g in _lowered(op)])
    out = Circuit(circuit.qubits).extend(ops).freeze()
    counts = out.gate_counts()
    warnings = []
    if reference:
        for kind, ref in reference.items():
            if kind == "qubits":
                continue
            have = sum(counts.values()) if kind == "total" else counts.get(kind, 0)
            if ref > 0 and have > 2 * ref:
                warnings.append(f"{kind}: {have} gates vs reference {ref} (> 2x)")
    return TranspileReport(out, counts, reference, tuple(warnings))


def _lowered(op: GateApplication) -> list[GateApplication]:
    """``op`` as native gates: apply one rewrite rule, then lower each piece."""
    if op.kind in NATIVE_KINDS and not op.controls:
        return [op]
    if op.kind == "unitary" and len(op.targets) > 1:
        pieces = _lower_generic(op)
    elif op.controls:
        pieces = _lower_controlled(op)
    else:
        pieces = _lower_uncontrolled(op)
    return [g for piece in pieces for g in _lowered(piece)]


# -- control-free rewrites ---------------------------------------------------


def _lower_uncontrolled(op: GateApplication) -> list[GateApplication]:
    t = op.targets
    if op.kind == "swap":
        return [
            GateApplication("cx", (t[0], t[1])),
            GateApplication("cx", (t[1], t[0])),
            GateApplication("cx", (t[0], t[1])),
        ]
    if op.kind == "cx":
        c, q = t
        return [
            GateApplication("h", (q,)),
            GateApplication("rz", (c,), params=(-pi / 2,)),
            GateApplication("rz", (q,), params=(-pi / 2,)),
            GateApplication("zzphase", (c, q), params=(pi / 2,)),
            GateApplication("h", (q,)),
        ]
    if op.kind == "cz":
        a, b = t
        return [
            GateApplication("rz", (a,), params=(-pi / 2,)),
            GateApplication("rz", (b,), params=(-pi / 2,)),
            GateApplication("zzphase", (a, b), params=(pi / 2,)),
        ]
    # Remaining kinds are single-qubit: route through ZYZ Euler angles.
    _, b_angle, a_angle, c_angle = zyz_angles(op.base_matrix())
    out = []
    if abs(c_angle) > _ANGLE_EPS:
        out.append(GateApplication("rz", t, params=(c_angle,)))
    if abs(b_angle) > _ANGLE_EPS:
        out.append(GateApplication("phasedx", t, params=(b_angle, pi / 2)))
    if abs(a_angle) > _ANGLE_EPS:
        out.append(GateApplication("rz", t, params=(a_angle,)))
    return out


def zyz_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """(alpha, b, a, c) with u = e^{i alpha} Rz(a) Ry(b) Rz(c)."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    alpha = float(np.angle(det) / 2)
    v = u * np.exp(-1j * alpha)
    b = 2 * atan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[1, 0]) < 1e-12:
        a, c = -2 * float(np.angle(v[0, 0])), 0.0
    elif abs(v[0, 0]) < 1e-12:
        a, c = 2 * float(np.angle(v[1, 0])), 0.0
    else:
        plus = -float(np.angle(v[0, 0]))
        minus = float(np.angle(v[1, 0]))
        a, c = plus + minus, plus - minus
    return alpha, b, a, c


# -- controlled rewrites -----------------------------------------------------


def _lower_controlled(op: GateApplication) -> list[GateApplication]:
    cs, t = op.controls, op.targets
    if op.kind == "cx":
        return [GateApplication("x", (t[1],), cs + (t[0],))]
    if op.kind == "cz":
        return [GateApplication("z", (t[1],), cs + (t[0],))]
    if op.kind == "swap":
        inner = GateApplication("x", (t[1],), cs + (t[0],))
        wrap = GateApplication("cx", (t[1], t[0]))
        return [wrap, inner, wrap]
    if op.kind == "zzphase":
        wrap = GateApplication("cx", t)
        return [wrap, GateApplication("rz", (t[1],), cs, op.params), wrap]
    if len(cs) == 1:
        return _single_controlled_1q(op)
    return _barenco(op)


def _single_controlled_1q(op: GateApplication) -> list[GateApplication]:
    (c,), t = op.controls, op.targets
    if op.kind == "x":
        return [GateApplication("cx", (c, t[0]))]
    if op.kind == "z":
        return [GateApplication("cz", (c, t[0]))]
    if op.kind in ("rz", "ry"):
        (theta,) = op.params
        cx = GateApplication("cx", (c, t[0]))
        return [
            GateApplication(op.kind, t, params=(theta / 2,)),
            cx,
            GateApplication(op.kind, t, params=(-theta / 2,)),
            cx,
        ]
    if op.kind == "phase":
        (lam,) = op.params
        cx = GateApplication("cx", (c, t[0]))
        return [
            GateApplication("phase", (c,), params=(lam / 2,)),
            GateApplication("phase", t, params=(lam / 2,)),
            cx,
            GateApplication("phase", t, params=(-lam / 2,)),
            cx,
        ]
    # Generic single-controlled 1q gate: ABC decomposition.
    alpha, b, a, c_angle = zyz_angles(op.base_matrix())
    cx = GateApplication("cx", (c, t[0]))
    out = [
        GateApplication("rz", t, params=((c_angle - a) / 2,)),
        cx,
        GateApplication("rz", t, params=(-(c_angle + a) / 2,)),
        GateApplication("ry", t, params=(-b / 2,)),
        cx,
        GateApplication("ry", t, params=(b / 2,)),
        GateApplication("rz", t, params=(a,)),
    ]
    if abs(alpha) > _ANGLE_EPS:
        out.append(GateApplication("phase", (c,), params=(alpha,)))
    return out


def _barenco(op: GateApplication) -> list[GateApplication]:
    """k>=2 controls on a single-qubit gate via the square-root recursion."""
    cs, t = op.controls, op.targets[0]
    v = _unitary_sqrt(op.base_matrix())
    front, back = cs[:-1], cs[-1]
    cv = GateApplication("unitary", (t,), (back,), matrix=v)
    cv_dag = GateApplication("unitary", (t,), (back,), matrix=v.conj().T)
    toggle = GateApplication("x", (back,), front)
    tail = GateApplication("unitary", (t,), front, matrix=v)
    return [cv, toggle, cv_dag, toggle, tail]


def _unitary_sqrt(u: np.ndarray) -> np.ndarray:
    """Principal square root of a unitary via complex Schur form."""
    t_mat, q = schur(u, output="complex")
    roots = np.exp(0.5j * np.angle(np.diagonal(t_mat)))
    return q @ np.diag(roots) @ q.conj().T


# -- generic matrices: two-level decomposition -------------------------------


def _lower_generic(op: GateApplication) -> list[GateApplication]:
    """Multi-target matrix as two-level rotations, each keeping the op's controls."""
    pieces = _two_level_ops(op.matrix, op.targets)
    if op.controls:
        pieces = [
            GateApplication(g.kind, g.targets, g.controls + op.controls, g.params, g.matrix)
            for g in pieces
        ]
    return pieces


def _two_level_ops(u: np.ndarray, qubits: tuple[str, ...]) -> list[GateApplication]:
    """Decompose a d x d unitary into two-level rotations on basis pairs."""
    d = u.shape[0]
    m = np.array(u, dtype=complex)
    rotations: list[tuple[int, int, np.ndarray]] = []
    for j in range(d - 1):
        for i in range(d - 1, j, -1):
            a, b = m[j, j], m[i, j]
            if abs(b) < 1e-14:
                continue
            r = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            block = np.array([[np.conj(a), np.conj(b)], [b, -a]]) / r
            g = np.eye(d, dtype=complex)
            g[j, j], g[j, i] = block[0, 0], block[0, 1]
            g[i, j], g[i, i] = block[1, 0], block[1, 1]
            m = g @ m
            rotations.append((j, i, block))
    # m is now diag(1, ..., 1, e^{i phi}) up to numerical noise.
    ops: list[GateApplication] = []
    phi = float(np.angle(m[d - 1, d - 1]))
    if abs(phi) > _ANGLE_EPS:
        # Index d-1 is all-ones, so a plain multi-controlled phase suffices.
        ops.append(GateApplication("phase", (qubits[-1],), tuple(qubits[:-1]), (phi,)))
    for j, i, block in reversed(rotations):
        ops.extend(_two_level_gate(block.conj().T, j, i, qubits))
    return ops


def _two_level_gate(
    block: np.ndarray, idx_a: int, idx_b: int, qubits: tuple[str, ...]
) -> list[GateApplication]:
    """Unitary acting as ``block`` on basis pair (idx_a, idx_b), identity elsewhere.

    ``block`` rows/columns are ordered (idx_a, idx_b).  Realized by Gray-walking
    idx_a next to idx_b with value-controlled X transpositions, applying a
    value-controlled single-qubit gate on the one differing bit, and undoing
    the walk.  Each transposition is self-inverse, so the undo is the same
    gate sequence in reverse unit order.
    """
    n = len(qubits)

    def bit(idx: int, q: int) -> int:
        return (idx >> (n - 1 - q)) & 1

    diff = [q for q in range(n) if bit(idx_a, q) != bit(idx_b, q)]
    walk_units: list[list[GateApplication]] = []
    current = idx_a
    for q in diff[:-1]:
        walk_units.append(_mc_gate_at(current, q, None, qubits))
        current ^= 1 << (n - 1 - q)
    pivot = diff[-1]
    # ``current`` and idx_b now differ only at ``pivot``; orient the block so
    # its first row corresponds to the pivot-bit-0 state.
    if bit(current, pivot) == 1:
        block = block[np.ix_([1, 0], [1, 0])]
    core = _mc_gate_at(idx_b, pivot, block, qubits)
    flat = [g for unit in walk_units for g in unit]
    undo = [g for unit in reversed(walk_units) for g in unit]
    return flat + core + undo


def _mc_gate_at(
    index: int, target: int, block: np.ndarray | None, qubits: tuple[str, ...]
) -> list[GateApplication]:
    """Gate on ``target`` controlled on every other qubit matching ``index``.

    Value-0 controls are X-conjugated.  ``block=None`` means an X gate.
    """
    n = len(qubits)
    wraps, controls = [], []
    for q in range(n):
        if q == target:
            continue
        controls.append(qubits[q])
        if (index >> (n - 1 - q)) & 1 == 0:
            wraps.append(GateApplication("x", (qubits[q],)))
    if block is None:
        core = GateApplication("x", (qubits[target],), tuple(controls))
    else:
        core = GateApplication("unitary", (qubits[target],), tuple(controls), matrix=block)
    return wraps + [core] + list(reversed(wraps))


# -- cleanup -----------------------------------------------------------------


def _merged(ops: list[GateApplication]) -> list[GateApplication]:
    """Merge adjacent rotations and drop zero or cancelled ones, in one pass.

    ``ops`` are native, so none carries controls.  A merged gate keeps the
    kind, targets and phase axis of the gate it replaces, so it cannot merge
    with the gate below it: one pass is the fixpoint.
    """
    out: list[GateApplication] = []
    for op in ops:
        if op.kind in _ROTATIONS and abs(op.params[0]) < _ANGLE_EPS:
            continue
        if not (out and _mergeable(out[-1], op)):
            out.append(op)
            continue
        prev = out.pop()
        angle = prev.params[0] + op.params[0]
        if abs(angle) >= _ANGLE_EPS:
            out.append(GateApplication(prev.kind, prev.targets, params=(angle,) + prev.params[1:]))
    return out


def _mergeable(a: GateApplication, b: GateApplication) -> bool:
    """Rotations of one kind about one axis on the same qubits."""
    if a.kind != b.kind or a.kind not in _ROTATIONS:
        return False
    if a.kind == "zzphase":
        return set(a.targets) == set(b.targets)
    return a.targets == b.targets and (
        a.kind == "rz" or abs(a.params[1] - b.params[1]) < _ANGLE_EPS
    )
