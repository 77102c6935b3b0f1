"""Lowering to the trapped-ion native gate set {PhasedX, Rz, ZZPhase}.

The pipeline is correctness-first: composite and multi-controlled gates are
rewritten with standard identities (controlled-swap via CX + Toffoli, k
controls via the square-root recursion), two-qubit gates via a fixed ZZPhase
template, and single-qubit gates via ZYZ Euler angles (Barenco et al. 1995,
"Elementary gates for quantum computation").  Lowering is one recursive pass:
every rule yields gates with fewer controls or fewer targets, or native ones,
and each of them is lowered in turn.  The only optimization applied
afterwards is one peephole pass that merges adjacent rotations and drops the
ones that cancel.  Gate-count parity with any particular compiler is out of
scope: ``experiments.transpile_report`` sets the counts against reference
numbers and flags large ratios as warnings only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, pi

import numpy as np

from .circuit import Circuit, GateApplication
from .errors import Unsupported

NATIVE_KINDS = {"phasedx", "rz", "zzphase", "measure"}

_ANGLE_EPS = 1e-12

_ROTATIONS = ("rz", "zzphase", "phasedx")


@dataclass(frozen=True)
class TranspileReport:
    """Native circuit and its gate counts."""

    circuit: Circuit
    counts: dict[str, int]


def transpile_native(circuit: Circuit) -> TranspileReport:
    """Rewrite a circuit over {PhasedX, Rz, ZZPhase, measure}.

    The output is unitary-equivalent to the input up to global phase
    (measurement-free case); measurements pass through in place.  A
    ``unitary`` op on more than one target has no rule and raises
    ``Unsupported``.
    """
    ops = _merged([g for op in circuit.ops for g in _lowered(op)])
    out = Circuit(circuit.qubits).extend(ops).freeze()
    return TranspileReport(out, out.gate_counts())


def _lowered(op: GateApplication) -> list[GateApplication]:
    """``op`` as native gates: apply one rewrite rule, then lower each piece."""
    if op.kind in NATIVE_KINDS and not op.controls:
        return [op]
    if op.kind == "unitary" and len(op.targets) > 1:
        raise Unsupported(f"no native lowering for a {len(op.targets)}-target unitary op")
    if op.controls:
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
    """A square root of a 2x2 unitary, in closed form.

    Barenco lowering only roots single-qubit gates, so 2x2 is the only case,
    and it needs any unitary v with v @ v = u.  The eigenvalues are
    l1,2 = tr/2 +- disc with disc^2 = ((a - d)/2)^2 + bc, which equals
    tr^2/4 - det but does not cancel when u is near a scalar.  With roots
    r1,2 of l1,2, Sylvester's formula gives v = (u + r1 r2 I) / (r1 + r2).
    The roots are the principal ones (``np.sqrt``), so v is the principal
    root, unless they nearly cancel: that happens when l1 and l2 sit either
    side of -1 (rz, ry or rx near 2 pi), and there r2 flips sign, so
    |r1 + r2| >= 1 always.  The roots of X, Z and -I come out exact.  ``u``
    must be complex, as every gate matrix is: ``np.sqrt`` of a negative
    float is NaN.
    """
    (a, b), (c, d) = u
    half_tr = (a + d) / 2
    disc = np.sqrt(((a - d) / 2) ** 2 + b * c)
    r1, r2 = np.sqrt(half_tr + disc), np.sqrt(half_tr - disc)
    if abs(r1 + r2) < 1:
        r2 = -r2
    return (u + r1 * r2 * np.eye(2)) / (r1 + r2)


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
