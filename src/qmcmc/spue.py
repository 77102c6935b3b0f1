"""Projected unitary encodings of Markov kernels and their qubitized walks.

A symmetric projected unitary encoding is a pair (U, E) of a unitary U on a
register Hilbert space and a partial isometry E embedding an n-dimensional
source space, with E^dag U E equal to a symmetric operator A.  The qubitized
walk W = (2 E E^dag - 1) U then carries A's spectrum as eigenphase pairs
+-arccos(lambda), which is what the preparation and estimation algorithms
exploit.

Four concrete constructions are provided for the two-state kernel family:
a linear-combination-of-unitaries encoding, the Szegedy quantization (which
also works for arbitrary reversible kernels in matrix form), a
controlled-swap Metropolis-Hastings encoding, and a pair-space walk for the
Metropolis-Hastings process on directed edges.

Isometries are represented canonically as explicit matrices for dense
verification; the shipped encodings additionally carry circuit realizations
for shot-based experiments.  Every constructor checks its encoded operator
against its kernel, and circuits meet matrices only in ``walk_operator``.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from math import acos, pi, sin, sqrt
from typing import Sequence

import numpy as np

from ._apply import gram_deviation, readonly, serial_product
from .circuit import Circuit, unitary_of
from .config import PHASE_TOL, PROPOSAL_TOL, SPECTRUM_TOL, SYMMETRY_TOL, UNITARY_TOL
from .errors import ConstructionInvalid, NotSymmetric, NotUnitary, Unsupported
from .markov import (
    Distribution,
    MarkovKernel,
    _two_state_matrix,
    discriminant,
    flip_proposal,
    stationary,
)
from .statevector import statevector_of


@dataclass(frozen=True, eq=False)
class PartialIsometry:
    """Embedding of an n-dimensional source space into a qubit register space.

    ``matrix`` has orthonormal columns (2^q x n).  When a circuit realization
    exists, ``zero_qubits`` names the registers whose |0> state defines the
    embedded subspace before ``prep_circuit``; ``walk_operator`` builds the
    reflection circuit from them and checks it against ``matrix``.
    """

    matrix: np.ndarray
    prep_circuit: Circuit | None = None
    zero_qubits: tuple[str, ...] = ()

    def __post_init__(self):
        m = readonly(self.matrix, complex)
        if m.ndim != 2:
            raise ValueError("isometry must be a matrix")
        err = gram_deviation(m)
        if not err <= UNITARY_TOL:
            raise ValueError(f"isometry columns not orthonormal (deviation {err:.3e})")
        object.__setattr__(self, "matrix", m)

    @property
    def source_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def space_dim(self) -> int:
        return self.matrix.shape[0]

    def projector(self) -> np.ndarray:
        return self.matrix @ self.matrix.conj().T


@dataclass(frozen=True, eq=False)
class Spue:
    """Unitary plus partial isometry with a symmetric encoded operator.

    ``encoded`` is that operator, E^dag U E, computed once when the encoding
    is built and read-only.
    """

    unitary: np.ndarray
    isometry: PartialIsometry
    circuit: Circuit | None = None
    name: str = ""
    encoded: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = readonly(self.unitary, complex)
        dim = self.isometry.space_dim
        if u.shape != (dim, dim):
            raise ValueError("unitary dimension does not match isometry space")
        err = gram_deviation(u)
        if not err <= UNITARY_TOL:
            raise NotUnitary(f"encoding unitary deviates from unitarity by {err:.3e}")
        object.__setattr__(self, "unitary", u)
        if not float(np.max(np.abs(u - u.T))) <= SYMMETRY_TOL:
            warnings.warn(
                f"encoding unitary {self.name or '<anonymous>'} is not symmetric; "
                "only the encoded operator's symmetry is enforced",
                stacklevel=3,
            )
        # Raises NotSymmetric on a broken encoding.
        object.__setattr__(self, "encoded", encoded_operator(self))


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """Reflection (2 E E^dag - 1) times the encoding unitary."""

    spue: Spue
    total: np.ndarray
    circuit: Circuit | None = None


def encoded_operator(spue: Spue) -> np.ndarray:
    """A = E^dag U E, read-only; raises NotSymmetric if the encoding is broken."""
    e = spue.isometry.matrix
    a = e.conj().T @ spue.unitary @ e
    asym = float(np.max(np.abs(a - a.T)))
    if not asym <= SYMMETRY_TOL:
        raise NotSymmetric(f"encoded operator asymmetry {asym:.3e}")
    a.setflags(write=False)
    return a


def _check_encodes(spue: Spue, kernel: np.ndarray) -> Spue:
    """Return ``spue``; raise ConstructionInvalid unless E^dag U E is ``kernel``."""
    dev = float(np.max(np.abs(spue.encoded - kernel)))
    if not dev <= SPECTRUM_TOL:
        raise ConstructionInvalid(f"{spue.name} encoded operator is {dev:.3e} from its kernel")
    return spue


def walk_operator(spue: Spue) -> WalkOperator:
    """Qubitized walk W = (2 E E^dag - 1) U, with a circuit checked against W when available."""
    refl = 2.0 * spue.isometry.projector() - np.eye(spue.isometry.space_dim)
    total = serial_product(refl, spue.unitary)
    circuit = None
    iso = spue.isometry
    if (
        spue.circuit is not None
        and iso.prep_circuit is not None
        and iso.zero_qubits
        and iso.source_dim * 2 ** len(iso.zero_qubits) == iso.space_dim
    ):
        circuit = spue.circuit.copy()
        circuit.reflection(iso.prep_circuit, iso.zero_qubits).freeze()
        dev = float(np.max(np.abs(unitary_of(circuit) - total)))
        if not dev <= UNITARY_TOL:
            raise ConstructionInvalid(f"walk circuit disagrees with matrix by {dev:.3e}")
    return WalkOperator(spue, total, circuit)


# -- spectral correspondence --------------------------------------------------


@dataclass(frozen=True)
class SpectralEntry:
    eigenvalue: float
    theta: float
    walk_phases: tuple[float, ...]
    phase_error: float
    subspace_residual: float
    ok: bool


@dataclass(frozen=True)
class SpectralReport:
    entries: tuple[SpectralEntry, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "entries": [asdict(e) for e in self.entries],
            "violations": list(self.violations),
        }


def check_spectral_correspondence(walk: WalkOperator) -> SpectralReport:
    """Verify the eigenphase correspondence between the walk and A.

    For each eigenpair (lambda, v) of the encoded operator: interior
    eigenvalues must produce walk eigenphases +-arccos(lambda) on the
    two-dimensional invariant span {Ev, UEv}; boundary eigenvalues +-1 must
    make Ev a fixed (respectively negated) vector of the walk.  Violations
    are collected in the report rather than raised.
    """
    a = walk.spue.encoded
    e = walk.spue.isometry.matrix
    u = walk.spue.unitary
    w = walk.total
    vals, vecs = np.linalg.eigh(a)
    entries = []
    violations = []
    predicted: list[float] = []
    for lam, v in zip(vals, vecs.T):
        ev = e @ v
        if abs(abs(lam) - 1.0) <= PHASE_TOL:
            lam_r = float(np.sign(lam))
            resid = float(np.linalg.norm(w @ ev - lam_r * ev))
            theta = 0.0 if lam_r > 0 else pi
            entry = SpectralEntry(float(lam), theta, (theta,), resid, resid, resid <= PHASE_TOL)
            predicted.append(theta)
        else:
            theta = float(np.arccos(np.clip(lam, -1.0, 1.0)))
            basis = _orthonormalize(np.column_stack([ev, u @ ev]))
            m = basis.conj().T @ w @ basis
            resid = float(np.linalg.norm(w @ basis - basis @ m))
            phases = np.angle(np.linalg.eigvals(m))
            err = float(
                np.max(np.abs(np.sort(np.abs(phases)) - np.sort([theta, theta])))
            )
            ok = resid <= PHASE_TOL and err <= PHASE_TOL
            entry = SpectralEntry(
                float(lam), theta, tuple(sorted(float(p) for p in phases)), err, resid, ok
            )
            predicted.extend([theta, -theta])
        entries.append(entry)
        if not entry.ok:
            violations.append(
                f"eigenvalue {entry.eigenvalue:.6f}: phase error {entry.phase_error:.2e}, "
                f"subspace residual {entry.subspace_residual:.2e}"
            )
    violations.extend(_greedy_phase_match(w, predicted, PHASE_TOL))
    return SpectralReport(tuple(entries), tuple(violations))


def _orthonormalize(cols: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(cols)
    keep = np.abs(np.diagonal(r)) > 1e-9
    return q[:, keep]


def _greedy_phase_match(w: np.ndarray, predicted: Sequence[float], tol: float) -> list[str]:
    """Match predicted eigenphases to the walk spectrum, nearest first; return the misses.

    Greedy assignment with collision detection: every predicted phase must
    claim a distinct walk eigenphase within tolerance (handles degenerate
    spectra by multiplicity).
    """
    actual = np.angle(np.linalg.eigvals(w))
    used = np.zeros(len(actual), dtype=bool)
    violations = []
    for p in sorted(predicted):
        diffs = np.abs(np.angle(np.exp(1j * (actual - p))))
        diffs[used] = np.inf
        k = int(np.argmin(diffs))
        if not diffs[k] <= tol:
            violations.append(f"no unclaimed walk phase within {tol:.1e} of {p:.6f}")
        else:
            used[k] = True
    return violations


# -- concrete encodings --------------------------------------------------------


def lcu_encoding(delta: float) -> Spue:
    """Two-qubit encoding of the two-state kernel as (1-d) I + d X.

    An ancilla rotation with amplitude angle theta = arccos(sqrt(1-d))
    weights the identity and flip branches; projecting the ancilla onto |0>
    leaves exactly the kernel.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    theta = acos(sqrt(1 - delta))
    circ = Circuit(["a", "x"])
    circ.ry(2 * theta, "a").cx("a", "x").ry(-2 * theta, "a").freeze()
    u = unitary_of(circ)
    iso_matrix = np.zeros((4, 2), dtype=complex)
    iso_matrix[0, 0] = iso_matrix[1, 1] = 1.0
    prep = Circuit(["a", "x"]).freeze()
    iso = PartialIsometry(iso_matrix, prep, ("a",))
    return _check_encodes(Spue(u, iso, circ, name=f"lcu(delta={delta})"), _two_state_matrix(delta))


def lcu_walk(delta: float) -> WalkOperator:
    return walk_operator(lcu_encoding(delta))


def two_state_row_prep(kernel: MarkovKernel) -> Circuit:
    """Unitary O with O|x, 0> = sum_y sqrt(p(x, y)) |x, y> for a 2-state kernel.

    Phase-kickback realization: a conditional Rz between Hadamards writes the
    row amplitudes of either row depending on the x register.
    """
    if kernel.n != 2:
        raise ValueError("row-preparation circuit is only built for 2-state kernels")
    angle0 = acos(np.clip(sqrt(kernel.p[0, 0]), -1.0, 1.0))
    angle1 = acos(np.clip(sqrt(kernel.p[1, 0]), -1.0, 1.0))
    circ = Circuit(["x", "y"])
    circ.x("x").s("y").h("y")
    circ.rz(-2 * angle0, "y", controls=("x",))
    circ.x("x")
    circ.rz(-2 * angle1, "y", controls=("x",))
    circ.h("y").sdg("y")
    return circ.freeze()


def szegedy_encoding(kernel: MarkovKernel, pi: Distribution | None = None) -> Spue:
    """Szegedy quantization: step isometry |x>|p(x, .)> with the register swap.

    The encoded operator is the discriminant of the kernel, so reversibility
    is required.  Arbitrary reversible kernels are supported in matrix form;
    2-state kernels also get a circuit realization.
    """
    if pi is None:
        pi = stationary(kernel)
    expected = discriminant(kernel, pi)  # raises NotReversible if broken
    n = kernel.n
    q = max(1, int(np.ceil(np.log2(n))))
    dim = 4**q
    iso_matrix = np.zeros((dim, n), dtype=complex)
    for x in range(n):
        for y in range(n):
            iso_matrix[(x << q) | y, x] = sqrt(kernel.p[x, y])
    u = np.zeros((dim, dim), dtype=complex)
    for x in range(2**q):
        for y in range(2**q):
            u[(y << q) | x, (x << q) | y] = 1.0

    circuit = None
    prep = None
    zero_qubits: tuple[str, ...] = ()
    if n == 2:
        prep = two_state_row_prep(kernel)
        zero_qubits = ("y",)
        circuit = Circuit(["x", "y"]).swap("x", "y").freeze()
    iso = PartialIsometry(iso_matrix, prep, zero_qubits)
    return _check_encodes(Spue(u, iso, circuit, name=f"szegedy(n={n})"), expected)


def szegedy_walk(kernel: MarkovKernel, pi: Distribution | None = None) -> WalkOperator:
    return walk_operator(szegedy_encoding(kernel, pi))


def cswap_encoding(proposal: MarkovKernel, acceptance_angle: float) -> Spue:
    """Metropolis-Hastings encoding with a coin-controlled register swap.

    The proposal register is computed by O_T, the coin is rotated by the
    acceptance angle, and the unitary is the coin-controlled swap of the
    state and proposal registers.  Encodes the two-state kernel with
    delta = sin^2(acceptance_angle).  Only the deterministic flip proposal
    is realizable as O_T here.
    """
    flip = flip_proposal().p
    if proposal.p.shape != flip.shape or not np.max(np.abs(proposal.p - flip)) <= PROPOSAL_TOL:
        raise Unsupported("controlled-swap encoding supports the flip proposal only")
    if not 0 <= acceptance_angle <= pi / 2:
        raise ValueError("acceptance angle must lie in [0, pi/2]")
    qubits = ["x", "y", "c"]
    circ = Circuit(qubits).cswap("c", "x", "y").freeze()
    u = unitary_of(circ)
    prep = Circuit(qubits)
    prep.cx("x", "y").x("y")
    prep.ry(-2 * acceptance_angle, "c")
    prep.freeze()
    iso_matrix = unitary_of(prep)[:, [0, 4]]
    iso = PartialIsometry(iso_matrix, prep, ("y", "c"))
    spue = Spue(u, iso, circ, name=f"cswap(theta={acceptance_angle})")
    return _check_encodes(spue, _two_state_matrix(sin(acceptance_angle) ** 2))


def cswap_walk(proposal: MarkovKernel, acceptance_angle: float) -> WalkOperator:
    return walk_operator(cswap_encoding(proposal, acceptance_angle))


# -- pair-space (dual) walk ----------------------------------------------------

DUAL_QUBITS = ("s", "oh", "ot", "it", "ih", "c")

# Directed edges (tail, head) indexed 2*tail + head; reversal swaps the roles.
_EDGE_COUNT = 4


def _edge_embed_index(tail: int, head: int) -> int:
    # Register order (s, oh, ot, it, ih, c): out edge holds head on oh, tail on ot.
    return (head << 4) | (tail << 3)


def dual_walk(acceptance_angle: float) -> tuple[WalkOperator, Circuit]:
    """Qubitized walk for the Metropolis-Hastings process on directed edges.

    The edge process keeps the current edge with probability 1 - d and
    reverses it with probability d = sin^2(acceptance_angle); its head
    marginal is the two-state flip chain.  The encoding is Szegedy-style on
    two edge registers: the step isometry copies the out edge and writes the
    coin-weighted accept branch through a controlled swap of the in-edge
    qubits, and the encoding unitary is the edge-register swap joined with an
    X on the extra encoding ancilla (which therefore must sit in |+>).

    Returns the walk and the eigenstate preparer V; V|0> is the uniform
    proper-edge product state, the +1 eigenvector at acceptance angle pi/4.
    """
    if not 0 < acceptance_angle <= pi / 2:
        raise ValueError("acceptance angle must lie in (0, pi/2]")
    theta = acceptance_angle
    delta = sin(theta) ** 2
    qubits = list(DUAL_QUBITS)

    u_circ = Circuit(qubits)
    u_circ.x("s").swap("oh", "ih").swap("ot", "it").freeze()
    u = unitary_of(u_circ)

    prep = Circuit(qubits)
    prep.h("s")
    prep.cx("ot", "it").cx("oh", "ih")
    prep.ry(2 * theta, "c")
    prep.cswap("c", "it", "ih")
    prep.cx("it", "c").cx("ot", "c")
    prep.freeze()

    embed = [_edge_embed_index(e >> 1, e & 1) for e in range(_EDGE_COUNT)]
    iso_matrix = unitary_of(prep)[:, embed]
    iso = PartialIsometry(iso_matrix, prep, ("s", "it", "ih", "c"))
    spue = Spue(u, iso, u_circ, name=f"dual(theta={theta})")

    # The encoded operator must be the lazy reversal kernel on edges, and the
    # uniform proper-edge state must be fixed by the walk.
    reversal = np.eye(_EDGE_COUNT)[[0b00, 0b10, 0b01, 0b11]]
    walk = walk_operator(_check_encodes(spue, (1 - delta) * np.eye(_EDGE_COUNT) + delta * reversal))
    v_proper = np.zeros(4)
    v_proper[0b01] = v_proper[0b10] = 1 / sqrt(2)
    fixed = iso_matrix @ v_proper
    if not float(np.linalg.norm(walk.total @ fixed - fixed)) <= PHASE_TOL:
        raise ConstructionInvalid("uniform proper-edge state is not fixed by the walk")

    eigenstate_prep = Circuit(qubits)
    eigenstate_prep.h("s")
    eigenstate_prep.h("oh").cx("oh", "ot").x("ot")
    eigenstate_prep.h("it").cx("it", "ih").x("ih")
    eigenstate_prep.freeze()
    if abs(theta - pi / 4) < 1e-12:
        v_state = statevector_of(eigenstate_prep).amps
        if not float(np.linalg.norm(walk.total @ v_state - v_state)) <= PHASE_TOL:
            raise ConstructionInvalid("eigenstate preparer output is not fixed by the walk")
    return walk, eigenstate_prep
