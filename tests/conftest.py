"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import tracemalloc
from math import pi

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.linalg import schur

from qmcmc.circuit import Circuit
from qmcmc.markov import Distribution, MarkovKernel
from qmcmc.noise import NoiseModel


def traced_peak(call) -> int:
    """Peak bytes that ``call()`` holds above what was live before it, under a
    running ``tracemalloc``."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    call()
    return tracemalloc.get_traced_memory()[1] - base


_PAULIS_1Q = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1, -1]).astype(complex),
)


def pauli_matrix(num_qubits: int, index: int) -> np.ndarray:
    """Dense Pauli string of ``index`` in 1..4**k - 1, a Kronecker product:
    base-4 digit ``i`` (0 = I, 1 = X, 2 = Y, 3 = Z) is the factor on the
    ``i``-th qubit, the first qubit most significant."""
    out = np.eye(1, dtype=complex)
    for i in range(num_qubits):
        out = np.kron(out, _PAULIS_1Q[index >> 2 * i & 3])
    return out


def random_reversible_kernel(rng: np.random.Generator, n: int) -> tuple[MarkovKernel, Distribution]:
    """Reversible ergodic kernel from a symmetric positive flow matrix."""
    flow = rng.uniform(0.1, 1.0, size=(n, n))
    flow = (flow + flow.T) / 2
    row_mass = flow.sum(axis=1)
    p = flow / row_mass[:, None]
    pi = row_mass / row_mass.sum()
    return MarkovKernel(p), Distribution(pi)


def phases_equal_up_to_global(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> bool:
    """True if u = e^{ia} v for some real a, within elementwise tolerance."""
    if u.shape != v.shape:
        return False
    k = int(np.argmax(np.abs(v)))
    ref = v.flat[k]
    if abs(ref) < 1e-14:
        return bool(np.allclose(u, v, atol=tol, rtol=0))
    phase = u.flat[k] / ref
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(u, phase * v, atol=tol, rtol=0))


def schur_sqrt(u: np.ndarray) -> np.ndarray:
    """Principal square root of a unitary via complex Schur form.

    This is the root Barenco lowering took before its closed form.  An
    eigenvalue -1 takes ``np.angle``'s +pi side, so its root is +i.
    """
    t_mat, q = schur(u, output="complex")
    angles = np.angle(np.diagonal(t_mat))
    roots = np.exp(0.5j * np.where(angles == -pi, pi, angles))
    return q @ np.diag(roots) @ q.conj().T


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian, column phases fixed by R's diagonal."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def moveaxis_apply(
    arr: np.ndarray, mat: np.ndarray, targets: tuple[int, ...], controls: tuple[int, ...]
) -> np.ndarray:
    """Reference gate application on a batch-first array that works out the
    target layout with ``np.moveaxis`` on every call; the kernel's cached
    layout plans must match it byte for byte."""
    if controls:
        n = arr.ndim - 1
        out = arr.copy()
        # Axis 0 is the batch (q = -1); axis q + 1 is qubit q.
        sel = tuple(1 if q in controls else slice(None) for q in range(-1, n))
        remaining = [q for q in range(n) if q not in controls]
        sub_targets = tuple(remaining.index(t) for t in targets)
        out[sel] = moveaxis_apply(out[sel], mat, sub_targets, ())
        return out
    src = [t + 1 for t in targets]
    dst = list(range(arr.ndim - len(targets), arr.ndim))
    moved = np.moveaxis(arr, src, dst)
    applied = moved.reshape(-1, mat.shape[0]) @ mat.T
    return np.moveaxis(applied.reshape(moved.shape), dst, src)


def qpe_point_mass_distribution(phase: float, t: int) -> np.ndarray:
    """Exact QPE outcome law for one eigenphase: squared Dirichlet kernel."""
    n = 2**t
    ks = np.arange(n)
    amp = np.array(
        [np.sum(np.exp(2j * pi * np.arange(n) * (phase - k / n))) / n for k in ks]
    )
    return np.abs(amp) ** 2


def householder_prep(probabilities, qubits) -> Circuit:
    """|0..0> -> sum_x sqrt(p(x))|x> as one gate: I - 2ww^dag/|w|^2 with w = e0 - sqrt(p)."""
    w = -np.sqrt(np.asarray(probabilities, dtype=float))
    w[0] += 1.0
    return Circuit(qubits).unitary(np.eye(len(w)) - 2 * np.outer(w, w) / (w @ w), qubits).freeze()


def reflection_walk_circuit(prep: Circuit, flag: str) -> Circuit:
    """Qubitized walk of the reflection about prep|0> against the flag's |0>.

    The reflection is prep (2|0><0| - 1) prep^dag over all prep qubits; the
    walk multiplies it by Z on the flag.  This is the gate-level form of the
    walk that ``qae_mean`` builds as a matrix.
    """
    return Circuit(prep.qubits).reflection(prep, prep.qubits).z(flag).freeze()


def random_circuit(rng: np.random.Generator, qubits: list[str], depth: int):
    """Random circuit over a mixed gate alphabet (no measurements)."""
    circ = Circuit(qubits)
    for _ in range(depth):
        kind = rng.choice(
            ["h", "x", "y", "z", "s", "sdg", "rx", "ry", "rz", "phase",
             "cx", "cz", "swap", "zzphase", "ccx", "crz"]
        )
        if kind in ("h", "x", "y", "z", "s", "sdg"):
            circ._add(kind, (rng.choice(qubits),))
        elif kind in ("rx", "ry", "rz", "phase"):
            circ._add(kind, (rng.choice(qubits),), params=(rng.uniform(-np.pi, np.pi),))
        elif kind in ("cx", "cz", "swap"):
            a, b = rng.choice(qubits, size=2, replace=False)
            circ._add(kind, (a, b))
        elif kind == "zzphase":
            a, b = rng.choice(qubits, size=2, replace=False)
            circ._add(kind, (a, b), params=(rng.uniform(-np.pi, np.pi),))
        elif kind == "ccx" and len(qubits) >= 3:
            a, b, c = rng.choice(qubits, size=3, replace=False)
            circ._add("x", (c,), controls=(a, b))
        elif kind == "crz":
            a, b = rng.choice(qubits, size=2, replace=False)
            circ._add("rz", (b,), controls=(a,), params=(rng.uniform(-np.pi, np.pi),))
    return circ


@st.composite
def noise_models(draw):
    """Valid noise models with p1 <= p2, so construction does not warn."""
    p2 = draw(st.floats(0.0, 1.0, exclude_max=True))
    return NoiseModel(
        p1=draw(st.floats(0.0, p2)),
        p2=p2,
        p_meas=draw(st.floats(0.0, 1.0, exclude_max=True)),
        attach=draw(st.sampled_from(("native", "logical"))),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
