"""Shared generators and the unitary equivalence oracle for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from qmcmc.markov import Distribution, MarkovKernel
from qmcmc.noise import NoiseModel


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


def random_circuit(rng: np.random.Generator, qubits: list[str], depth: int):
    """Random circuit over a mixed gate alphabet (no measurements)."""
    from qmcmc.circuit import Circuit

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
