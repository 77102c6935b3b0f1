import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcmc.algorithms import (
    FunctionOracle,
    mean_estimate_from_phase,
    phase_estimation,
    prepare_stationary,
    qae_mean,
    qpe_point_mass_distribution,
    reflection_walk_circuit,
    state_prep_circuit,
)
from qmcmc.circuit import Circuit, unitary_of
from qmcmc.markov import two_state_kernel
from qmcmc.spue import lcu_walk, szegedy_walk, two_state_row_prep
from qmcmc.statevector import basis_state, from_amplitudes, statevector_of, zero_state

from conftest import random_reversible_kernel


class TestFunctionOracle:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_qubits=st.integers(1, 3))
    def test_oracle_contract(self, seed, n_qubits):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0, 1, size=2**n_qubits)
        oracle = FunctionOracle.from_table(values, n_qubits)
        u = oracle.matrix()
        for x, f in enumerate(values):
            col = u[:, x << 1]
            assert abs(col[x << 1] - np.sqrt(f)) < 1e-10
            assert abs(col[(x << 1) | 1] - np.sqrt(1 - f)) < 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FunctionOracle.from_table([0.5, 1.2])

    def test_indicator(self):
        oracle = FunctionOracle.from_table([0.0, 1.0])
        u = oracle.matrix()
        assert abs(u[1, 0]) == pytest.approx(1.0)  # |0,0> -> |0,1>
        assert abs(u[2, 2]) == pytest.approx(1.0)  # |1,0> -> |1,0>


class TestStatePrep:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_qubits=st.integers(1, 3))
    def test_amplitude_tree(self, seed, n_qubits):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.01, 1, size=2**n_qubits)
        probs /= probs.sum()
        circ = state_prep_circuit(probs, [f"q{i}" for i in range(n_qubits)])
        state = statevector_of(circ)
        assert np.max(np.abs(state.amps - np.sqrt(probs))) < 1e-10


class TestReflectionSpectrum:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_qubits=st.integers(1, 3))
    def test_encoded_reflection_spectrum(self, seed, n_qubits):
        # reflection about the oracle-weighted state encodes eigenvalues
        # {-1, 2 E_pi(f) - 1} against the flag-zero projection
        rng = np.random.default_rng(seed)
        n = 2**n_qubits
        pi = rng.uniform(0.05, 1, size=n)
        pi /= pi.sum()
        f = rng.uniform(0, 1, size=n)
        oracle = FunctionOracle.from_table(f, n_qubits)
        names = [f"x{i}" for i in range(n_qubits)]
        prep = Circuit(names + ["f"])
        prep.extend(state_prep_circuit(pi, names).ops)
        prep.extend(oracle.circuit.ops)
        u = unitary_of(prep)
        psi = u[:, 0]
        refl = 2 * np.outer(psi, psi.conj()) - np.eye(2 * n)
        block = refl[::2, ::2]  # flag qubit is the least significant bit
        vals = np.sort(np.linalg.eigvalsh(block))
        mean = float(pi @ f)
        expected = np.sort(np.concatenate([[-1.0] * (n - 1), [2 * mean - 1]]))
        assert np.max(np.abs(vals - expected)) < 1e-9


class TestPhaseEstimation:
    def test_z_eigenvalue_minus_one(self):
        pe = phase_estimation(Circuit(["q"]).z("q"), basis_state(1, 1), t=1, shots=64, seed=0)
        assert pe.histogram == {1: 64}

    def test_walk_on_embedded_stationary_reads_zero(self):
        walk = lcu_walk(0.25)
        embedded = from_amplitudes(walk.spue.isometry.matrix @ (np.ones(2) / np.sqrt(2)))
        pe = phase_estimation(walk.circuit, embedded, t=2, shots=128, seed=1)
        assert pe.histogram == {0: 128}

    def test_circuit_and_matrix_paths_agree(self):
        walk = lcu_walk(0.25)
        state = zero_state(2)
        a = phase_estimation(walk.circuit, state, t=2, shots=500, seed=9)
        b = phase_estimation(walk.total, state, t=2, shots=500, seed=9)
        assert a.histogram == b.histogram

    @pytest.mark.parametrize("n_state", [2, 4])
    def test_width_mismatch_rejected_for_both_inputs(self, n_state):
        circ = Circuit(["a", "b", "c"]).h("a").cx("a", "b").z("c")
        state = zero_state(n_state)
        for unitary in (circ, unitary_of(circ)):
            with pytest.raises(ValueError, match="dimension does not match"):
                phase_estimation(unitary, state, t=2, shots=10, seed=0)

    def test_spread_phase_matches_dirichlet_kernel(self):
        u = np.diag([np.exp(2j * np.pi / 3), 1.0])
        pe = phase_estimation(u, basis_state(1, 0), t=2, shots=50_000, seed=5)
        law = qpe_point_mass_distribution(1 / 3, 2)
        emp = np.array([pe.histogram.get(k, 0) / 50_000 for k in range(4)])
        assert np.max(np.abs(emp - law)) < 0.01
        assert np.argmax(emp) == 1  # peaked at k = 1

    def test_exact_eigenphase_point_mass(self):
        # amplitude-level check: every k/2^t eigenphase is read exactly
        for k in range(8):
            law = qpe_point_mass_distribution(k / 8, 3)
            assert law[k] == pytest.approx(1.0, abs=1e-10)


class TestPrepareStationary:
    def test_lcu_quarter(self):
        walk = lcu_walk(0.25)
        state, prob = prepare_stationary(walk, zero_state(2), 3)
        assert prob == pytest.approx(0.5, abs=1e-12)
        expected = np.zeros(4)
        expected[:2] = 1 / np.sqrt(2)  # ancilla |0>, register uniform
        assert np.max(np.abs(state.amps - expected)) < 1e-10

    def test_szegedy_quarter(self):
        kernel = two_state_kernel(0.25)
        walk = szegedy_walk(kernel)
        initial = from_amplitudes(unitary_of(two_state_row_prep(kernel))[:, 0])
        state, prob = prepare_stationary(walk, initial, 3)
        assert prob == pytest.approx(0.5, abs=1e-12)
        expected = walk.spue.isometry.matrix @ (np.ones(2) / np.sqrt(2))
        assert np.max(np.abs(state.amps - expected)) < 1e-10

    def test_eigenstate_input_succeeds_with_certainty(self):
        walk = lcu_walk(0.25)
        embedded = from_amplitudes(walk.spue.isometry.matrix @ (np.ones(2) / np.sqrt(2)))
        _, prob = prepare_stationary(walk, embedded, 3)
        assert prob == pytest.approx(1.0, abs=1e-12)


class TestQaeMean:
    def test_indicator_on_uniform(self):
        oracle = FunctionOracle.from_table([0.0, 1.0])
        pi_state = from_amplitudes(np.full(2, 1 / np.sqrt(2)))
        hist = qae_mean(pi_state, oracle, t=2, shots=400, seed=2)
        assert hist == {0.5: 400}

    def test_constant_one(self):
        oracle = FunctionOracle.from_table([1.0, 1.0])
        pi_state = from_amplitudes(np.full(2, 1 / np.sqrt(2)))
        hist = qae_mean(pi_state, oracle, t=2, shots=200, seed=3)
        assert hist == {1.0: 200}

    def test_constant_half(self):
        oracle = FunctionOracle.from_table([0.5, 0.5])
        pi_state = from_amplitudes(np.full(2, 1 / np.sqrt(2)))
        hist = qae_mean(pi_state, oracle, t=2, shots=300, seed=4)
        assert hist == {0.5: 300}

    def test_estimate_map_is_even_in_k(self):
        for t in (1, 2, 3, 4):
            for k in range(2**t):
                assert mean_estimate_from_phase(k, t) == mean_estimate_from_phase(2**t - k, t)

    def test_reflection_walk_circuit_matches_dense(self):
        oracle = FunctionOracle.from_table([0.0, 1.0])
        prep = Circuit(["x", "f"])
        prep.extend(state_prep_circuit([0.5, 0.5], ["x"]).ops)
        prep.extend(oracle.circuit.renamed({"x0": "x"}).ops)
        walk = reflection_walk_circuit(prep, "f")
        psi = unitary_of(prep)[:, 0]
        u_r = 2 * np.outer(psi, psi.conj()) - np.eye(4)
        z_f = np.diag([1.0, -1.0, 1.0, -1.0])
        assert np.max(np.abs(unitary_of(walk) - z_f @ u_r)) < 1e-10
