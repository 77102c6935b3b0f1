from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmcmc.algorithms as algorithms
import qmcmc.circuit
from qmcmc._apply import evolve, marginal_probabilities
from qmcmc.algorithms import (
    FunctionOracle,
    mean_estimate_from_phase,
    phase_estimation,
    prepare_stationary,
    qae_mean,
    qpe_circuit,
)
from qmcmc.circuit import Circuit, unitary_of
from qmcmc.errors import NotUnitary
from qmcmc.markov import two_state_kernel
from qmcmc.spue import dual_walk, lcu_walk, szegedy_walk, two_state_row_prep
from qmcmc.statevector import (
    basis_state,
    from_amplitudes,
    sample_from_probabilities,
    statevector_of,
    zero_state,
)

from conftest import (
    haar_unitary,
    householder_prep,
    qpe_point_mass_distribution,
    reflection_walk_circuit,
)


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

    @pytest.mark.parametrize(
        "table", [[], [[0.5]], [[0.0, 1.0], [1.0, 0.0]], 0.5], ids=["empty", "1x1", "2x2", "scalar"]
    )
    def test_rejects_a_table_that_is_not_a_non_empty_list(self, table):
        with pytest.raises(ValueError, match="non-empty 1-D list of values"):
            FunctionOracle.from_table(table)

    def test_indicator(self):
        oracle = FunctionOracle.from_table([0.0, 1.0])
        u = oracle.matrix()
        assert abs(u[1, 0]) == pytest.approx(1.0)  # |0,0> -> |0,1>
        assert abs(u[2, 2]) == pytest.approx(1.0)  # |1,0> -> |1,0>


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
        prep.extend(householder_prep(pi, names).ops)
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

    def test_walk_circuit_is_evolved_once(self, monkeypatch):
        # dual_walk checks its frozen walk circuit with unitary_of, and at
        # pi/4 checks V|0>; phase estimation of that circuit on that state
        # evolves nothing more.
        calls = []

        def counted(batch, gates):
            calls.append(batch.shape[0])
            return evolve(batch, gates)

        monkeypatch.setattr("qmcmc.circuit.evolve", counted)
        monkeypatch.setattr("qmcmc.statevector.evolve", counted)
        walk, eigenstate_prep = dual_walk(pi / 4)
        built = len(calls)  # the encoding unitary, the isometry prep, the walk, V|0>
        pe = phase_estimation(walk.circuit, statevector_of(eigenstate_prep), 3, 100, 0)
        assert pe.histogram == {0: 100}
        assert built == 4 and len(calls) == built

    @pytest.mark.parametrize(
        "case, t",
        [("dual-eigenstate", 3), ("dual-eigenstate", 8), ("lcu-zero", 4)]
        + [(f"haar-{n}q", t) for n in (1, 3) for t in (1, 2, 5)],
    )
    def test_matches_gate_level_oracle(self, case, t):
        unitary = None
        if case == "dual-eigenstate":
            walk, eigenstate_prep = dual_walk(pi / 4)
            circuit, state = walk.circuit, statevector_of(eigenstate_prep)
        elif case == "lcu-zero":
            circuit, state = lcu_walk(0.25).circuit, zero_state(2)
        else:  # a seeded Haar unitary, estimated as a matrix on a random input
            n = 1 if case == "haar-1q" else 3
            rng = np.random.default_rng(31 + n)
            unitary = haar_unitary(rng, 2**n)
            qubits = [f"q{i}" for i in range(n)]
            circuit = Circuit(qubits).unitary(unitary, qubits).freeze()
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            state = from_amplitudes(amps / np.linalg.norm(amps))
        pe = phase_estimation(circuit if unitary is None else unitary, state, t, shots=2000, seed=9)
        expected = _gate_level_qpe(circuit, state, t, shots=2000, seed=9)
        assert pe.histogram == expected
        if case == "lcu-zero":
            assert len(expected) > 2  # a non-eigenstate input spreads over several k
        if unitary is not None:
            assert len(expected) > 1

    def test_wide_circuit_rejected_before_evolution(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("evolution started")

        # unitary_of checks the budget before it evolves the basis states
        monkeypatch.setattr(qmcmc.circuit, "evolve", unreachable)
        monkeypatch.setattr(algorithms, "evolve", unreachable)
        circ = Circuit([f"q{i}" for i in range(12)]).h("q0")
        with pytest.raises(ValueError, match="12 qubits exceed its 64 MiB budget"):
            phase_estimation(circ, zero_state(12), t=1, shots=10, seed=0)

    def test_measured_circuit_is_not_unitary(self):
        circ = Circuit(["a", "b"]).h("a").cx("a", "b")
        circ.measure("a")
        with pytest.raises(NotUnitary):
            phase_estimation(circ, zero_state(2), t=2, shots=10, seed=0)

    @pytest.mark.parametrize(
        "matrix",
        [np.zeros((2, 2)), np.diag([2.0, 1.0]), np.diag([1.0, 1.0 + 1e-6])],
        ids=["zero", "stretch", "near-unitary"],
    )
    def test_non_unitary_matrix_rejected(self, matrix):
        with pytest.raises(NotUnitary, match="deviates from unitarity"):
            phase_estimation(matrix, basis_state(1, 0), t=2, shots=100, seed=0)

    @pytest.mark.parametrize("t", [2.0, True, 0, -1, "3", None], ids=repr)
    def test_non_integral_t_rejected(self, t):
        with pytest.raises(ValueError, match="phase register needs an int number of bits >= 1"):
            phase_estimation(np.eye(2), basis_state(1, 0), t, shots=10, seed=0)

    def test_register_budget_checked_before_allocation(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("allocation started")

        monkeypatch.setattr(algorithms, "unitary_of", unreachable)
        monkeypatch.setattr(np, "empty", unreachable)
        # 16 B * 2**22 rows * 2 amplitudes = 128 MiB
        with pytest.raises(ValueError, match="t = 22 exceeds its 64 MiB budget"):
            phase_estimation(Circuit(["q"]).z("q"), basis_state(1, 0), 22, shots=10, seed=0)

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

    def test_matches_gate_level_oracle(self):
        values, probs = [0.2, 0.78], np.array([0.3, 0.7])  # mean 0.606, off the 4-bit grid
        oracle = FunctionOracle.from_table(values)
        pi_state = from_amplitudes(np.sqrt(probs))
        hist = qae_mean(pi_state, oracle, t=4, shots=3000, seed=6)
        prep = Circuit(["x0", "f"])
        prep.extend(householder_prep(probs, ["x0"]).ops)
        prep.extend(oracle.circuit.ops)
        walk = reflection_walk_circuit(prep.freeze(), "f")
        entangled = from_amplitudes(oracle.matrix() @ np.kron(pi_state.amps, [1.0, 0.0]))
        expected: dict[float, int] = {}
        for k, count in _gate_level_qpe(walk, entangled, 4, shots=3000, seed=6).items():
            est = mean_estimate_from_phase(k, 4)
            expected[est] = expected.get(est, 0) + count
        assert hist == expected
        assert len(expected) > 1

    def test_complex_amplitudes_match_gate_level_oracle(self):
        values, amps = [0.2, 0.78], np.array([0.6, 0.8j])
        oracle = FunctionOracle.from_table(values)
        pi_state = from_amplitudes(amps)
        hist = qae_mean(pi_state, oracle, t=4, shots=3000, seed=6)
        loader = np.array([[0.6, 0.8j], [0.8j, 0.6]])  # first column is pi
        prep = Circuit(["x0", "f"]).unitary(loader, ["x0"]).extend(oracle.circuit.ops)
        walk = reflection_walk_circuit(prep.freeze(), "f")
        entangled = from_amplitudes(oracle.matrix() @ np.kron(amps, [1.0, 0.0]))
        expected: dict[float, int] = {}
        for k, count in _gate_level_qpe(walk, entangled, 4, shots=3000, seed=6).items():
            est = mean_estimate_from_phase(k, 4)
            expected[est] = expected.get(est, 0) + count
        assert hist == expected
        assert len(expected) > 1

    @pytest.mark.parametrize("shots", [2.5, float("nan"), True], ids=repr)
    def test_non_integral_shots_rejected(self, shots):
        oracle = FunctionOracle.from_table([0.0, 1.0])
        pi_state = from_amplitudes(np.full(2, 1 / np.sqrt(2)))
        with pytest.raises(ValueError, match="shots must be an int >= 1"):
            qae_mean(pi_state, oracle, t=2, shots=shots, seed=2)

    @pytest.mark.parametrize("t", [2.0, True, 0], ids=repr)
    def test_non_integral_t_rejected(self, t):
        oracle = FunctionOracle.from_table([0.0, 1.0])
        pi_state = from_amplitudes(np.full(2, 1 / np.sqrt(2)))
        with pytest.raises(ValueError, match="phase register needs an int number of bits >= 1"):
            qae_mean(pi_state, oracle, t, shots=10, seed=2)

    def test_register_budget_checked_before_allocation(self, monkeypatch):
        oracle = FunctionOracle.from_table([0.0, 1.0])
        pi_state = from_amplitudes(np.full(2, 1 / np.sqrt(2)))

        def unreachable(*args, **kwargs):
            raise AssertionError("allocation started")

        monkeypatch.setattr(algorithms, "unitary_of", unreachable)
        monkeypatch.setattr(np, "empty", unreachable)
        # the walk adds the flag qubit: 16 B * 2**21 rows * 4 amplitudes = 128 MiB
        with pytest.raises(ValueError, match="t = 21 exceeds its 64 MiB budget"):
            qae_mean(pi_state, oracle, 21, shots=10, seed=2)

    def test_estimate_map_is_even_in_k(self):
        for t in (1, 2, 3, 4):
            for k in range(2**t):
                assert mean_estimate_from_phase(k, t) == mean_estimate_from_phase(2**t - k, t)

    def test_reflection_walk_circuit_matches_dense(self):
        oracle = FunctionOracle.from_table([0.0, 1.0])
        prep = Circuit(["x", "f"])
        prep.extend(householder_prep([0.5, 0.5], ["x"]).ops)
        prep.extend(oracle.circuit.renamed({"x0": "x"}).ops)
        walk = reflection_walk_circuit(prep, "f")
        psi = unitary_of(prep)[:, 0]
        u_r = 2 * np.outer(psi, psi.conj()) - np.eye(4)
        z_f = np.diag([1.0, -1.0, 1.0, -1.0])
        assert np.max(np.abs(unitary_of(walk) - z_f @ u_r)) < 1e-10


def _gate_level_qpe(walk_circuit: Circuit, state, t: int, shots: int, seed: int) -> dict[int, int]:
    """Phase histogram of the textbook circuit, evolved gate by gate: t phase
    wires, 2^t - 1 controlled copies of the walk and the inverse QFT."""
    circ, wires = qpe_circuit(walk_circuit, t)
    amps = np.zeros(2**t * state.dim, dtype=complex)
    amps[: state.dim] = state.amps  # phase wires lead the register, all |0>
    final = evolve(amps.reshape((1,) + (2,) * circ.num_qubits), circ.gates())
    wire_index = tuple(circ.index_of(w) for w in wires)
    probs = marginal_probabilities(final, wire_index, circ.num_qubits)[0]
    raw = sample_from_probabilities(probs, t, shots, seed)
    return {int(bits, 2): count for bits, count in raw.items()}
