import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qmcmc.circuit import Circuit, GateApplication
from qmcmc.errors import AddressingError, NotUnitary, PostSelectImpossible
from qmcmc.statevector import (
    StateVector,
    basis_state,
    from_amplitudes,
    overlap,
    post_select,
    sample,
    simulate,
    statevector_of,
    zero_state,
)

from conftest import random_circuit


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = statevector_of(Circuit(["q0"]).h("q0"))
        assert np.allclose(out.amps, np.array([1, 1]) / np.sqrt(2))

    def test_ry_amplitude_angle(self):
        # gate angle 2*theta with theta = arccos(sqrt(1-delta)), delta = 1/4:
        # the |0> amplitude must be sqrt(0.75) and theta itself equals pi/6
        delta = 0.25
        theta = np.arccos(np.sqrt(1 - delta))
        assert theta == pytest.approx(np.pi / 6)
        out = statevector_of(Circuit(["q0"]).ry(2 * theta, "q0"))
        assert out.amps[0].real == pytest.approx(np.sqrt(0.75))
        assert abs(out.amps[0]) ** 2 == pytest.approx(1 - delta)

    def test_cnot_makes_bell_pair(self):
        bell = statevector_of(Circuit(["q0", "q1"]).h("q0").cx("q0", "q1"))
        assert np.allclose(bell.amps, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_rejects_duplicate_qubits(self):
        with pytest.raises(AddressingError):
            Circuit(["q0", "q1"]).cx("q0", "q0")

    def test_rejects_out_of_range(self):
        with pytest.raises(AddressingError):
            Circuit(["q0"]).x("q1")

    def test_rejects_non_unitary_matrix(self):
        with pytest.raises(NotUnitary):
            GateApplication("unitary", ("q0",), matrix=np.array([[1, 0], [0, 2]]))


class TestNormAndInverse:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_norm_preserved_by_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        circ = random_circuit(rng, ["a", "b", "c"], depth=30)
        state = statevector_of(circ)
        assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gate_then_inverse_restores_state(self, seed):
        rng = np.random.default_rng(seed)
        circ = random_circuit(rng, ["a", "b"], depth=12)
        back = circ.copy()
        back.extend(circ.inverse().ops)
        state = statevector_of(back)
        assert np.max(np.abs(state.amps - zero_state(2).amps)) < 1e-10


class TestSampling:
    def test_fair_coin_within_3_sigma(self):
        state = from_amplitudes(np.array([1, 1]) / np.sqrt(2))
        hist = sample(state, [0], 10_000, seed=11)
        assert abs(hist["0"] - 5000) < 150

    def test_deterministic_for_fixed_seed(self):
        state = from_amplitudes(np.array([1, 1, 1, 1]) / 2)
        a = sample(state, [0, 1], 500, seed=3)
        b = sample(state, [0, 1], 500, seed=3)
        assert a == b

    def test_order_independent_per_shot_streams(self):
        # drawing the same shot indices in any order gives the same outcomes
        from qmcmc.rng import shot_rng

        state = from_amplitudes(np.array([1, 1, 1, 1]) / 2)
        probs = state.probabilities()
        cum = np.cumsum(probs)
        seq = {}
        for s in range(200):
            u = shot_rng(123, s).random()
            k = int(np.searchsorted(cum, u, side="right"))
            seq[s] = k
        perm = np.random.default_rng(0).permutation(200)
        for s in perm:
            u = shot_rng(123, int(s)).random()
            k = int(np.searchsorted(cum, u, side="right"))
            assert seq[int(s)] == k

    def test_chi_square_battery(self):
        # ten seeded random states, 1e5 shots each, chi^2 against Born
        for i in range(10):
            rng = np.random.default_rng(1000 + i)
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = from_amplitudes(amps / np.linalg.norm(amps))
            hist = sample(state, [0, 1, 2], 100_000, seed=i)
            observed = np.array([hist.get(format(k, "03b"), 0) for k in range(8)])
            expected = state.probabilities() * 100_000
            keep = expected > 1e-3
            chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
            pvalue = stats.chi2.sf(chi2, keep.sum() - 1)
            assert pvalue > 1e-3, f"state {i}: p={pvalue}"

    def test_marginal_order(self):
        state = basis_state(2, 0b01)  # q0=0, q1=1
        assert sample(state, [1, 0], 10, seed=0) == {"10": 10}


class TestPostSelect:
    def test_trivial_zero(self):
        state, prob = post_select(zero_state(1), 0, 0)
        assert prob == pytest.approx(1.0)
        assert np.allclose(state.amps, [1, 0])

    def test_impossible_branch(self):
        with pytest.raises(PostSelectImpossible):
            post_select(basis_state(1, 1), 0, 0)

    def test_born_probabilities_sum_to_one(self, rng):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = from_amplitudes(amps / np.linalg.norm(amps))
        total = 0.0
        for value in (0, 1):
            _, p = post_select(state, 1, value)
            total += p
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSimulateAndMeasure:
    def test_terminal_measurement_collapses(self):
        circ = Circuit(["a", "b"]).h("a").cx("a", "b")
        circ.measure("a", "b")
        result = simulate(circ, rng=np.random.default_rng(4))
        bit = result.measurements["a"]
        assert result.measurements["b"] == bit
        assert np.allclose(np.abs(result.state.amps) ** 2, np.eye(4)[bit * 3])


class TestCapacity:
    def test_sixteen_qubit_cap(self):
        assert zero_state(16).num_qubits == 16
        with pytest.raises(ValueError):
            zero_state(17)
        with pytest.raises(ValueError):
            zero_state(0)

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))


class TestOverlap:
    def test_self_overlap_unit(self, rng):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = from_amplitudes(amps / np.linalg.norm(amps))
        assert overlap(state, state) == pytest.approx(1.0)

    def test_orthogonal_basis_states(self):
        assert overlap(basis_state(2, 1), basis_state(2, 2)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            overlap(zero_state(1), zero_state(2))
