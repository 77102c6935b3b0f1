import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qmcmc import statevector
from qmcmc._apply import apply_matrix_nd
from qmcmc.circuit import Circuit, GateApplication
from qmcmc.errors import AddressingError, NotUnitary, PostSelectImpossible
from qmcmc.statevector import (
    StateVector,
    basis_state,
    from_amplitudes,
    post_select,
    sample,
    sample_from_probabilities,
    simulate,
    statevector_of,
    zero_state,
)

from conftest import haar_unitary, moveaxis_apply, random_circuit, traced_peak


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

    def test_frozen_circuit_state_is_computed_once(self):
        circ = Circuit(["q0", "q1"]).h("q0").cx("q0", "q1").freeze()
        state = statevector_of(circ)
        assert statevector_of(circ) is state
        unfrozen = circ.copy()
        fresh = statevector_of(unfrozen)
        assert statevector_of(unfrozen) is not fresh
        assert fresh.amps.tobytes() == state.amps.tobytes()

    def test_rejects_duplicate_qubits(self):
        with pytest.raises(AddressingError):
            Circuit(["q0", "q1"]).cx("q0", "q0")

    def test_rejects_out_of_range(self):
        with pytest.raises(AddressingError):
            Circuit(["q0"]).x("q1")

    def test_rejects_non_unitary_matrix(self):
        with pytest.raises(NotUnitary):
            GateApplication("unitary", ("q0",), matrix=np.array([[1, 0], [0, 2]]))


class TestKernelPlans:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7),
        batch=st.integers(1, 3),
        k=st.integers(1, 3),
        c=st.integers(0, 2),
        view=st.booleans(),
    )
    def test_cached_plan_is_bit_identical_to_moveaxis(self, seed, n, batch, k, c, view):
        rng = np.random.default_rng(seed)
        k = min(k, n)
        c = min(c, n - k)
        wires = tuple(int(q) for q in rng.permutation(n))
        targets, controls = wires[:k], wires[k : k + c]
        mat = haar_unitary(rng, 2**k)
        shape = (batch,) + (2,) * n
        arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if view:  # evolve hands each gate the previous gate's transposed output
            arr = arr.transpose((0,) + tuple(int(q) + 1 for q in rng.permutation(n)))
        expected = moveaxis_apply(arr, mat, targets, controls).tobytes()
        for _ in range(2):  # a repeated call reads the cached plan
            assert apply_matrix_nd(arr, mat, targets, controls).tobytes() == expected


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
        probs = np.abs(state.amps) ** 2
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
            expected = np.abs(state.amps) ** 2 * 100_000
            keep = expected > 1e-3
            chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
            pvalue = stats.chi2.sf(chi2, keep.sum() - 1)
            assert pvalue > 1e-3, f"state {i}: p={pvalue}"

    def test_marginal_order(self):
        state = basis_state(2, 0b01)  # q0=0, q1=1
        assert sample(state, [1, 0], 10, seed=0) == {"10": 10}


class TestShotBlocks:
    PROBS = np.array([0.05, 0.25, 0.3, 0.4])

    def test_blocks_equal_one_block(self, monkeypatch):
        whole = sample_from_probabilities(self.PROBS, 2, 100, seed=9)
        drawn = []
        first_uniforms = statevector.first_uniforms

        def recording(seed, shots):
            drawn.append((int(shots[0]), len(shots)))
            return first_uniforms(seed, shots)

        monkeypatch.setattr(statevector, "first_uniforms", recording)
        monkeypatch.setattr(statevector, "_SHOT_BLOCK", 23)
        blocked = sample_from_probabilities(self.PROBS, 2, 100, seed=9)
        # Absolute shot indices, in blocks of 23 with a ragged last one.
        assert drawn == [(0, 23), (23, 23), (46, 23), (69, 23), (92, 8)]
        assert blocked == whole
        assert list(blocked) == sorted(blocked) and sum(blocked.values()) == 100

    def test_memory_does_not_grow_with_shots(self):
        tracemalloc.start()
        try:
            small = traced_peak(lambda: sample_from_probabilities(self.PROBS, 2, 2**17, seed=1))
            large = traced_peak(lambda: sample_from_probabilities(self.PROBS, 2, 2**20, seed=1))
        finally:
            tracemalloc.stop()
        assert large <= 1.2 * small, (small, large)


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
