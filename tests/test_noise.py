import numpy as np
import pytest

from qmcmc.circuit import Circuit
from qmcmc.noise import NoiseModel, ZERO_NOISE, apply_trajectory, sample_with_noise
from qmcmc.statevector import sample, statevector_of


def _bell_circuit():
    circ = Circuit(["a", "b"]).h("a").cx("a", "b")
    circ.measure("a", "b")
    return circ.freeze()


def _multi_controlled_circuit():
    circ = Circuit(["a", "b", "c", "d"]).h("a").h("b").ry(0.6, "c")
    circ.x("d", controls=("a", "b"))
    circ.swap("c", "d", controls=("a", "b"))
    circ.ry(0.3, "b", controls=("c",))
    circ.measure("a", "b", "c", "d")
    return circ.freeze()


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(p1=1.5)
        with pytest.raises(ValueError):
            NoiseModel(attach="nowhere")

    def test_warns_when_p2_below_p1(self):
        with pytest.warns(UserWarning):
            NoiseModel(p1=1e-3, p2=1e-5)

    def test_json_round_trip(self):
        model = NoiseModel(p1=1e-4, p2=2e-3, p_meas=5e-4, attach="logical")
        back = NoiseModel.from_json(model.to_json())
        assert back == model

    def test_zero_flag(self):
        assert ZERO_NOISE.is_zero
        assert not NoiseModel().is_zero


class TestZeroNoiseEquivalence:
    def test_bit_exact_against_plain_sampling(self):
        circ = _bell_circuit()
        bare = Circuit(["a", "b"]).h("a").cx("a", "b")
        state = statevector_of(bare)
        for seed in (0, 1, 17):
            direct = sample(state, [0, 1], 1500, seed)
            noisy_path = sample_with_noise(circ, ZERO_NOISE, 1500, seed, ["a", "b"])
            assert direct == noisy_path


class TestTrajectoryMechanics:
    def test_batched_equals_sequential(self):
        # The second case has logical-level noise sites on 3 and 4 qubits
        # (multi-controlled gates), where the Pauli qubit order matters.
        cases = (
            (_bell_circuit(), NoiseModel(p1=0.02, p2=0.08, p_meas=0.03)),
            (_multi_controlled_circuit(), NoiseModel(p1=0.02, p2=0.3, p_meas=0.03, attach="logical")),
        )
        for circ, model in cases:
            batched = sample_with_noise(circ, model, 400, seed=12)
            sequential = {}
            for s in range(400):
                _, outcomes = apply_trajectory(circ, model, 12, s)
                key = "".join(str(outcomes[q]) for q in circ.qubits)
                sequential[key] = sequential.get(key, 0) + 1
            assert batched == sequential

    def test_full_two_qubit_noise_spreads_over_corrupted_states(self):
        # p2 -> 1 on a single CNOT from |00>: every trajectory carries one of
        # the 15 non-identity two-qubit Paulis
        circ = Circuit(["a", "b"]).cx("a", "b")
        circ.measure("a", "b")
        model = NoiseModel(p1=0.0, p2=0.999999999, p_meas=0.0, attach="logical")
        hist = sample_with_noise(circ, model, 6000, seed=7)
        # Paulis acting as Z or identity on the computational state leave 00:
        # 3 of 15 (ZI, IZ, ZZ); X/Y flips move to 01, 10 or 11 (4 each).
        assert set(hist) == {"00", "01", "10", "11"}
        assert abs(hist["00"] - 6000 * 3 / 15) < 3 * np.sqrt(6000 * 0.2 * 0.8)
        for key in ("01", "10", "11"):
            assert abs(hist[key] - 6000 * 4 / 15) < 3 * np.sqrt(6000 * (4 / 15) * (11 / 15))

    @pytest.mark.filterwarnings("ignore:two-qubit rate")
    def test_insertion_frequency(self):
        # single-gate circuit: empirical Pauli rate within 3 sigma of p1
        circ = Circuit(["a"]).h("a")
        circ.measure("a")
        p = 0.05
        model = NoiseModel(p1=p, p2=0.0, p_meas=0.0, attach="logical")
        flips = 0
        shots = 4000
        hist = sample_with_noise(circ, model, shots, seed=3)
        # after H the ideal law is uniform; inserted X/Y/Z keep it uniform,
        # so count insertions directly from the sequential engine instead
        from qmcmc.rng import shot_rng

        for s in range(shots):
            rng = shot_rng(3, s)
            rng.random()  # outcome draw
            rng.random(1)  # measurement flip draw
            if rng.random(1)[0] < p:
                flips += 1
        sigma = np.sqrt(shots * p * (1 - p))
        assert abs(flips - shots * p) < 3 * sigma
        assert sum(hist.values()) == shots

    def test_measurement_flip_rate(self):
        circ = Circuit(["a"])
        circ.measure("a")
        model = NoiseModel(p1=0.0, p2=0.0, p_meas=0.25)
        hist = sample_with_noise(circ, model, 8000, seed=21)
        assert abs(hist.get("1", 0) - 2000) < 3 * np.sqrt(8000 * 0.25 * 0.75)

    def test_mid_circuit_measurement_sequential_only(self):
        circ = Circuit(["a", "b"]).h("a")
        circ.measure("a")
        circ.cx("a", "b")
        circ.measure("b")
        model = NoiseModel(p1=0.0, p2=0.0, p_meas=0.0)
        _, outcomes = apply_trajectory(circ, model, 5, 0)
        assert outcomes["a"] == outcomes["b"]
        with pytest.raises(ValueError):
            sample_with_noise(circ, model, 10, 5)

    def test_determinism(self):
        circ = _bell_circuit()
        model = NoiseModel(p1=0.01, p2=0.03, p_meas=0.01)
        a = sample_with_noise(circ, model, 500, seed=8)
        b = sample_with_noise(circ, model, 500, seed=8)
        assert a == b


class TestMonotoneDegradationSmoke:
    @pytest.mark.filterwarnings("ignore:two-qubit rate")
    def test_overlap_degrades_with_p2(self):
        # small-scale version of the acceptance property on the overlap pipeline
        from qmcmc.experiments import dual_overlap_circuit
        from qmcmc.transpile import transpile_native

        native = transpile_native(dual_overlap_circuit(np.pi / 4)).circuit
        rates = [0.0, 5e-4, 5e-3]
        estimates = []
        shots = 1200
        for p2 in rates:
            model = NoiseModel(p1=2e-5, p2=p2, p_meas=1e-3)
            hist = sample_with_noise(native, model, shots, seed=31)
            estimates.append(hist.get("0" * 6, 0) / shots)
        sigma = np.sqrt(0.25 / shots)
        assert estimates[0] > estimates[1] - 2 * sigma > estimates[2] - 4 * sigma
        assert estimates[2] < estimates[0]
