import json
import tracemalloc
import warnings
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from qmcmc import _apply, noise, statevector
from qmcmc._apply import apply_matrix, serial_blocks, serial_product
from qmcmc.circuit import Circuit
from qmcmc.errors import SchemaError
from qmcmc.experiments import (
    ExperimentSpec,
    cswap_state_prep_circuit,
    dual_eigenstate_circuits,
    dual_overlap_circuit,
    lcu_qae_circuit,
    lcu_state_prep_circuit,
    run,
    szegedy_state_prep_circuit,
)
from qmcmc.noise import NoiseModel, ZERO_NOISE, apply_trajectory, sample_with_noise
from qmcmc.rng import ShotStreams, shot_rng
from qmcmc.statevector import sample, statevector_of, zero_state
from qmcmc.transpile import transpile_native

from conftest import noise_models, pauli_matrix, traced_peak


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


def _sequential_histogram(circ, model, shots, seed):
    counts = {}
    for s in range(shots):
        _, outcomes = apply_trajectory(circ, model, seed, s)
        key = "".join(str(outcomes[q]) for q in circ.qubits)
        counts[key] = counts.get(key, 0) + 1
    return counts


_ROTATIONS = ("rx", "ry", "rz")
_ONE_QUBIT = ("h", "x", "y", "s") + _ROTATIONS


@st.composite
def _controlled_circuits(draw):
    """Up to 4 qubits and 5 gates, the first of them controlled, all measured."""
    qubits = [f"q{i}" for i in range(draw(st.integers(2, 4)))]
    circ = Circuit(qubits)
    for i in range(draw(st.integers(1, 5))):
        order = draw(st.permutations(qubits))
        kind = draw(st.sampled_from(_ONE_QUBIT if i == 0 else _ONE_QUBIT + ("swap", "zzphase")))
        width = 2 if kind in ("swap", "zzphase") else 1
        max_controls = 0 if kind == "zzphase" else min(2, len(qubits) - width)
        n_controls = draw(st.integers(1 if i == 0 else 0, max_controls))
        params = ()
        if kind in _ROTATIONS + ("zzphase",):
            params = (draw(st.floats(-pi, pi, allow_nan=False)),)
        circ._add(kind, order[:width], controls=order[width : width + n_controls], params=params)
    circ.measure(*qubits)
    return circ.freeze()


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
# Objects are keyed mostly by the model's own keys (plus a misspelling), so
# the value checks are reached as well as the key check.
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | st.sampled_from(("native", "logical")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(("p1", "p2", "p_meas", "attach", "pmeas")) | st.text(max_size=4),
        inner,
        max_size=5,
    ),
    max_leaves=8,
)


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(p1=1.5)
        with pytest.raises(ValueError):
            NoiseModel(attach="nowhere")

    # Rates are reported as given, so other reals are refused, not coerced.
    @pytest.mark.parametrize("value", [np.float32(5e-3), "0.1", None, False], ids=repr)
    @pytest.mark.parametrize("field", ["p1", "p2", "p_meas"])
    def test_rates_must_be_python_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a float or int"):
            NoiseModel(**{field: value})

    def test_numpy_float64_rate_reports(self):
        model = NoiseModel(p2=np.float64(5e-3))
        spec = ExperimentSpec("cswap-state-prep", shots=10, noise=model)
        assert json.loads(run(spec).to_json())["spec"]["noise"]["p2"] == 5e-3

    @pytest.mark.parametrize("field", ["p1", "p2", "p_meas"])
    def test_rate_of_one_rejected(self, field):
        with pytest.raises(ValueError, match=rf"{field} must be a float or int in \[0, 1\)"):
            NoiseModel(**{field: 1.0})

    def test_equal_rates_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            NoiseModel(p1=1e-3, p2=1e-3)

    def test_warns_when_p2_below_p1(self):
        with pytest.warns(UserWarning) as record:
            NoiseModel(p1=1e-3, p2=1e-5)
        assert record[0].filename == __file__

    def test_json_round_trip(self):
        model = NoiseModel(p1=1e-4, p2=2e-3, p_meas=5e-4, attach="logical")
        back = NoiseModel.from_json(model.to_json())
        assert back == model

    @settings(max_examples=100, deadline=None)
    @given(model=noise_models())
    def test_json_round_trip_property(self, model):
        assert NoiseModel.from_json(model.to_json()) == model

    @settings(max_examples=300, deadline=None)
    @given(value=_JSON_VALUES)
    def test_from_json_accepts_or_raises_schema_error(self, value):
        # Any JSON value either parses into a model or raises SchemaError.  A
        # model with p2 below p1 (a lone "p1" among them) parses and warns, as
        # test_warns_when_p2_below_p1 pins; that warning is not a parse error.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "two-qubit rate p2 below", UserWarning)
            try:
                NoiseModel.from_json(json.dumps(value))
            except SchemaError:
                pass

    def test_missing_keys_take_documented_defaults(self):
        assert NoiseModel.from_json('{"p2": 1e-3}') == NoiseModel(0.0, 1e-3, 0.0, "native")

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
            noisy_path = sample_with_noise(circ, ZERO_NOISE, 1500, seed)
            assert direct == noisy_path

    def test_frozen_circuit_evolved_once(self, monkeypatch):
        calls = []
        gates = Circuit.gates
        monkeypatch.setattr(Circuit, "gates", lambda self: calls.append(self) or gates(self))
        circ = _bell_circuit()
        first = sample_with_noise(circ, ZERO_NOISE, 100, seed=3)
        assert sample_with_noise(circ, ZERO_NOISE, 100, seed=3) == first
        assert len(calls) == 1

    def test_simulator_width_limit(self):
        names = [f"q{i}" for i in range(17)]
        circ = Circuit(names).h("q0").measure("q0")
        with pytest.raises(ValueError, match="supported qubit counts are 1..16"):
            sample_with_noise(circ, ZERO_NOISE, 10, seed=0)


class TestShotCount:
    @pytest.mark.parametrize("model", [ZERO_NOISE, NoiseModel()], ids=["zero-noise", "noisy"])
    @pytest.mark.parametrize("shots", [2.5, float("nan"), True], ids=repr)
    def test_non_integral_shots_rejected(self, model, shots):
        with pytest.raises(ValueError, match="shots must be an int >= 1"):
            sample_with_noise(_bell_circuit(), model, shots, seed=1)

    @pytest.mark.parametrize("model", [ZERO_NOISE, NoiseModel()], ids=["zero-noise", "noisy"])
    def test_numpy_integer_shots_accepted(self, model):
        hist = sample_with_noise(_bell_circuit(), model, np.int64(40), seed=1)
        assert sum(hist.values()) == 40


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
            assert batched == _sequential_histogram(circ, model, 400, 12)

    @settings(max_examples=20, deadline=None)
    @given(
        circ=_controlled_circuits(),
        attach=st.sampled_from(("native", "logical")),
        p2=st.floats(0.0, 0.999),
        p1_share=st.floats(0.0, 1.0),
        p_meas=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**31 - 1),
        shots=st.integers(1, 200),
    )
    def test_batched_equals_sequential_property(
        self, circ, attach, p2, p1_share, p_meas, seed, shots
    ):
        # Rates up to p2 ~ 1 make every shot fault and fault patterns repeat.
        model = NoiseModel(p1=p2 * p1_share, p2=p2, p_meas=p_meas, attach=attach)
        if attach == "native":
            circ = transpile_native(circ).circuit
        batched = sample_with_noise(circ, model, shots, seed)
        assert batched == _sequential_histogram(circ, model, shots, seed)

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

    def test_trajectory_shot_index_below_2_64(self):
        # No engine draws shot 2**64 (check_shots), so the oracle refuses it too.
        with pytest.raises(ValueError, match=r"shot_index must be in \[0, 2\*\*64\)"):
            apply_trajectory(_bell_circuit(), NoiseModel(), 1, 2**64)

    def test_determinism(self):
        circ = _bell_circuit()
        model = NoiseModel(p1=0.01, p2=0.03, p_meas=0.01)
        a = sample_with_noise(circ, model, 500, seed=8)
        b = sample_with_noise(circ, model, 500, seed=8)
        assert a == b


class TestMemoryBudget:
    @pytest.mark.parametrize("rows_per_chunk", [1, 7])
    @pytest.mark.parametrize(
        "circ, model",
        [
            pytest.param(
                _multi_controlled_circuit(),
                NoiseModel(p1=0.02, p2=0.3, p_meas=0.03, attach="logical"),
                id="logical-multi-controlled",
            ),
            pytest.param(
                transpile_native(cswap_state_prep_circuit(pi / 6)).circuit,
                NoiseModel(p1=2e-5, p2=2e-2, p_meas=1e-3),
                id="native-cswap-state-prep",
            ),
        ],
    )
    def test_chunked_equals_unchunked(self, monkeypatch, circ, model, rows_per_chunk):
        whole = sample_with_noise(circ, model, 300, seed=4)
        sizes = []
        evolve_patterns = noise._evolve_patterns

        def recording(patterns, gates, num_qubits):
            sizes.append(len(patterns))
            return evolve_patterns(patterns, gates, num_qubits)

        monkeypatch.setattr(noise, "_evolve_patterns", recording)
        monkeypatch.setattr(noise, "_BATCH_BYTES", rows_per_chunk * 16 * 2**circ.num_qubits)
        assert sample_with_noise(circ, model, 300, seed=4) == whole
        assert max(sizes) == rows_per_chunk
        assert len(sizes) > 2


def _shot_by_shot_patterns(circ, model, shots, seed):
    """Distinct fault patterns in order of first appearance, one stream at a time."""
    _, arities, rates = noise._sites(circ, model)
    m = len(circ.measured())
    first_seen = {}
    for s in range(shots):
        rng = shot_rng(seed, s)
        u = rng.random(1 + m + len(rates))
        first_seen.setdefault(noise._shot_events(rng, u[1 + m :], rates, arities), None)
    return list(first_seen)


class TestDrawBlocks:
    CIRC = _multi_controlled_circuit()
    MODEL = NoiseModel(p1=0.02, p2=0.1, p_meas=0.03, attach="logical")
    SHOTS, SEED = 200, 0

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_blocks_equal_shot_by_shot_draws(self, monkeypatch, block):
        circ, model, shots, seed = self.CIRC, self.MODEL, self.SHOTS, self.SEED
        want = _shot_by_shot_patterns(circ, model, shots, seed)
        # Shot 0 faults and shot 2 is the first fault-free one, so the
        # fault-free pattern is not numbered first, and every block size
        # here mixes faulted and fault-free shots.
        assert want[0] != () and want.index(()) == 2
        whole = sample_with_noise(circ, model, shots, seed)
        handed = []
        evolve_patterns = noise._evolve_patterns

        def recording(patterns, gates, num_qubits):
            handed.extend(patterns)
            return evolve_patterns(patterns, gates, num_qubits)

        monkeypatch.setattr(noise, "_evolve_patterns", recording)
        monkeypatch.setattr(noise, "_DRAW_BLOCK", block)
        hist = sample_with_noise(circ, model, shots, seed)
        assert hist == whole == _sequential_histogram(circ, model, shots, seed)
        assert handed == want


def _wide_sites_circuit(measured: int):
    """Logical sites on 1 to 4 qubits, the first ``measured`` qubits read out."""
    qubits = ["a", "b", "c", "d"]
    circ = Circuit(qubits)
    for q in qubits:
        circ.h(q)
    circ.cx("a", "b").ry(0.4, "c")
    circ.x("d", controls=("a", "b"))  # 3 qubits: 63 Paulis
    circ.swap("c", "d", controls=("a", "b"))  # 4 qubits: 255 Paulis
    circ.ry(0.3, "b", controls=("c",))
    circ.measure(*qubits[:measured])
    return circ.freeze()


def _native_sites_circuit(measured: int):
    """Native 1- and 2-qubit sites, the first ``measured`` qubits read out."""
    qubits = ["a", "b", "c", "d"]
    circ = Circuit(qubits).h("a").cx("a", "b").ry(0.7, "c").cx("b", "c").cz("c", "d").h("d")
    circ.measure(*qubits[:measured])
    return transpile_native(circ).circuit.freeze()


def _handed_patterns(monkeypatch, circ, model, shots, seed):
    """The histogram and the patterns that the engine hands to ``_evolve_patterns``."""
    handed = []
    evolve_patterns = noise._evolve_patterns

    def recording(patterns, gates, num_qubits):
        handed.extend(patterns)
        return evolve_patterns(patterns, gates, num_qubits)

    monkeypatch.setattr(noise, "_evolve_patterns", recording)
    return sample_with_noise(circ, model, shots, seed), handed


class TestVectorizedPauliDraws:
    """Pauli draws read from each shot's stream in one vectorized pass, without a re-seat."""

    # High rates, so a faulted shot draws several Paulis, across Philox blocks.
    LOGICAL = NoiseModel(p1=0.2, p2=0.5, p_meas=0.05, attach="logical")
    NATIVE = NoiseModel(p1=0.1, p2=0.4, p_meas=0.05)

    @pytest.mark.parametrize("measured", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["logical", "native"])
    def test_patterns_equal_shot_by_shot_draws(self, monkeypatch, kind, measured):
        # The four readout widths put the Pauli draws at every offset in a block.
        if kind == "logical":
            circ, model = _wide_sites_circuit(measured), self.LOGICAL
        else:
            circ, model = _native_sites_circuit(measured), self.NATIVE
        _, arities, _ = noise._sites(circ, model)
        assert set(arities.tolist()) == ({1, 2, 3, 4} if kind == "logical" else {1, 2})
        _, handed = _handed_patterns(monkeypatch, circ, model, 120, seed=9)
        assert handed == _shot_by_shot_patterns(circ, model, 120, 9)
        assert max(len(p) for p in handed) >= 5

    def test_fault_blocks_change_no_pattern(self, monkeypatch):
        # Faulted shots split into blocks of 5; the first fault-free shot
        # (about shot 12) falls inside the third block.
        circ, model = _wide_sites_circuit(2), self.LOGICAL
        want = _shot_by_shot_patterns(circ, model, 60, 7)
        assert want.index(()) > 10
        monkeypatch.setattr(noise, "_FAULT_BLOCK", 5)
        _, handed = _handed_patterns(monkeypatch, circ, model, 60, seed=7)
        assert handed == want

    def test_forced_rejections_take_the_sequential_draw(self, monkeypatch):
        # Marking every odd draw rejected sends most faulted shots down the
        # fallback, which re-seats them and draws with Generator.integers.
        circ, model, shots, seed = _wide_sites_circuit(4), self.LOGICAL, 150, 4
        want_patterns = _shot_by_shot_patterns(circ, model, shots, seed)
        want = _sequential_histogram(circ, model, shots, seed)
        lemire = noise.lemire_integers
        forced = []

        def rejecting(draws, bound):
            values, rejected = lemire(draws, bound)
            forced.append(int(((draws & 1) == 1).sum()))
            return values, rejected | ((draws & 1) == 1)

        monkeypatch.setattr(noise, "lemire_integers", rejecting)
        seats = _count_seats(monkeypatch)
        hist, handed = _handed_patterns(monkeypatch, circ, model, shots, seed)
        assert sum(forced) > 0 and len(seats) > shots
        assert hist == want
        assert handed == want_patterns

    def test_shots_past_their_extra_words_are_seated_again(self, monkeypatch):
        # With one extra word a shot reads two Pauli draws with its uniforms;
        # a shot that fires a third site is seated again and drawn in full.
        circ, model, shots, seed = _wide_sites_circuit(4), self.LOGICAL, 200, 3
        _, _, rates = noise._sites(circ, model)
        skip = 1 + len(circ.measured())
        fired = [
            np.count_nonzero(shot_rng(seed, s).random(skip + len(rates))[skip:] < rates)
            for s in range(shots)
        ]
        spilled = [s for s in range(shots) if fired[s] >= 3]
        assert spilled and {1, 2} <= set(fired)
        monkeypatch.setattr(noise, "_EXTRA_WORDS", 1)
        seats = _count_seats(monkeypatch)
        hist, handed = _handed_patterns(monkeypatch, circ, model, shots, seed)
        assert handed == _shot_by_shot_patterns(circ, model, shots, seed)
        assert hist == _sequential_histogram(circ, model, shots, seed)
        assert seats == list(range(shots)) + spilled

    def test_one_seat_per_shot(self, monkeypatch):
        circ, model, shots = _wide_sites_circuit(4), self.LOGICAL, 200
        seats = _count_seats(monkeypatch)
        hist, handed = _handed_patterns(monkeypatch, circ, model, shots, seed=2)
        assert sum(hist.values()) == shots and len(handed) > 100
        assert seats == list(range(shots))

    def test_no_matrix_or_integer_draw_per_fault(self, monkeypatch):
        # Outside the rejection fallback: no Generator.integers (``_shot_events``),
        # and one kernel call per gate of the frame, so no Pauli goes through
        # the kernel as a matrix.
        circ, model = _wide_sites_circuit(4), self.LOGICAL
        want = sample_with_noise(circ, model, 200, seed=6)

        def forbidden(*args):
            raise AssertionError("called outside the rejection fallback")

        monkeypatch.setattr(noise, "_shot_events", forbidden)
        kernel_calls = []
        apply_matrix_nd = _apply.apply_matrix_nd
        monkeypatch.setattr(
            _apply, "apply_matrix_nd", lambda *a: kernel_calls.append(1) or apply_matrix_nd(*a)
        )
        assert sample_with_noise(circ, model, 200, seed=6) == want
        assert len(kernel_calls) == len(list(circ.gates()))


def _count_seats(monkeypatch):
    """Shot indices of every ``ShotStreams.shot`` call, in call order."""
    seats = []
    shot = ShotStreams.shot
    monkeypatch.setattr(
        ShotStreams, "shot", lambda self, s: seats.append(s) or shot(self, s)
    )
    return seats


@pytest.mark.parametrize("num_qubits", [3, 4, 6])
def test_paulis_as_signed_permutations_equal_the_matrices(num_qubits):
    # Bit for bit against the dense Pauli matrix through the kernel, for
    # random 1- to 3-qubit Pauli strings on random states.
    gen = np.random.default_rng(num_qubits)
    dim = 2**num_qubits
    for k in (1, 2, 3):
        qubits = tuple(int(q) for q in gen.permutation(num_qubits)[:k])
        paulis = gen.integers(1, 4**k, size=20)
        amps = gen.normal(size=(20, dim)) + 1j * gen.normal(size=(20, dim))
        got = noise._apply_paulis(amps, paulis, qubits, num_qubits)
        for row, pauli, want_of in zip(got, paulis, amps):
            want = apply_matrix(want_of, pauli_matrix(k, int(pauli)), qubits, (), num_qubits)
            assert row.tobytes() == want.tobytes(), (qubits, pauli)


class TestShotBlocks:
    """Shot blocks of a small, ragged size change no histogram and bound memory."""

    @pytest.mark.parametrize(
        "circ, model",
        [
            pytest.param(
                transpile_native(cswap_state_prep_circuit(pi / 6)).circuit,
                NoiseModel(p1=2e-3, p2=5e-2, p_meas=2e-2),
                id="native",
            ),
            pytest.param(
                _multi_controlled_circuit(),
                NoiseModel(p1=0.02, p2=0.1, p_meas=0.03, attach="logical"),
                id="logical",
            ),
        ],
    )
    def test_blocks_equal_sequential(self, monkeypatch, circ, model):
        shots, seed = 150, 5
        whole = sample_with_noise(circ, model, shots, seed)
        ranges = []
        draw_patterns = noise._draw_patterns

        def recording(seed, first, last, *rest):
            ranges.append((first, last))
            return draw_patterns(seed, first, last, *rest)

        monkeypatch.setattr(noise, "_draw_patterns", recording)
        monkeypatch.setattr(statevector, "_SHOT_BLOCK", 41)
        hist = sample_with_noise(circ, model, shots, seed)
        assert ranges == [(0, 41), (41, 82), (82, 123), (123, 150)]
        assert hist == whole == _sequential_histogram(circ, model, shots, seed)
        assert list(hist) == sorted(hist)

    def test_zero_noise_blocks(self, monkeypatch):
        circ = _multi_controlled_circuit()
        whole = sample_with_noise(circ, ZERO_NOISE, 300, seed=2)
        starts = []
        first_uniforms = statevector.first_uniforms

        def recording(seed, shots):
            starts.append(int(shots[0]))
            return first_uniforms(seed, shots)

        monkeypatch.setattr(statevector, "first_uniforms", recording)
        monkeypatch.setattr(statevector, "_SHOT_BLOCK", 71)
        blocked = sample_with_noise(circ, ZERO_NOISE, 300, seed=2)
        assert starts == [0, 71, 142, 213, 284]
        assert blocked == whole

    def test_memory_does_not_grow_with_shots(self, monkeypatch):
        # Each of the 13 sites fires with probability 1/2, so almost every
        # shot has a pattern of its own, each 128-shot block evolves about 128
        # of them, and the blocks' peaks are alike.
        qubits = [f"q{i}" for i in range(7)]
        circ = Circuit(qubits)
        for q in qubits:
            circ.h(q)
        for a, b in zip(qubits, qubits[1:]):
            circ.cx(a, b)
        circ.measure(*qubits)
        circ.freeze()
        model = NoiseModel(p1=0.5, p2=0.5, p_meas=0.0, attach="logical")
        monkeypatch.setattr(statevector, "_SHOT_BLOCK", 128)
        tracemalloc.start()
        try:
            sample_with_noise(circ, model, 256, seed=0)  # fills the kernel's plan and Pauli caches
            small = traced_peak(lambda: sample_with_noise(circ, model, 256, seed=0))
            large = traced_peak(lambda: sample_with_noise(circ, model, 8 * 256, seed=0))
        finally:
            tracemalloc.stop()
        assert large <= 1.2 * small, (small, large)

    def test_wide_site_memory_does_not_grow_with_shots(self, monkeypatch):
        # A 6-qubit logical site fires one of 4,095 Paulis in about half the
        # shots.  The engine applies each as a signed permutation and keeps no
        # dense 64 x 64 matrix per Pauli, so 1,600 shots peak like 200.
        qubits = [f"q{i}" for i in range(6)]
        circ = Circuit(qubits)
        for q in qubits:
            circ.h(q)
        circ.x("q5", controls=tuple(qubits[:5]))
        circ.measure(*qubits)
        circ.freeze()
        model = NoiseModel(p1=0.0, p2=0.5, p_meas=0.0, attach="logical")
        monkeypatch.setattr(statevector, "_SHOT_BLOCK", 200)
        tracemalloc.start()
        try:
            sample_with_noise(circ, model, 200, seed=0)  # fills the kernel's plan caches
            small = traced_peak(lambda: sample_with_noise(circ, model, 200, seed=0))
            large = traced_peak(lambda: sample_with_noise(circ, model, 1600, seed=0))
        finally:
            tracemalloc.stop()
        assert large <= 1.2 * small, (small, large)


def test_trajectory_memory_does_not_grow_with_trajectories():
    # An 8-qubit logical site fires one of 65,535 Paulis in about half the
    # trajectories.  Each is applied as a signed permutation, and no dense
    # 256 x 256 matrix (1 MiB) is kept per Pauli, so 40 trajectories peak
    # like 4, up to the few KiB that the interpreter's free lists take.
    qubits = [f"q{i}" for i in range(8)]
    circ = Circuit(qubits)
    for q in qubits:
        circ.h(q)
    circ.x("q7", controls=tuple(qubits[:7]))
    circ.measure(*qubits)
    circ.freeze()
    model = NoiseModel(p1=0.0, p2=0.5, p_meas=0.0, attach="logical")

    def trajectories(shots):
        for s in shots:
            apply_trajectory(circ, model, 1, s)

    tracemalloc.start()
    try:
        trajectories(range(4))  # fills the kernel's plan caches
        small = traced_peak(lambda: trajectories(range(4, 8)))
        large = traced_peak(lambda: trajectories(range(8, 48)))
    finally:
        tracemalloc.stop()
    assert large - small < 16 * 256**2, (small, large)


def _sequential_final_state(gates, pattern, n):
    """Gate by gate with ``apply_matrix``, each fault Pauli right after its gate."""
    events = dict(pattern)
    amps = zero_state(n).amps
    for site, (mat, targets, controls) in enumerate(gates):
        amps = apply_matrix(amps, mat, targets, controls, n)
        if site in events:
            qubits = controls + targets
            amps = apply_matrix(amps, pauli_matrix(len(qubits), events[site]), qubits, (), n)
    return amps


class TestInputFrameEngine:
    @pytest.mark.parametrize(
        "circ",
        [
            pytest.param(transpile_native(dual_overlap_circuit(pi / 4)).circuit, id="native"),
            pytest.param(dual_overlap_circuit(pi / 4), id="logical"),
        ],
    )
    def test_matches_sequential_reference(self, circ):
        # dual-overlap at n = 6: the native gates have no controls, so the
        # logical circuit covers faults on controlled gates.
        n = circ.num_qubits
        gates, arities, _ = noise._sites(circ, NoiseModel())
        last = len(gates) - 1
        wide = [site for site, (_, _, controls) in enumerate(gates) if controls] or [
            site for site in range(len(gates)) if arities[site] == 2
        ]
        multi, later = wide[0], wide[-1]
        top = 4 ** int(arities[multi]) - 1
        patterns = [
            (),
            ((0, 1),),
            ((last, 3),),
            ((multi, top),),
            ((multi, 1),),
            ((0, 2), (multi, top - 1)),
            ((0, 3), (later, 1), (last, 2)),
            ((multi, 1), (later, 2), (last, 1)),
        ]
        # Read through the row-block tail the sampler reduces, in row order.
        blocks = list(noise._evolve_patterns(patterns, gates, n))
        assert [first for first, _ in blocks] == list(range(0, len(patterns), len(blocks[0][1])))
        finals = np.concatenate([final for _, final in blocks])
        assert finals.shape == (len(patterns), 2**n)
        for pattern, final in zip(patterns, finals):
            expected = _sequential_final_state(gates, pattern, n)
            assert np.max(np.abs(final - expected)) < 1e-12, pattern

    def test_width_guard(self):
        qubits = [f"q{i}" for i in range(12)]
        circ = Circuit(qubits).h("q0")
        for q in qubits[1:]:
            circ.cx("q0", q)
        circ.measure(*qubits)
        circ.freeze()
        with pytest.raises(ValueError, match="12 qubits"):
            sample_with_noise(circ, NoiseModel(p1=0.0, p2=1e-3, p_meas=0.0), 10, seed=1)
        hist = sample_with_noise(circ, ZERO_NOISE, 10, seed=1)
        assert set(hist) <= {"0" * 12, "1" * 12} and sum(hist.values()) == 10

    @pytest.mark.parametrize("dim", [4, 64, 512])
    @pytest.mark.parametrize("count", [1, 2, 15, 16, 17, 300])
    def test_serial_product_equals_matmul(self, dim, count):
        rng = np.random.default_rng(dim * 1000 + count)
        rows = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        got = serial_product(rows, mat)
        assert got.shape == (count, dim)
        assert np.max(np.abs(got - rows @ mat)) < 1e-12 * dim
        assert np.max(np.abs(serial_product(rows, mat.conj().T) - rows @ mat.conj().T)) < 1e-12 * dim

    @pytest.mark.parametrize("dim, blocks", [(256, 1), (1024, 16)])
    def test_large_matrix_blocks_hold_2_16_entries(self, dim, blocks):
        # Two rows of these matrices already reach the threaded size, so
        # thinner blocks would only reread the matrix once each.
        mat = np.eye(dim, dtype=complex)
        height = 2**16 // dim
        got = [(first, product.shape) for first, product in serial_blocks(mat, mat)]
        assert got == [(b * height, (height, dim)) for b in range(blocks)]


def _conjugate(rho: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """M rho M^dagger for an operator M on the given qubits (first = most significant)."""
    k = len(qubits)
    m = mat.reshape((2,) * (2 * k))
    inputs = tuple(range(k, 2 * k))
    t = rho.reshape((2,) * (2 * n))
    t = np.moveaxis(np.tensordot(m, t, axes=(inputs, qubits)), range(k), qubits)
    cols = tuple(n + q for q in qubits)
    t = np.moveaxis(np.tensordot(m.conj(), t, axes=(inputs, cols)), range(k), cols)
    return t.reshape(2**n, 2**n)


def _exact_outcome_law(circ: Circuit, model: NoiseModel) -> np.ndarray:
    """Outcome law of the measured qubits under the depolarizing channel model.

    Each gate site applies rho -> (1-p) rho + p/(4^k-1) sum_{P != I} P rho P on
    the site's k qubits, then every recorded bit flips with probability p_meas.
    Independent of the trajectory engine: density matrices, no sampling.
    """
    n = circ.num_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for mat, targets, controls in circ.gates():
        qubits = controls + targets
        full = np.eye(2 ** len(qubits), dtype=complex)
        full[-len(mat):, -len(mat):] = mat
        rho = _conjugate(rho, full, qubits, n)
        p = model.rate_for(len(qubits))
        if p > 0:
            faulted = np.zeros_like(rho)
            for index in range(1, 4 ** len(qubits)):
                faulted += _conjugate(rho, pauli_matrix(len(qubits), index), qubits, n)
            rho = (1 - p) * rho + p / (4 ** len(qubits) - 1) * faulted
    measured = [circ.index_of(op.targets[0]) for op in circ.ops if op.kind == "measure"]
    law = np.real(np.diag(rho)).reshape((2,) * n)
    law = law.sum(axis=tuple(q for q in range(n) if q not in measured))
    law = np.moveaxis(law, np.argsort(np.argsort(measured)), range(len(measured)))
    for axis in range(len(measured)):
        law = (1 - model.p_meas) * law + model.p_meas * np.flip(law, axis=axis)
    return law.reshape(-1)


def _chi_square_p(hist: dict[str, int], law: np.ndarray, shots: int) -> float:
    """Pearson chi-square p-value, with bins of expected count < 5 pooled."""
    width = int(np.log2(len(law)))
    observed = np.array([hist.get(format(k, f"0{width}b"), 0) for k in range(len(law))])
    expected = shots * law
    small = expected < 5
    obs = list(observed[~small])
    exp = list(expected[~small])
    if small.any():
        obs.append(observed[small].sum())
        exp.append(expected[small].sum())
    obs, exp = np.array(obs), np.array(exp)
    stat = float(((obs - exp) ** 2 / exp).sum())
    return float(chi2.sf(stat, len(obs) - 1))


class TestExactChannelOracle:
    @pytest.mark.parametrize(
        "circ, model",
        [
            pytest.param(
                _bell_circuit(),
                NoiseModel(p1=0.2, p2=0.4, p_meas=0.1, attach="logical"),
                id="bell-high-rates",
            ),
            pytest.param(
                transpile_native(cswap_state_prep_circuit(pi / 6)).circuit,
                NoiseModel(p1=2e-5, p2=5e-3, p_meas=1e-3),
                id="native-cswap-state-prep",
            ),
            *[
                pytest.param(
                    transpile_native(dual_overlap_circuit(pi / 4)).circuit,
                    NoiseModel(p1=2e-5, p2=p2, p_meas=1e-3),
                    id=f"native-dual-overlap-p2-{p2:g}",
                )
                for p2 in (5e-4, 5e-3)
            ],
            *[
                pytest.param(
                    transpile_native(circ).circuit,
                    NoiseModel(p1=2e-5, p2=5e-3, p_meas=1e-3),
                    id=f"native-{name}",
                )
                for name, circ in (
                    ("lcu-state-prep", lcu_state_prep_circuit(0.25)),
                    ("lcu-qae", lcu_qae_circuit(0.25)),
                    ("szegedy-state-prep", szegedy_state_prep_circuit(0.25)),
                    ("dual-eigenstate-walked", dual_eigenstate_circuits(pi / 4)[1]),
                )
            ],
        ],
    )
    def test_trajectory_histogram_matches_density_matrix(self, circ, model):
        shots = 10_000
        law = _exact_outcome_law(circ, model)
        assert np.isclose(law.sum(), 1.0)
        hist = sample_with_noise(circ, model, shots, seed=2024)
        assert _chi_square_p(hist, law, shots) > 1e-3


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
