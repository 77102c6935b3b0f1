import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcmc.circuit import Circuit, GateApplication, controlled, unitary_of
from qmcmc.errors import AddressingError, NotUnitary, SchemaError

from conftest import phases_equal_up_to_global, random_circuit


class TestUnitaryOf:
    def test_wide_circuit_rejected_before_allocation(self, monkeypatch):
        def evolve(batch, gates):
            raise AssertionError("unitary_of evolved a circuit over its dense budget")

        monkeypatch.setattr("qmcmc.circuit.evolve", evolve)
        wide = Circuit([f"q{i}" for i in range(12)])
        with pytest.raises(ValueError, match="12 qubits exceed its 64 MiB budget"):
            unitary_of(wide)

    def test_empty_circuit_is_identity(self):
        assert np.allclose(unitary_of(Circuit(["a", "b"])), np.eye(4))

    def test_ordered_product(self):
        circ = Circuit(["q"]).x("q").z("q")
        # Z applied after X: matrix is Z @ X
        z = np.diag([1, -1])
        x = np.array([[0, 1], [1, 0]])
        assert np.allclose(unitary_of(circ), z @ x)

    def test_lcu_body_encodes_kernel_block(self):
        delta = 0.25
        theta = np.arccos(np.sqrt(1 - delta))
        circ = Circuit(["a", "x"]).ry(2 * theta, "a").cx("a", "x").ry(-2 * theta, "a")
        u = unitary_of(circ)
        block = u[:2, :2]  # <0|_a U |0>_a
        assert np.max(np.abs(block - [[0.75, 0.25], [0.25, 0.75]])) < 1e-12

    def test_measurement_rejected(self):
        circ = Circuit(["q"]).h("q")
        circ.measure("q")
        with pytest.raises(NotUnitary):
            unitary_of(circ)

    def test_circuit_times_inverse_is_identity(self, rng):
        circ = random_circuit(rng, ["a", "b", "c"], depth=25)
        both = circ.copy()
        both.extend(circ.inverse().ops)
        assert np.max(np.abs(unitary_of(both) - np.eye(8))) < 1e-10


class TestFrozenStore:
    """A frozen circuit keeps its dense results; an unfrozen one never does."""

    def test_frozen_unitary_is_computed_once_and_read_only(self, rng):
        circ = random_circuit(rng, ["a", "b", "c"], depth=20).freeze()
        u = unitary_of(circ)
        assert unitary_of(circ) is u
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0
        assert unitary_of(circ.copy()).tobytes() == u.tobytes()

    def test_append_after_unitary_changes_the_next_result(self, rng):
        circ = random_circuit(rng, ["a", "b"], depth=10)
        u = unitary_of(circ)
        assert u.flags.writeable and unitary_of(circ) is not u
        circ.x("a")
        x_a = np.kron([[0, 1], [1, 0]], np.eye(2))
        assert np.max(np.abs(unitary_of(circ) - x_a @ u)) < 1e-12

    @pytest.mark.parametrize(
        "derive, expected",
        [
            (Circuit.copy, lambda u: u),
            (Circuit.inverse, lambda u: u.conj().T),
            (lambda c: c.renamed({"a": "z"}), lambda u: u),
        ],
        ids=["copy", "inverse", "renamed"],
    )
    def test_derived_circuits_start_with_an_empty_store(self, rng, derive, expected):
        circ = random_circuit(rng, ["a", "b", "c"], depth=20).freeze()
        u = unitary_of(circ)
        derived = derive(circ).freeze()
        v = unitary_of(derived)
        assert v is not u and unitary_of(derived) is v
        assert np.max(np.abs(v - expected(u))) < 1e-12


class TestControlled:
    def test_controlled_z_is_cz(self):
        circ = Circuit(["a"]).z("a")
        cz = unitary_of(controlled(circ, "c"))
        assert np.allclose(cz, np.diag([1, 1, 1, -1]))

    def test_controlled_identity_is_identity(self):
        assert np.allclose(unitary_of(controlled(Circuit(["a"]), "c")), np.eye(4))

    def test_block_structure(self, rng):
        circ = random_circuit(rng, ["a", "b"], depth=10)
        u = unitary_of(circ)
        cu = unitary_of(controlled(circ, "ctl"))
        expected = np.block(
            [[np.eye(4), np.zeros((4, 4))], [np.zeros((4, 4)), u]]
        )
        assert np.max(np.abs(cu - expected)) < 1e-10

    def test_optimized_controlled_lcu_walk_matches_naive(self):
        # Only the entangler and the phase flip need controls: the rotation
        # pair cancels when the control is off.
        delta = 0.25
        theta = np.arccos(np.sqrt(1 - delta))
        walk = Circuit(["a", "x"])
        walk.ry(2 * theta, "a").cx("a", "x").ry(-2 * theta, "a").z("a")
        naive = unitary_of(controlled(walk, "c"))
        opt = Circuit(["c", "a", "x"])
        opt.ry(2 * theta, "a")
        opt.x("x", controls=("c", "a"))
        opt.ry(-2 * theta, "a")
        opt.z("a", controls=("c",))
        assert np.max(np.abs(unitary_of(opt) - naive)) < 1e-10

    def test_name_collision(self):
        with pytest.raises(AddressingError):
            controlled(Circuit(["a"]).x("a"), "a")


class TestZeroReflection:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exact_reflection(self, k):
        qubits = [f"q{i}" for i in range(k)]
        circ = Circuit(qubits).reflection(Circuit(qubits), qubits)
        expected = -np.eye(2**k)
        expected[0, 0] = 1.0
        assert np.max(np.abs(unitary_of(circ) - expected)) < 1e-12

    def test_controlled_reflection(self):
        # Only the Z core is controlled; prep and prep^dag cancel on control 0.
        prep = Circuit(["a", "b"]).ry(0.7, "a").cx("a", "b").rz(0.3, "b").h("a")
        circ = Circuit(["c", "a", "b"]).reflection(prep, ["a", "b"], controls=("c",))
        u = unitary_of(prep)
        core = -np.eye(4)
        core[0, 0] = 1.0
        expected = np.zeros((8, 8), dtype=complex)
        expected[:4, :4] = np.eye(4)
        expected[4:, 4:] = u @ core @ u.conj().T
        assert np.max(np.abs(unitary_of(circ) - expected)) < 1e-12


def _circuit_dict(*ops, qubits=("a", "b")) -> dict:
    return {"qubits": list(qubits), "ops": list(ops)}


MALFORMED_CIRCUITS = {
    "unknown-kind": _circuit_dict({"kind": "toffoli", "targets": ["a"]}),
    "text-param": _circuit_dict({"kind": "rz", "targets": ["a"], "params": ["x"]}),
    "numeric-text-param": _circuit_dict({"kind": "rz", "targets": ["a"], "params": ["0.5"]}),
    "bool-param": _circuit_dict({"kind": "rz", "targets": ["a"], "params": [True]}),
    "non-finite-param": _circuit_dict({"kind": "rz", "targets": ["a"], "params": [float("inf")]}),
    "huge-int-param": _circuit_dict({"kind": "rz", "targets": ["a"], "params": [10**400]}),
    "gate-after-measure": _circuit_dict(
        {"kind": "measure", "targets": ["a"]}, {"kind": "x", "targets": ["b"]}
    ),
    "undeclared-qubit": _circuit_dict({"kind": "x", "targets": ["c"]}),
    "duplicate-qubit-names": _circuit_dict(qubits=("a", "a")),
    "qubits-as-text": {"qubits": "ab", "ops": []},
    "numeric-qubit-names": _circuit_dict(qubits=(0, 1)),
    "targets-as-text": _circuit_dict({"kind": "x", "targets": "a"}),
    "controls-as-text": _circuit_dict({"kind": "x", "targets": ["a"], "controls": "b"}),
    "qubit-twice-in-one-gate": _circuit_dict({"kind": "cx", "targets": ["a", "a"]}),
    "non-unitary-matrix": _circuit_dict(
        {"kind": "unitary", "targets": ["a"], "matrix": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}
    ),
}


class TestSerialization:
    @pytest.mark.parametrize("obj", list(MALFORMED_CIRCUITS.values()), ids=list(MALFORMED_CIRCUITS))
    def test_malformed_circuit_is_schema_error(self, obj):
        with pytest.raises(SchemaError, match="malformed circuit serialization"):
            Circuit.from_dict(obj)
        with pytest.raises(SchemaError, match="malformed circuit serialization"):
            Circuit.from_json(json.dumps(obj))

    @pytest.mark.parametrize(
        "matrix",
        [
            "[[[true, false], [false, false]], [[false, false], [true, false]]]",
            '[[["1", 0], [0, 0]], [[0, 0], [1, 0]]]',
            "[[[1e400, 0], [0, 0]], [[0, 0], [1, 0]]]",
            "[[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]",
        ],
        ids=["bools", "numeric-text", "overflow", "three-element"],
    )
    def test_matrix_entries_are_pairs_of_finite_numbers(self, matrix):
        # One number rule with gate parameters: booleans are not coerced to
        # 1 and 0, so the first matrix is not read as the identity.
        text = '{"qubits": ["a"], "ops": [{"kind": "unitary", "targets": ["a"], "matrix": %s}]}'
        with pytest.raises(SchemaError, match="matrix entry must be"):
            Circuit.from_json(text % matrix)

    @pytest.mark.parametrize("text", ["{", "", "[1,"])
    def test_text_that_is_not_json_is_schema_error(self, text):
        with pytest.raises(SchemaError, match="not JSON"):
            Circuit.from_json(text)

    def test_round_trip(self, rng):
        circ = random_circuit(rng, ["a", "b", "c"], depth=20)
        circ.measure("a")
        back = Circuit.from_json(circ.to_json())
        assert back.qubits == circ.qubits
        assert len(back.ops) == len(circ.ops)
        bare = Circuit(circ.qubits).extend(op for op in circ.ops if op.kind != "measure")
        bare2 = Circuit(back.qubits).extend(op for op in back.ops if op.kind != "measure")
        assert np.max(np.abs(unitary_of(bare) - unitary_of(bare2))) < 1e-12

    def test_matrix_gate_round_trip(self):
        u = np.array([[0, 1j], [1j, 0]])
        circ = Circuit(["q"]).unitary(u, ["q"])
        back = Circuit.from_json(circ.to_json())
        assert np.allclose(back.ops[0].matrix, u)


class TestBuilderInvariants:
    @pytest.mark.parametrize("value", [True, "0.5", np.float32(0.5), None], ids=repr)
    def test_params_are_plain_reals(self, value):
        # One number rule with spec fields and noise rates: nothing is coerced.
        with pytest.raises(ValueError, match="rz parameters must be finite floats or ints"):
            Circuit(["q"]).rz(value, "q")

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(0, np.inf)], ids=repr)
    def test_non_finite_matrix_is_not_unitary(self, entry):
        # Rejected before the Gram check, whose product would warn on inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitary):
                Circuit(["a"]).unitary([[entry, 0], [0, 1]], ["a"])

    def test_frozen_rejects_append(self):
        circ = Circuit(["q"]).x("q").freeze()
        with pytest.raises(RuntimeError):
            circ.x("q")

    def test_undeclared_qubit(self):
        with pytest.raises(AddressingError):
            Circuit(["q"]).x("other")

    def test_renamed(self):
        circ = Circuit(["x0", "f"]).cx("x0", "f")
        renamed = circ.renamed({"x0": "x"})
        assert renamed.qubits == ("x", "f")
        assert renamed.ops[0].targets == ("x", "f")

    def test_measure_cannot_be_controlled(self):
        with pytest.raises(ValueError):
            GateApplication("measure", ("q",), controls=("c",))

    def test_measurements_are_terminal(self):
        circ = Circuit(["a", "b"]).h("a")
        circ.measure("a")
        circ.measure("b")  # more measurements may follow
        with pytest.raises(ValueError, match="terminal"):
            circ.x("b")
        assert [op.kind for op in circ.ops] == ["h", "measure", "measure"]
        obj = circ.to_dict()
        obj["ops"].append({"kind": "x", "targets": ["b"]})
        with pytest.raises(SchemaError, match="terminal"):
            Circuit.from_dict(obj)

    def test_qubit_measured_twice_rejected(self):
        with pytest.raises(AddressingError, match="measured twice"):
            Circuit(["a", "b"]).h("a").measure("a", "a")
        circ = Circuit(["a", "b"]).h("a").measure("b", "a")
        assert circ.measured() == ("b", "a")
        with pytest.raises(AddressingError, match="measured twice"):
            circ.measure("b")
        assert circ.measured() == ("b", "a")
        obj = circ.to_dict()
        obj["ops"].append({"kind": "measure", "targets": ["a"]})
        with pytest.raises(SchemaError, match="measured twice"):
            Circuit.from_dict(obj)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_global_phase_comparison(seed):
    rng = np.random.default_rng(seed)
    circ = random_circuit(rng, ["a", "b"], depth=8)
    u = unitary_of(circ)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    assert phases_equal_up_to_global(phase * u, u)
    assert not phases_equal_up_to_global(u + 0.1, u)
