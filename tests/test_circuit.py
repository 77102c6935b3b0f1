import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcmc.circuit import Circuit, GateApplication, controlled, unitary_of
from qmcmc.errors import AddressingError, NotUnitary

from conftest import phases_equal_up_to_global, random_circuit


class TestUnitaryOf:
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
        circ = Circuit(qubits).zero_reflection(qubits)
        expected = -np.eye(2**k)
        expected[0, 0] = 1.0
        assert np.max(np.abs(unitary_of(circ) - expected)) < 1e-12


class TestSerialization:
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
        with pytest.raises(ValueError, match="terminal"):
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
