import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qmcmc.circuit import Circuit, unitary_of
from qmcmc.experiments import reference_pipelines
from qmcmc.transpile import NATIVE_KINDS, transpile_native, zyz_angles

from conftest import phases_equal_up_to_global, random_circuit


def _assert_native_equivalent(circ, tol=1e-9):
    report = transpile_native(circ)
    for op in report.circuit.ops:
        assert op.kind in NATIVE_KINDS, op.kind
    bare_in = Circuit(circ.qubits).extend(op for op in circ.ops if op.kind != "measure")
    bare_out = Circuit(circ.qubits).extend(
        op for op in report.circuit.ops if op.kind != "measure"
    )
    assert phases_equal_up_to_global(unitary_of(bare_out), unitary_of(bare_in), tol)
    return report


class TestSingleGates:
    @pytest.mark.parametrize("build", [
        lambda c: c.h("a"),
        lambda c: c.x("a"),
        lambda c: c.y("a"),
        lambda c: c.z("a"),
        lambda c: c.s("a"),
        lambda c: c.sdg("a"),
        lambda c: c.rx(0.7, "a"),
        lambda c: c.ry(-1.2, "a"),
        lambda c: c.rz(2.4, "a"),
        lambda c: c.phase(0.9, "a"),
        lambda c: c.cx("a", "b"),
        lambda c: c.cz("a", "b"),
        lambda c: c.swap("a", "b"),
        lambda c: c.zzphase(1.1, "a", "b"),
    ])
    def test_gate_template(self, build):
        circ = Circuit(["a", "b"])
        build(circ)
        _assert_native_equivalent(circ)

    def test_cnot_uses_single_zzphase(self):
        report = transpile_native(Circuit(["a", "b"]).cx("a", "b"))
        assert report.counts.get("zzphase") == 1

    def test_zyz_round_trip(self, rng):
        for _ in range(50):
            u = unitary_group.rvs(2, random_state=rng)
            alpha, b, a, c = zyz_angles(u)
            rz = lambda t: np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])
            ry = lambda t: np.array(
                [[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]]
            )
            rebuilt = np.exp(1j * alpha) * rz(a) @ ry(b) @ rz(c)
            assert np.max(np.abs(rebuilt - u)) < 1e-10


class TestControlLowering:
    def test_toffoli(self):
        circ = Circuit(["a", "b", "t"])
        circ.x("t", controls=("a", "b"))
        _assert_native_equivalent(circ)

    def test_three_controls(self):
        circ = Circuit(["a", "b", "c", "t"])
        circ.z("t", controls=("a", "b", "c"))
        _assert_native_equivalent(circ)

    def test_controlled_swap(self):
        circ = Circuit(["c", "x", "y"]).cswap("c", "x", "y")
        _assert_native_equivalent(circ)

    def test_doubly_controlled_swap(self):
        circ = Circuit(["c1", "c2", "x", "y"])
        circ.swap("x", "y", controls=("c1", "c2"))
        _assert_native_equivalent(circ)

    def test_controlled_rotations_and_phase(self):
        circ = Circuit(["c", "t"])
        circ.rz(0.8, "t", controls=("c",))
        circ.ry(-0.5, "t", controls=("c",))
        circ.phase(1.3, "t", controls=("c",))
        circ.h("t", controls=("c",))
        _assert_native_equivalent(circ)

    def test_controlled_zzphase(self):
        circ = Circuit(["c", "a", "b"])
        circ.zzphase(0.6, "a", "b", controls=("c",))
        _assert_native_equivalent(circ)


class TestGenericMatrices:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_unitary(self, k, rng):
        qubits = [f"q{i}" for i in range(k)]
        u = unitary_group.rvs(2**k, random_state=rng)
        circ = Circuit(qubits).unitary(u, qubits)
        report = transpile_native(circ)
        assert phases_equal_up_to_global(unitary_of(report.circuit), u, 1e-9)

    def test_controlled_generic(self, rng):
        u = unitary_group.rvs(4, random_state=rng)
        circ = Circuit(["c", "a", "b"]).unitary(u, ["a", "b"], controls=("c",))
        _assert_native_equivalent(circ)


def _battery():
    rng = np.random.default_rng(424242)
    return [random_circuit(rng, ["a", "b", "c", "d"], depth=12) for _ in range(50)]


class TestRoundTripSuite:
    def test_fifty_random_four_qubit_circuits(self):
        # acceptance-adjacent: transpile must preserve the unitary up to
        # global phase for a broad random circuit battery
        for circ in _battery():
            _assert_native_equivalent(circ)

    def test_idempotent_on_native_output(self):
        # a leftover mergeable pair or zero-angle rotation would be rewritten
        # by a second pass
        for circ in list(reference_pipelines().values()) + _battery():
            native = transpile_native(circ).circuit
            assert transpile_native(native).circuit.to_json() == native.to_json()

    def test_measurements_pass_through(self):
        circ = Circuit(["a", "b"]).h("a").cx("a", "b")
        circ.measure("a", "b")
        report = transpile_native(circ)
        assert report.counts.get("measure") == 2


class TestReporting:
    def test_reference_report_schema(self):
        circ = Circuit(["a", "b"]).cx("a", "b")
        report = transpile_native(circ, reference={"zzphase": 1, "phasedx": 2})
        payload = report.count_report()
        assert set(payload) == {"counts", "reference"}
        assert payload["reference"] == {"zzphase": 1, "phasedx": 2}

    def test_two_x_ratio_warning(self):
        circ = Circuit(["a", "b"])
        for _ in range(4):
            circ.cx("a", "b")
        report = transpile_native(circ, reference={"zzphase": 1})
        assert report.warnings
