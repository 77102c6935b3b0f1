import inspect
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qmcmc.circuit import Circuit, unitary_of
from qmcmc.errors import Unsupported
import qmcmc.experiments as experiments
from qmcmc.experiments import reference_pipelines, transpile_report
from qmcmc.transpile import NATIVE_KINDS, _unitary_sqrt, transpile_native, zyz_angles

from conftest import phases_equal_up_to_global, random_circuit, schur_sqrt


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
        lambda c: c.cx("a", "b", controls=("c",)),
        lambda c: c.cx("a", "b", controls=("c", "d")),
        lambda c: c.cz("a", "b", controls=("c",)),
        lambda c: c.cz("a", "b", controls=("c", "d")),
    ])
    def test_gate_template(self, build):
        circ = Circuit(["a", "b", "c", "d"])
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

    # Near 2 pi the target's eigenvalues sit either side of -1, where the
    # principal roots nearly cancel in Sylvester's formula.
    @pytest.mark.parametrize("delta", [1e-4, 1e-7, -1e-4, -1e-7])
    @pytest.mark.parametrize("gate", ["rz", "ry", "rx"])
    def test_doubly_controlled_rotation_near_two_pi(self, gate, delta):
        circ = Circuit(["a", "b", "t"])
        getattr(circ, gate)(2 * np.pi - delta, "t", controls=("a", "b"))
        _assert_native_equivalent(circ, tol=1e-12)


class TestUnitarySqrt:
    @pytest.mark.parametrize("u, root", [
        ([[0, 1], [1, 0]], [[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
        ([[1, 0], [0, -1]], [[2, 0], [0, 2j]]),
        ([[-1, 0], [0, 1]], [[2j, 0], [0, 2]]),
        ([[-1, 0], [0, -1]], [[2j, 0], [0, 2j]]),
    ], ids=["x", "z", "diag(-1,1)", "minus-identity"])
    def test_exact_roots(self, u, root):
        assert np.array_equal(_unitary_sqrt(np.array(u, dtype=complex)), np.array(root) / 2)

    @pytest.mark.parametrize("eps1, eps2", [(1e-4, 1e-4), (1e-7, 1e-7), (1e-4, 1e-7), (0, 1e-7)])
    def test_root_with_eigenvalues_either_side_of_minus_one(self, eps1, eps2):
        q = unitary_group.rvs(2, random_state=7)
        u = q @ np.diag(np.exp(1j * np.array([np.pi - eps1, eps2 - np.pi]))) @ q.conj().T
        r = _unitary_sqrt(u)
        assert np.max(np.abs(r @ r - u)) <= 1e-14
        assert np.max(np.abs(r.conj().T @ r - np.eye(2))) <= 1e-14

    # Seed 12813 draws eigenvalues at angles -3.030 and 3.105, either side of
    # -1, where the principal roots nearly cancel (|r1 + r2| = 0.074).
    @example(seed=12813)
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_root_of_haar_unitary(self, seed):
        u = unitary_group.rvs(2, random_state=seed)
        r = _unitary_sqrt(u)
        assert np.max(np.abs(r @ r - u)) <= 1e-14
        assert np.max(np.abs(r.conj().T @ r - np.eye(2))) <= 1e-14
        if abs(np.sum(np.sqrt(np.linalg.eigvals(u)))) >= 1:
            # Away from the sign flip the root is the principal one.
            args = np.angle(np.linalg.eigvals(r))
            assert np.all((-np.pi / 2 < args) & (args <= np.pi / 2)), args
            assert np.max(np.abs(r - schur_sqrt(u))) <= 1e-13


class TestGenericMatrices:
    @pytest.mark.parametrize("k", [1])
    def test_random_unitary(self, k, rng):
        qubits = [f"q{i}" for i in range(k)]
        u = unitary_group.rvs(2**k, random_state=rng)
        circ = Circuit(qubits).unitary(u, qubits)
        report = transpile_native(circ)
        assert phases_equal_up_to_global(unitary_of(report.circuit), u, 1e-9)

    # No pipeline emits a multi-target matrix gate, so none has a lowering.
    @pytest.mark.parametrize("controls", [(), ("c",)], ids=["bare", "controlled"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_multi_target_unsupported(self, k, controls, rng):
        qubits = [f"q{i}" for i in range(k)]
        u = unitary_group.rvs(2**k, random_state=rng)
        circ = Circuit(qubits + ["c"]).unitary(u, qubits, controls=controls)
        with pytest.raises(Unsupported, match=f"{k}-target unitary"):
            transpile_native(circ)


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
        # reports take their bit order from the logical circuit, so the
        # native circuit must read out in the same order
        circ = Circuit(["a", "b"]).h("a").cx("a", "b")
        circ.measure("b", "a")
        report = transpile_native(circ)
        assert report.counts.get("measure") == 2
        for logical in [circ, *reference_pipelines().values()]:
            assert transpile_native(logical).circuit.measured() == logical.measured()


class TestReporting:
    # transpile_native lowers; transpile_report sets its counts against the references.
    def test_reference_report_schema(self, monkeypatch):
        reference = {"zzphase": 10**6, "phasedx": 10**6}
        monkeypatch.setattr(experiments, "gate_reference", lambda name: reference)
        assert list(inspect.signature(transpile_native).parameters) == ["circuit"]
        pipelines = reference_pipelines()
        payload = transpile_report()
        assert set(payload) == set(pipelines)
        for name, entry in payload.items():
            native = transpile_native(pipelines[name])
            assert {f.name for f in fields(native)} == {"circuit", "counts"}
            assert set(entry) == {"counts", "reference", "total", "qubits"}
            assert entry["counts"] == native.counts == native.circuit.gate_counts()
            assert entry["reference"] == reference
            assert entry["total"] == sum(native.counts.values())
            assert entry["qubits"] == pipelines[name].num_qubits

    def test_two_x_ratio_warning(self, monkeypatch):
        # Only a count above twice a positive reference warns; "qubits" counts no gates.
        phasedx = {
            name: transpile_native(circ).counts["phasedx"] for name, circ in reference_pipelines().items()
        }

        def reference(name):
            return {"zzphase": 1, "phasedx": phasedx[name] // 2, "rz": 0, "qubits": 1, "total": 10**6}

        monkeypatch.setattr(experiments, "gate_reference", reference)
        for name, entry in transpile_report().items():
            have = entry["counts"]["zzphase"]
            expected = [f"zzphase: {have} gates vs reference 1 (> 2x)"]
            if phasedx[name] % 2:  # an odd count is more than twice its half, an even one is not
                expected.append(f"phasedx: {phasedx[name]} gates vs reference {phasedx[name] // 2} (> 2x)")
            assert entry["warnings"] == expected, name
