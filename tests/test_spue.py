import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcmc.circuit import Circuit, unitary_of
from qmcmc.errors import NotReversible, QmcmcError, Unsupported
from qmcmc.markov import MarkovKernel, discriminant, two_state_kernel
from qmcmc.spue import (
    DUAL_QUBITS,
    PartialIsometry,
    Spue,
    check_spectral_correspondence,
    cswap_encoding,
    cswap_walk,
    dual_walk,
    encoded_operator,
    lcu_encoding,
    lcu_walk,
    szegedy_encoding,
    szegedy_walk,
    two_state_row_prep,
    walk_operator,
)
from qmcmc.statevector import statevector_of

from conftest import random_reversible_kernel


FLIP = MarkovKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestLcuEncoding:
    def test_encodes_kernel(self):
        a = encoded_operator(lcu_encoding(0.25))
        assert np.max(np.abs(a - two_state_kernel(0.25).p)) < 1e-12

    def test_amplitude_angle_quarter(self):
        assert np.arccos(np.sqrt(1 - 0.25)) == pytest.approx(np.pi / 6)

    def test_near_zero_delta_encodes_identity(self):
        a = encoded_operator(lcu_encoding(1e-12))
        assert np.max(np.abs(a - np.eye(2))) < 1e-6

    def test_walk_is_phase_flip_times_unitary(self):
        spue = lcu_encoding(0.25)
        walk = walk_operator(spue)
        z_a = np.diag([1.0, 1.0, -1.0, -1.0])
        assert np.array_equal(walk.total, z_a @ spue.unitary)

    def test_cubed_walk_encodes_stationary_reflection(self):
        spue = lcu_encoding(0.25)
        walk = walk_operator(spue)
        w3 = np.linalg.matrix_power(walk.total, 3)
        e = spue.isometry.matrix
        pi_state = np.full(2, 1 / np.sqrt(2))
        reflection = 2 * np.outer(pi_state, pi_state) - np.eye(2)
        assert np.max(np.abs(e.conj().T @ w3 @ e - reflection)) < 1e-9

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lcu_encoding(0.0)


class TestSzegedyEncoding:
    def test_row_prep_columns(self):
        o = unitary_of(two_state_row_prep(two_state_kernel(0.25)))
        assert np.max(np.abs(o[:, 0] - [np.sqrt(0.75), np.sqrt(0.25), 0, 0])) < 1e-12
        assert np.max(np.abs(o[:, 2] - [0, 0, np.sqrt(0.25), np.sqrt(0.75)])) < 1e-12

    def test_uniform_pi_encodes_kernel_itself(self):
        a = encoded_operator(szegedy_encoding(two_state_kernel(0.25)))
        assert np.max(np.abs(a - two_state_kernel(0.25).p)) < 1e-12

    def test_walk_closed_form(self):
        kernel = two_state_kernel(0.25)
        walk = szegedy_walk(kernel)
        o = unitary_of(two_state_row_prep(kernel))
        z_y = np.diag([1.0, -1.0, 1.0, -1.0])
        swap = unitary_of(Circuit(["x", "y"]).swap("x", "y"))
        assert np.max(np.abs(walk.total - o @ z_y @ o.conj().T @ swap)) < 1e-10

    def test_random_kernel_encodes_discriminant(self, rng):
        kernel, pi = random_reversible_kernel(rng, 4)
        a = encoded_operator(szegedy_encoding(kernel, pi))
        assert np.max(np.abs(a - discriminant(kernel, pi))) < 1e-9

    def test_not_reversible(self):
        lazy_cycle = MarkovKernel(
            0.2 * np.eye(3) + 0.8 * np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        )
        with pytest.raises(NotReversible):
            szegedy_encoding(lazy_cycle)


class TestCswapEncoding:
    def test_quarter_acceptance(self):
        a = encoded_operator(cswap_encoding(FLIP, np.pi / 6))
        assert np.max(np.abs(a - two_state_kernel(0.25).p)) < 1e-12

    def test_always_accept_is_flip(self):
        a = encoded_operator(cswap_encoding(FLIP, np.pi / 2))
        assert np.max(np.abs(a - FLIP.p)) < 1e-12

    def test_never_accept_is_identity(self):
        a = encoded_operator(cswap_encoding(FLIP, 0.0))
        assert np.max(np.abs(a - np.eye(2))) < 1e-12

    def test_angle_sweep(self):
        for theta in np.linspace(0.05, np.pi / 2 - 0.05, 20):
            a = encoded_operator(cswap_encoding(FLIP, theta))
            expected = two_state_kernel(float(np.sin(theta) ** 2)).p
            assert np.max(np.abs(a - expected)) < 1e-9

    def test_unsupported_proposal(self):
        with pytest.raises(Unsupported):
            cswap_encoding(two_state_kernel(0.25), np.pi / 6)

    def test_unsupported_proposal_shape(self):
        uniform = MarkovKernel(np.full((3, 3), 1 / 3))
        with pytest.raises(Unsupported, match="flip proposal only"):
            cswap_encoding(uniform, np.pi / 6)

    def test_dual_experiment_angle_cross_check(self):
        # acceptance angle pi/4 gives the delta = 1/2 kernel
        a = encoded_operator(cswap_encoding(FLIP, np.pi / 4))
        assert np.max(np.abs(a - two_state_kernel(0.5).p)) < 1e-12


class TestSpectralCorrespondence:
    def test_lcu_quarter_phases(self):
        report = check_spectral_correspondence(lcu_walk(0.25))
        assert report.ok
        thetas = sorted(e.theta for e in report.entries)
        assert thetas == pytest.approx([0.0, np.arccos(0.5)])

    def test_half_delta_phases(self):
        report = check_spectral_correspondence(lcu_walk(0.5))
        assert report.ok
        thetas = sorted(e.theta for e in report.entries)
        assert thetas == pytest.approx([0.0, np.pi / 2])

    def test_random_szegedy_walks(self, rng):
        for n in (2, 3, 4):
            kernel, pi = random_reversible_kernel(rng, n)
            report = check_spectral_correspondence(szegedy_walk(kernel, pi))
            assert report.ok, report.violations

    def test_identity_spue_walk_is_reflection(self):
        iso = PartialIsometry(np.eye(4)[:, :2].astype(complex))
        spue = Spue(np.eye(4, dtype=complex), iso)
        walk = walk_operator(spue)
        assert np.allclose(walk.total, 2 * iso.projector() - np.eye(4))

    def test_non_symmetric_unitary_warns_at_the_caller(self):
        iso = PartialIsometry(np.eye(4)[:, :2].astype(complex))
        u = np.eye(4, dtype=complex)
        u[2:, 2:] = [[0, 1], [-1, 0]]
        with pytest.warns(UserWarning, match="not symmetric") as record:
            Spue(u, iso)
        assert record[0].filename == __file__


class TestDualWalk:
    def test_eigenstate_basis_labels(self):
        _, v_prep = dual_walk(np.pi / 4)
        state = statevector_of(v_prep)
        support = np.flatnonzero(np.abs(state.amps) > 1e-12)
        assert support.tolist() == [10, 12, 18, 20, 42, 44, 50, 52]
        assert np.allclose(state.amps[support], 1 / np.sqrt(8))

    def test_eigenstate_invariance(self):
        walk, v_prep = dual_walk(np.pi / 4)
        state = statevector_of(v_prep)
        assert np.linalg.norm(walk.total @ state.amps - state.amps) < 1e-8

    def test_overlap_is_one(self):
        walk, v_prep = dual_walk(np.pi / 4)
        circ = Circuit(DUAL_QUBITS)
        circ.extend(v_prep.ops)
        circ.extend(walk.circuit.ops)
        circ.extend(v_prep.inverse().ops)
        out = statevector_of(circ)
        assert abs(out.amps[0]) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_spectral_report(self):
        walk, _ = dual_walk(np.pi / 4)
        assert check_spectral_correspondence(walk).ok

    def test_other_angles_keep_proper_uniform_fixed(self):
        for theta in (0.3, np.pi / 3, np.pi / 2):
            walk, _ = dual_walk(theta)
            v = np.zeros(4)
            v[1] = v[2] = 1 / np.sqrt(2)
            fixed = walk.spue.isometry.matrix @ v
            assert np.linalg.norm(walk.total @ fixed - fixed) < 1e-8

    def test_angle_domain(self):
        with pytest.raises(ValueError):
            dual_walk(0.0)


WALK_BUILDS = {
    "lcu": lambda: lcu_walk(0.25),
    "szegedy": lambda: szegedy_walk(two_state_kernel(0.25)),
    "cswap": lambda: cswap_walk(FLIP, np.pi / 6),
    "dual": lambda: dual_walk(np.pi / 4)[0],
}
APPENDED_GATES = {
    "x": lambda circ, q: circ.x(q),
    "rz(0.3)": lambda circ, q: circ.rz(0.3, q),
    "h": lambda circ, q: circ.h(q),
}


class TestBuildChecks:
    @pytest.mark.filterwarnings("ignore:encoding unitary")
    @pytest.mark.parametrize("name", sorted(WALK_BUILDS))
    def test_appended_gate_raises_or_keeps_encoded_operator(self, monkeypatch, name):
        # One gate is appended to one circuit the walk freezes, for every
        # circuit, qubit and gate in turn; a build that succeeds must still
        # encode the same operator.
        build = WALK_BUILDS[name]
        expected = encoded_operator(build().spue)
        freeze = Circuit.freeze
        frozen = []
        with monkeypatch.context() as m:
            m.setattr(Circuit, "freeze", lambda self: frozen.append(self.qubits) or freeze(self))
            build()
        silent = []
        for k, qubits in enumerate(frozen):
            for q, (label, append) in itertools.product(qubits, APPENDED_GATES.items()):
                count = itertools.count()

                def freeze_with_gate(self):
                    if next(count) == k:
                        append(self, q)
                    return freeze(self)

                with monkeypatch.context() as m:
                    m.setattr(Circuit, "freeze", freeze_with_gate)
                    try:
                        walk = build()
                    except (QmcmcError, ValueError):
                        continue
                if np.max(np.abs(encoded_operator(walk.spue) - expected)) > 1e-9:
                    silent.append(f"circuit {k} + {label} on {q}")
        assert not silent, silent

    @pytest.mark.parametrize("name, builds", [("lcu", 2), ("szegedy", 1), ("cswap", 3), ("dual", 3)])
    def test_each_circuit_is_built_once(self, monkeypatch, name, builds):
        calls = []
        monkeypatch.setattr("qmcmc.spue.unitary_of", lambda c: calls.append(c) or unitary_of(c))
        WALK_BUILDS[name]()
        assert len(calls) == builds


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_szegedy_isometry_and_phases_random_kernels(seed, n):
    rng = np.random.default_rng(seed)
    kernel, pi = random_reversible_kernel(rng, n)
    spue = szegedy_encoding(kernel, pi)
    gram = spue.isometry.matrix.conj().T @ spue.isometry.matrix
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10
    a = encoded_operator(spue)
    assert np.max(np.abs(a - a.T)) < 1e-10
    report = check_spectral_correspondence(walk_operator(spue))
    assert report.ok, report.violations
