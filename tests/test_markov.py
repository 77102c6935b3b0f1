import json
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from qmcmc.errors import NotErgodic, NotReversible, SchemaError
from qmcmc.markov import (
    Distribution,
    MarkovKernel,
    constant_acceptance,
    discriminant,
    metropolis_acceptance,
    metropolis_hastings,
    spectral_gap,
    stationary,
    two_state_kernel,
)

from conftest import random_reversible_kernel


class TestTwoStateKernel:
    def test_quarter(self):
        k = two_state_kernel(0.25)
        assert np.allclose(k.p, [[0.75, 0.25], [0.25, 0.75]])

    def test_half_is_maximally_mixing(self):
        k = two_state_kernel(0.5)
        assert np.allclose(k.p, [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_out_of_range(self, delta):
        with pytest.raises(ValueError):
            two_state_kernel(delta)

    def test_dual_experiment_acceptance_half(self):
        # acceptance amplitude sin(pi/4)^2 = 1/2 gives the mixing kernel
        delta = np.sin(np.pi / 4) ** 2
        k = two_state_kernel(delta)
        assert np.allclose(k.p, [[0.5, 0.5], [0.5, 0.5]])


class TestKernelValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MarkovKernel(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            MarkovKernel(np.array([[0.6, 0.5], [0.5, 0.5]]))

    def test_json_round_trip(self):
        k = two_state_kernel(0.25)
        k2 = MarkovKernel.from_json(k.to_json())
        assert np.allclose(k.p, k2.p)

    def test_json_rejects_bad_shape(self):
        with pytest.raises(SchemaError):
            MarkovKernel.from_json(json.dumps({"n": 3, "p": [[1.0, 0.0], [0.0, 1.0]]}))

    def test_json_rejects_invariant_violation(self):
        with pytest.raises(SchemaError):
            MarkovKernel.from_json(json.dumps({"n": 2, "p": [[0.9, 0.2], [0.5, 0.5]]}))


@st.composite
def _supports(draw):
    """Boolean support of an n x n kernel, n = 2..6, with no empty row."""
    n = draw(st.integers(2, 6))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    support = np.array(cells).reshape(n, n)
    support[~support.any(axis=1), 0] = True
    return support.astype(float)


def _ergodic_by_graph(support: np.ndarray) -> bool:
    """Strongly connected, and the gcd of the lengths k <= n of closed walks is 1."""
    n = len(support)
    count, _ = connected_components(support, directed=True, connection="strong")
    walk, period = np.eye(n), 0
    for k in range(1, n + 1):
        walk = (walk @ support > 0).astype(float)
        if np.trace(walk) > 0:
            period = gcd(period, k)
    return count == 1 and period == 1


class TestStationary:
    def test_uniform_for_symmetric(self):
        pi = stationary(two_state_kernel(0.25))
        assert np.allclose(pi.weights, [0.5, 0.5])

    def test_identity_not_ergodic(self):
        # Reducible kernels: the identity, and a chain with an absorbing state.
        absorbing = [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]
        for p in (np.eye(2), absorbing):
            with pytest.raises(NotErgodic):
                stationary(MarkovKernel(np.array(p)))

    def test_periodic_not_ergodic(self):
        # Irreducible with period 2 and 3.
        for p in ([[0.0, 1.0], [1.0, 0.0]], np.roll(np.eye(3), 1, axis=1)):
            with pytest.raises(NotErgodic):
                stationary(MarkovKernel(np.array(p)))

    def test_cycle_with_self_loop_is_ergodic(self):
        p = np.roll(np.eye(4), 1, axis=1)
        p[0] = [0.5, 0.5, 0.0, 0.0]
        k = MarkovKernel(p)
        assert k.is_ergodic
        pi = stationary(k).weights
        assert np.allclose(pi @ p, pi)

    @settings(max_examples=300, deadline=None)
    @given(support=_supports())
    def test_ergodic_matches_graph_oracle(self, support):
        k = MarkovKernel(support / support.sum(axis=1, keepdims=True))
        assert k.is_ergodic == _ergodic_by_graph(support)

    def test_matches_power_iteration(self, rng):
        # independent oracle: iterate the kernel until the law stops moving
        k, _ = random_reversible_kernel(rng, 3)
        pi = stationary(k).weights
        law = np.full(3, 1 / 3)
        for _ in range(10_000):
            law = law @ k.p
        assert np.max(np.abs(law - pi)) < 1e-10

    def test_left_eigenvector_property(self, rng):
        for n in (2, 4, 7):
            k, _ = random_reversible_kernel(rng, n)
            pi = stationary(k).weights
            assert np.max(np.abs(pi @ k.p - pi)) < 1e-10


class TestDiscriminant:
    def test_symmetric_kernel_uniform_pi_is_identity_map(self):
        k = two_state_kernel(0.25)
        d = discriminant(k, Distribution(np.array([0.5, 0.5])))
        assert np.allclose(d, k.p)

    def test_same_spectrum_as_kernel(self, rng):
        k, pi = random_reversible_kernel(rng, 4)
        d = discriminant(k, pi)
        assert np.max(np.abs(d - d.T)) < 1e-10
        spec_d = np.sort(np.linalg.eigvalsh(d))
        spec_p = np.sort(np.real(np.linalg.eigvals(k.p)))
        assert np.max(np.abs(spec_d - spec_p)) < 1e-9

    def test_cycle_not_reversible(self):
        cycle = MarkovKernel(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float))
        with pytest.raises(NotReversible):
            discriminant(cycle, Distribution(np.full(3, 1 / 3)))


class TestMetropolisHastings:
    def test_flip_proposal_constant_delta(self):
        proposal = MarkovKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
        k = metropolis_hastings(proposal, constant_acceptance(0.25))
        assert np.allclose(k.p, two_state_kernel(0.25).p)

    def test_accept_everything_returns_proposal(self, rng):
        proposal, _ = random_reversible_kernel(rng, 4)
        k = metropolis_hastings(proposal, constant_acceptance(1.0))
        off_diag = ~np.eye(4, dtype=bool)
        assert np.allclose(k.p[off_diag], proposal.p[off_diag])

    def test_ring_proposal_targets_pi(self):
        n = 4
        ring = np.zeros((n, n))
        for x in range(n):
            ring[x, (x + 1) % n] = ring[x, (x - 1) % n] = 0.5
        target = Distribution(np.array([0.4, 0.3, 0.2, 0.1]))
        k = metropolis_hastings(MarkovKernel(ring), metropolis_acceptance(target))
        assert np.max(np.abs(stationary(k).weights - target.weights)) < 1e-9

    def test_rejects_bad_acceptance(self):
        proposal = MarkovKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            metropolis_hastings(proposal, lambda x, y: 1.5)


class TestSpectralGap:
    def test_quarter(self):
        assert spectral_gap(two_state_kernel(0.25)) == pytest.approx(0.5, abs=1e-12)

    def test_half_rank_one(self):
        assert spectral_gap(two_state_kernel(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_eigensolve(self, rng):
        k, pi = random_reversible_kernel(rng, 5)
        d = discriminant(k, pi)
        vals = np.sort(np.abs(np.linalg.eigvalsh(d)))
        assert spectral_gap(k) == pytest.approx(1.0 - vals[-2], abs=1e-12)

    def test_propagates_not_reversible(self):
        lazy_cycle = MarkovKernel(
            0.2 * np.eye(3) + 0.8 * np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        )
        with pytest.raises(NotReversible):
            spectral_gap(lazy_cycle)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_reversible_chain_properties(seed, n):
    rng = np.random.default_rng(seed)
    k, pi = random_reversible_kernel(rng, n)
    d = discriminant(k, pi)
    assert np.max(np.abs(d - d.T)) < 1e-10
    spec_d = np.sort(np.linalg.eigvalsh(d))
    spec_p = np.sort(np.real(np.linalg.eigvals(k.p)))
    assert np.max(np.abs(spec_d - spec_p)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
def test_metropolis_rule_stationary_property(seed, n):
    # The plain min(1, pi_y/pi_x) rule targets pi for symmetric proposals.
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.1, 1.0, size=(n, n))
    base = (base + base.T) / 2
    np.fill_diagonal(base, 0.0)
    base = base / (base.sum(axis=1).max() + 0.1)
    np.fill_diagonal(base, 1.0 - base.sum(axis=1))
    proposal = MarkovKernel(base)
    target = rng.uniform(0.2, 1.0, size=n)
    target = Distribution(target / target.sum())
    chain = metropolis_hastings(proposal, metropolis_acceptance(target))
    assert np.max(np.abs(stationary(chain).weights - target.weights)) < 1e-9


def test_coherent_encoding_unit_norm(rng):
    for n in (2, 5, 8):
        _, pi = random_reversible_kernel(rng, n)
        assert np.linalg.norm(pi.coherent()) == pytest.approx(1.0, abs=1e-14)
