import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmcmc.rng import first_uniforms, shot_rng
from qmcmc.statevector import invert_cdf, outcome_counts, sample_from_probabilities

_SEEDS = st.one_of(
    st.integers(0, 2**128 - 1),
    st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
)
_SHOTS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, shots=_SHOTS)
@example(seed=0, shots=[0])
@example(seed=(7, 1), shots=[2**64 - 1])
@example(seed=2**31 - 1, shots=[0, 2**64 - 1, 2**63, 1])
def test_first_uniforms_equal_each_shot_stream(seed, shots):
    got = first_uniforms(seed, np.array(shots, dtype=np.uint64))
    want = [shot_rng(seed, s).random() for s in shots]
    assert got.tolist() == want


def _per_shot_histogram(probs, num_bits, shots, seed):
    """The sampler's contract, one generator per shot."""
    outcomes = [int(invert_cdf(probs, shot_rng(seed, s).random())) for s in range(shots)]
    return outcome_counts(np.array(outcomes), num_bits)


@settings(max_examples=20, deadline=None)
@given(
    seed=_SEEDS,
    weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0),
    shots=st.integers(1, 300),
)
def test_sampler_equals_per_shot_oracle(seed, weights, shots):
    probs = np.array(weights) / sum(weights)
    assert sample_from_probabilities(probs, 2, shots, seed) == _per_shot_histogram(
        probs, 2, shots, seed
    )


def test_rejects_non_uint64_indices():
    with pytest.raises(TypeError):
        first_uniforms(3, np.arange(4))
