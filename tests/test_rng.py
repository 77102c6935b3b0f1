import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmcmc import rng
from qmcmc.rng import (
    ShotStreams, first_uniforms, lemire_integers, philox_key, shot_rng, uint32_draws,
)
from qmcmc.statevector import invert_cdf, sample_from_probabilities

_SEEDS = st.one_of(
    st.integers(0, 2**128 - 1),
    st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
)
_SHOTS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(
        st.integers(0, 2**256 - 1),
        st.lists(st.integers(0, 2**64), min_size=1, max_size=6).map(tuple),
    )
)
@example(seed=0)
@example(seed=2**32 - 1)
@example(seed=2**32)
@example(seed=2**128 - 1)
@example(seed=(2**32, 0))
@example(seed=(5, 0))
@example(seed=(0,))
@example(seed=(1, 2, 3, 4, 5, 6))
@example(seed=np.int64(5))
@example(seed=(np.uint64(2**64 - 1), np.int8(3)))
def test_key_equals_numpy_seed_sequence(seed):
    # first_uniforms and shot_rng both read philox_key, so only this pins the key.
    want = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    got = philox_key(seed)
    assert got.dtype == np.uint64 and got.tolist() == want.tolist()


_BAD_SEEDS = [None, True, False, -1, 1.5, "7", [1, 2], (), (1, -1), (True,), ((1, 2),)]


@pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
@pytest.mark.parametrize(
    "draw",
    [
        philox_key,
        ShotStreams,
        lambda seed: sample_from_probabilities(np.array([0.5, 0.5]), 1, 10, seed),
    ],
    ids=["philox_key", "ShotStreams", "sampler"],
)
def test_rejects_seeds_that_are_not_counts(draw, seed):
    # None would draw OS entropy: two runs of one seed would differ.
    with pytest.raises(ValueError, match="seed must be an int >= 0"):
        draw(seed)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, shots=_SHOTS)
@example(seed=0, shots=[0])
@example(seed=(7, 1), shots=[2**64 - 1])
@example(seed=2**31 - 1, shots=[0, 2**64 - 1, 2**63, 1])
@example(seed=5, shots=list(range(8)))
@example(seed=(2**64 - 1, 3), shots=[2**64 - 2, 2**64 - 1])
def test_first_uniforms_equal_each_shot_stream(seed, shots):
    got = first_uniforms(seed, np.array(shots, dtype=np.uint64))
    want = [shot_rng(seed, s).random() for s in shots]
    assert got.tolist() == want


@settings(max_examples=60, deadline=None)
@given(
    seed=_SEEDS,
    shot=st.integers(0, 2**64 - 1),
    drawn=st.integers(0, 40),
    arities=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    integers_first=st.booleans(),
)
@example(seed=0, shot=0, drawn=5, arities=[1], integers_first=True)
def test_seat_equals_shot_stream(seed, shot, drawn, arities, integers_first):
    # A seat reads the stream exactly, for uniforms and for the 32-bit bounded
    # integers of the Pauli draws, and keeps no 32-bit half from the last shot.
    def tail(rng):
        paulis = [int(rng.integers(4**a - 1)) for a in arities] if integers_first else []
        rng.random(drawn)
        return paulis, rng.random(3).tolist(), [int(rng.integers(4**a - 1)) for a in arities]

    streams = ShotStreams(seed)
    streams.shot(shot ^ 1).integers(3)  # leaves a kept half behind
    assert tail(streams.shot(shot)) == tail(shot_rng(seed, shot))


def _per_shot_histogram(probs, num_bits, shots, seed):
    """The sampler's contract, one generator per shot."""
    counts = {}
    for s in range(shots):
        key = format(int(invert_cdf(probs, shot_rng(seed, s).random())), f"0{num_bits}b")
        counts[key] = counts.get(key, 0) + 1
    return counts


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


@settings(max_examples=40, deadline=None)
@given(
    seed=_SEEDS,
    shots=_SHOTS,
    counters=st.lists(st.integers(1, 300), min_size=1, max_size=4, unique=True),
)
@example(seed=0, shots=[0], counters=[1])
@example(seed=(2**64 - 1, 3), shots=[2**64 - 2, 2**64 - 1], counters=[1, 2, 90, 91])
@example(seed=7, shots=list(range(8)), counters=[200, 3])
def test_philox_blocks_equal_random_raw(seed, shots, counters):
    # Block (c, 0, s, 0) holds words 4(c - 1) to 4c - 1 of shot s's seated stream.
    got = rng._philox(seed, np.array(shots, dtype=np.uint64), tuple(counters), True)
    assert got.shape == (len(shots), len(counters), 4)
    for row, s in zip(got, shots):
        stream = np.random.Philox(key=philox_key(seed), counter=s * 2**128)
        raw = stream.random_raw(4 * max(counters)).tolist()
        assert [block.tolist() for block in row] == [raw[4 * c - 4 : 4 * c] for c in counters]


@settings(max_examples=40, deadline=None)
@given(
    seed=_SEEDS,
    shots=_SHOTS,
    drawn=st.integers(0, 40),
    bounds=st.lists(st.sampled_from([3, 15, 63, 255, 1023, 4**11 - 1]), min_size=1, max_size=9),
)
@example(seed=0, shots=[0, 2**64 - 1], drawn=3, bounds=[3, 15, 63, 255, 1023])
def test_vectorized_integers_equal_generator_integers(seed, shots, drawn, bounds):
    # After ``drawn`` uniforms, the Pauli draws of a stream are its next 32-bit
    # halves, low half first, run through NumPy's bounded-integer step.
    draws = uint32_draws(seed, np.array(shots, dtype=np.uint64), drawn, len(bounds))
    assert draws.shape == (len(shots), len(bounds))
    for row, s in zip(draws, shots):
        gen = shot_rng(seed, s)
        gen.random(drawn)
        values, rejected = lemire_integers(row, np.array(bounds))
        assert not rejected.any()
        assert values.tolist() == [int(gen.integers(b)) for b in bounds]


@pytest.mark.parametrize("bound", [3, 15, 63, 255, 1023])
def test_lemire_rejects_below_the_threshold(bound):
    # A draw x with x * bound = t mod 2**32 is rejected exactly for t < 2**32 mod bound.
    threshold = 2**32 % bound
    inverse = pow(bound, -1, 2**32)
    lows = list(range(threshold + 2))
    draws = np.array([t * inverse % 2**32 for t in lows], dtype=np.uint64)
    _, rejected = lemire_integers(draws, np.full(len(lows), bound))
    assert rejected.tolist() == [t < threshold for t in lows]


@pytest.mark.parametrize("shot_index", [-1, 2**64, 2**70])
def test_shot_rng_rejects_shots_outside_the_stream_range(shot_index):
    # Shot s owns counter word 2; from 2**64 on it would spill into word 3.
    with pytest.raises(ValueError, match=r"shot_index must be in \[0, 2\*\*64\)"):
        shot_rng(3, shot_index)
