"""Counter-based random streams.

Every shot (and every noise trajectory) draws from an independent Philox
stream derived from ``(seed, shot_index)``.  Streams are counter-based, so
results do not depend on the order in which shots are evaluated: evaluating
shots concurrently, in batches, or one by one yields identical outcomes.

Two ways read these streams.  ``first_uniforms`` evaluates Philox4x64-10
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) for
many shots at once in NumPy and returns the first ``random()`` of each shot's
stream; the noiseless sampler needs nothing more.  Its counter is
``(1, 0, s, 0)`` for shot ``s``, so the lanes that do not depend on ``s`` in
the first two rounds are constants, computed once per call rather than per
shot, with every output bit unchanged.  ``ShotStreams`` re-seats NumPy's own
Philox generator per shot, for callers that draw further.

A seed is an int >= 0 or a non-empty tuple of them; ``philox_key`` turns it
into the 128-bit key that ``np.random.SeedSequence`` would give, bit for bit,
without importing ``numpy.random``.  So the noiseless routes (the sampler,
phase estimation, mean estimation and the all-zero noise model) never load
it; ``shot_rng`` and ``ShotStreams``, which the noisy engine and its per-shot
oracle use, import it on first use.
"""

from __future__ import annotations

import numpy as np

# Each shot owns a 2**128-block slice of the Philox counter space.
_SHOT_STRIDE = 1 << 128

# Philox4x64-10 constants: round multipliers and Weyl key increments.
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_WEYL = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_U11 = np.uint64(11)
_MASK32 = 0xFFFFFFFF  # the same mask as a Python int, for the key derivation


def philox_key(seed) -> np.ndarray:
    """The 128-bit Philox key of ``seed``, as two ``uint64`` words.

    ``seed`` is a non-``bool`` integer >= 0 (NumPy integers included) or a
    non-empty tuple of them; anything else, ``None`` among it, raises
    ``ValueError``.  The key equals, bit for bit,
    ``np.random.SeedSequence(seed).generate_state(2, np.uint64)``: this is
    that algorithm (NumPy's ``bit_generator.pyx``) on Python integers, all of
    it mod 2**32, so deriving a key does not import ``numpy.random``.  Each
    int gives its little-endian 32-bit words (0 gives one zero word) and a
    tuple concatenates them.  The first four words (zero-padded) are hashed
    into a pool of four, every pool word is mixed into every other, each
    later word is mixed into all four, and the key is a final hash of the
    pool.  One hash constant runs through all the hashing of the pool.
    """
    ints = seed if isinstance(seed, tuple) and seed else (seed,)
    words = []
    for n in ints:
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
            raise ValueError(
                f"seed must be an int >= 0 or a non-empty tuple of them, not {seed!r}"
            )
        n = int(n)
        words.append(n & _MASK32)
        while n := n >> 32:
            words.append(n & _MASK32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool))
    return np.array([out[0] | out[1] << 32, out[2] | out[3] << 32], dtype=np.uint64)


def _hasher(h: int, mult: int):
    """SeedSequence's 32-bit hash, whose constant starts at ``h`` and is
    multiplied by ``mult`` at every call."""

    def hash32(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * mult & _MASK32
        v = v * h & _MASK32
        return v ^ v >> 16

    return hash32


def _mix(x: int, y: int) -> int:
    """SeedSequence's 32-bit mix of ``y`` into ``x``."""
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return r ^ r >> 16


def shot_rng(seed, shot_index: int) -> np.random.Generator:
    """Independent generator for one shot of one seeded run."""
    if shot_index < 0:
        raise ValueError("shot_index must be nonnegative")
    bitgen = np.random.Philox(key=philox_key(seed), counter=shot_index * _SHOT_STRIDE)
    return np.random.Generator(bitgen)


def first_uniforms(seed, shots: np.ndarray) -> np.ndarray:
    """First ``random()`` of the stream of each shot index in ``shots``.

    Equal, bit for bit, to ``shot_rng(seed, s).random()`` for every ``s``.
    A seated stream has counter ``(0, 0, s, 0)``; its first draw increments
    the counter and keeps word 0 of the Philox4x64-10 block
    ``(1, 0, s, 0)`` under ``philox_key(seed)``, as ``(word0 >> 11) * 2**-53``.
    ``shots`` must be a ``uint64`` array.

    Only ``s`` varies between shots, so some lanes of the first two rounds
    hold the same value for every shot and are not computed per shot.  In
    round 1, ``M0 * c0`` is ``M0 * 1``, whose high word is 0, so the round
    leaves ``c2 = k1`` and ``c3 = M0``.  In round 2, ``M1 * c2`` is the
    scalar ``M1 * k1``, so the round leaves the constant ``c1 = lo(M1 k1)``
    and makes ``c0`` from the previous ``c1`` by one XOR.  Round 10 computes
    word 0 alone.  Every computed word is the one the full rounds give, so the
    output is unchanged: 17 of the 20 high products and 16 of the 20 low
    products remain per shot.
    """
    if shots.dtype != np.uint64:
        raise TypeError(f"shot indices must be uint64, got {shots.dtype}")
    # Key of each round: the seed key plus r Weyl increments, wrapping mod 2**64.
    keys = philox_key(seed) + np.arange(_PHILOX_ROUNDS, dtype=np.uint64)[:, None] * _PHILOX_WEYL
    # Round 2's product of the constant lane c2 = k1, in exact integers.
    hi_k1, lo_k1 = divmod(int(_PHILOX_M1) * int(keys[0, 1]), 1 << 64)
    # The eight work arrays share one buffer.  Past about 2,000 shots glibc
    # maps a buffer this size and, once it is freed, raises its mmap and trim
    # thresholds above it, so the heap no longer shrinks after every call and
    # regrows, a page fault per 4 KiB, on the next.
    c0, c1, c2, c3, spare, *scratch = np.empty((8,) + shots.shape, dtype=np.uint64)
    with np.errstate(over="ignore"):
        # Round 1 on (1, 0, s, 0) under keys (k0, k1): (hi(M1 s) ^ k0, lo(M1 s), k1, M0).
        _mulhi(shots, _PHILOX_M1, c0, scratch)
        c0 ^= keys[0, 0]
        np.multiply(shots, _PHILOX_M1, out=c1)
        # Round 2 on (c0, c1, k1, M0) under keys (k0', k1'):
        # (c1 ^ hi(M1 k1) ^ k0', lo(M1 k1), hi(M0 c0) ^ M0 ^ k1', lo(M0 c0)).
        _mulhi(c0, _PHILOX_M0, c2, scratch)
        c2 ^= _PHILOX_M0 ^ keys[1, 1]
        c0 *= _PHILOX_M0
        c1 ^= np.uint64(hi_k1) ^ keys[1, 0]
        c0, c1, c3 = c1, c3, c0
        c1.fill(lo_k1)
        for k0, k1 in keys[2:-1]:
            # (c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
            _mulhi(c0, _PHILOX_M0, spare, scratch)
            spare ^= c3
            spare ^= k1
            c0 *= _PHILOX_M0
            _mulhi(c2, _PHILOX_M1, c3, scratch)
            c3 ^= c1
            c3 ^= k0
            c2 *= _PHILOX_M1
            c0, c1, c2, c3, spare = c3, c2, spare, c0, c1
        # Round 10, word 0 only: hi(M1 c2) ^ c1 ^ k0.
        _mulhi(c2, _PHILOX_M1, c0, scratch)
        c0 ^= c1
        c0 ^= keys[-1, 0]
    c0 >>= _U11
    return c0.astype(np.float64) * 2.0**-53


def _mulhi(a: np.ndarray, m: np.uint64, out: np.ndarray, scratch) -> None:
    """High 64 bits of the 128-bit products ``a * m``, from 32-bit halves, into ``out``."""
    m_lo, m_hi = m & _LOW32, m >> _U32
    a_lo, a_hi, carry = scratch
    np.bitwise_and(a, _LOW32, out=a_lo)
    np.right_shift(a, _U32, out=a_hi)
    np.multiply(a_lo, m_lo, out=carry)
    carry >>= _U32
    np.multiply(a_hi, m_lo, out=out)
    carry += out  # a_hi*m_lo + (a_lo*m_lo >> 32) < 2**64
    a_lo *= m_hi
    np.bitwise_and(carry, _LOW32, out=out)
    a_lo += out  # a_lo*m_hi + low half of carry < 2**64
    a_lo >>= _U32
    carry >>= _U32
    a_hi *= m_hi
    np.add(a_hi, carry, out=out)
    out += a_lo


class ShotStreams:
    """Cheap iteration over the per-shot streams of one seeded run.

    Re-seats a single Philox counter instead of constructing a generator per
    shot; ``shot(s)`` yields draws identical to ``shot_rng(seed, s)``.  The
    returned generator is shared, so finish one shot before seating the next.
    The noisy trajectory engine is its only batch caller: it draws
    ``1 + m + sites`` uniforms per shot, which NumPy's C generator produces
    faster than ``first_uniforms``-style vectorized rounds would.

    ``shot(s, drawn=k)`` resumes the stream just past its first ``k`` raw
    words, so its draws equal those of ``shot_rng(seed, s)`` after ``k``
    ``random()`` calls.  Each Philox block yields four words and the first
    draw of a seated stream increments the counter, so the resumed seat sets
    counter word 0 to ``k // 4`` and discards ``k % 4`` words.  The engine
    uses it to re-seat a shot whose site uniforms fired a fault for its Pauli
    draws.
    """

    def __init__(self, seed):
        key = philox_key(seed)
        self._bitgen = np.random.Philox(key=key)
        self.generator = np.random.Generator(self._bitgen)
        # A seated state: empty buffer, no spare 32-bit word, counter words 1
        # and 3 zero.  Only words 0 and 2 change from seat to seat.  Plain
        # lists, because the state setter reads them faster than arrays.
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": key.tolist()},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def shot(self, shot_index: int, drawn: int = 0) -> np.random.Generator:
        if not 0 <= shot_index < 2**64:
            raise ValueError("shot_index out of range")
        if not 0 <= drawn < 2**66:
            raise ValueError("drawn out of range")
        self._counter[0] = drawn // 4
        self._counter[2] = shot_index  # units of 2**128 counter blocks
        self._bitgen.state = self._state
        if drawn % 4:
            self._bitgen.random_raw(drawn % 4)
        return self.generator
