"""Counter-based random streams.

Every shot (and every noise trajectory) draws from an independent Philox
stream derived from ``(seed, shot_index)``.  Streams are counter-based, so
results do not depend on the order in which shots are evaluated: evaluating
shots concurrently, in batches, or one by one yields identical outcomes.

Two ways read these streams.  One Philox4x64-10 implementation in NumPy
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
``_philox``, evaluates the blocks of many shots at once.  Block ``c`` of shot
``s`` has counter ``(c, 0, s, 0)``, so the lanes that do not depend on ``s``
in the first two rounds are computed once per counter rather than per shot,
with every output bit unchanged.  ``first_uniforms`` returns the first
``random()`` of each shot's stream, all the noiseless sampler needs, and
``uint32_draws`` the 32-bit words after a shot's first uniforms, which
``lemire_integers`` turns into the noisy engine's Pauli draws.
``ShotStreams`` re-seats NumPy's own Philox generator per shot, for callers
that draw many uniforms.

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
    if not 0 <= shot_index < 2**64:
        raise ValueError(f"shot_index must be in [0, 2**64), not {shot_index}")
    bitgen = np.random.Philox(key=philox_key(seed), counter=shot_index * _SHOT_STRIDE)
    return np.random.Generator(bitgen)


def first_uniforms(seed, shots: np.ndarray) -> np.ndarray:
    """First ``random()`` of the stream of each shot index in ``shots``.

    Equal, bit for bit, to ``shot_rng(seed, s).random()`` for every ``s``.
    A seated stream has counter ``(0, 0, s, 0)``; its first draw increments
    the counter and keeps word 0 of the Philox4x64-10 block
    ``(1, 0, s, 0)`` under ``philox_key(seed)``, as ``(word0 >> 11) * 2**-53``.
    ``shots`` must be a ``uint64`` array.  ``_philox`` computes that word
    alone: 17 of the 20 high products and 16 of the 20 low products per shot.
    """
    if shots.dtype != np.uint64:
        raise TypeError(f"shot indices must be uint64, got {shots.dtype}")
    word0 = _philox(seed, shots, (1,), all_words=False)
    word0 >>= _U11
    return word0.reshape(shots.shape).astype(np.float64) * 2.0**-53


def uint32_draws(seed, shots: np.ndarray, drawn: int, count: int) -> np.ndarray:
    """The next ``count`` 32-bit draws of each shot's stream after ``drawn``
    64-bit words, as a ``(len(shots), count)`` ``uint64`` array.

    These are the words that ``Generator.integers`` reads on
    ``shot_rng(seed, s)`` after ``drawn`` ``random()`` calls (each of which
    reads one word).  NumPy splits a word into its low half, drawn first,
    and its high half, kept for the next 32-bit draw; doubles do not touch
    that kept half, and a seated stream starts without one.  So draw ``j``
    is a half of word ``drawn + j // 2``, of the Philox block
    ``((drawn + j // 2) // 4 + 1, 0, s, 0)``.  ``shots`` must be a ``uint64``
    array and ``count`` at least 1; ``_philox`` holds eight work arrays of
    ``len(shots)`` words per block, so the caller bounds ``len(shots)``.
    """
    words = (count + 1) // 2
    skip = drawn % 4
    counters = range(drawn // 4 + 1, (drawn + words - 1) // 4 + 2)
    stream = _philox(seed, shots, counters, all_words=True).reshape(len(shots), -1)
    stream = stream[:, skip : skip + words]
    out = np.empty((len(shots), count), dtype=np.uint64)
    np.bitwise_and(stream, _LOW32, out=out[:, 0::2])
    np.right_shift(stream[:, : count // 2], _U32, out=out[:, 1::2])
    return out


def lemire_integers(draws: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(bound)`` on the 32-bit ``draws``, one draw each:
    the values and where NumPy would reject the draw.

    This is NumPy's bounded-integer step (Lemire, "Fast random integer
    generation in an interval", ACM TOMACS 2019) for ``2 <= bound < 2**32``:
    ``m = draw * bound`` gives the value ``m >> 32`` unless the low word of
    ``m`` lies below ``2**32 mod bound``.  A rejected draw (probability under
    ``bound / 2**32``) makes NumPy draw again, so its value is not the
    generator's.
    """
    bound = bound.astype(np.uint64)
    m = draws * bound
    return m >> _U32, (m & _LOW32) < (np.uint64(1 << 32) - bound) % bound


def _philox(
    seed, shots: np.ndarray, counters: range | tuple[int, ...], all_words: bool
) -> np.ndarray:
    """Philox4x64-10 blocks ``(c, 0, s, 0)`` under ``philox_key(seed)`` for each
    shot ``s`` and counter ``c``: the ``(len(shots), len(counters), 4)`` words,
    or word 0 alone as ``(len(shots), len(counters))``.

    ``shots`` is a ``uint64`` array and ``counters`` holds ints in
    ``[0, 2**64)``.  The counter words ``c1`` and ``c3`` are 0 and ``c0``
    does not depend on the shot, so the lanes that do not depend on ``s`` in
    the first two rounds are not computed per shot.  Round 1
    leaves ``(hi(M1 s) ^ k0, lo(M1 s), hi(M0 c) ^ k1, lo(M0 c))``: lanes 0
    and 1 per shot, lanes 2 and 3 per counter, in exact integers.  Round 2
    multiplies lane 2 by ``M1`` per counter and lane 0 by ``M0`` per shot.
    Rounds 3 to 9 (and 10 for all words) run on every ``(shot, counter)``
    pair.  Every computed word is the one the full rounds give.
    """
    # Key of each round: the seed key plus r Weyl increments, wrapping mod 2**64.
    keys = philox_key(seed) + np.arange(_PHILOX_ROUNDS, dtype=np.uint64)[:, None] * _PHILOX_WEYL
    # Round 1's lanes 2 and 3 and round 2's product of lane 2, per counter.
    m0, m1 = int(_PHILOX_M0), int(_PHILOX_M1)
    (_, k1), (k0r2, k1r2) = keys[:2].tolist()
    lanes = []
    for c in counters:
        hi_c, lo_c = divmod(m0 * c, 1 << 64)
        hi_a, lo_a = divmod(m1 * (hi_c ^ k1), 1 << 64)
        lanes.append((hi_a ^ k0r2, lo_a, lo_c ^ k1r2))
    lane0, lane1, lane2 = np.array(lanes, dtype=np.uint64).T
    # The eight work arrays share one buffer.  Past about 2,000 shots glibc
    # maps a buffer this size and, once it is freed, raises its mmap and trim
    # thresholds above it, so the heap no longer shrinks after every call and
    # regrows, a page fault per 4 KiB, on the next.
    c0, c1, c2, c3, spare, *scratch = np.empty((8, len(shots), len(counters)), dtype=np.uint64)
    # The per-shot lanes of rounds 1 and 2 live in the first column.
    x0, x1, hi_x0, *x_scratch = (a[:, :1] for a in (c1, c3, spare, *scratch))
    s = shots.reshape(-1, 1)
    with np.errstate(over="ignore"):
        # Round 1, per-shot lanes: x0 = hi(M1 s) ^ k0, x1 = lo(M1 s).
        _mulhi(s, _PHILOX_M1, x0, x_scratch)
        x0 ^= keys[0, 0]
        np.multiply(s, _PHILOX_M1, out=x1)
        # Round 2: (x1 ^ hi(M1 A) ^ k0', lo(M1 A), hi(M0 x0) ^ B ^ k1', lo(M0 x0)),
        # with A, B round 1's lanes 2 and 3.
        np.bitwise_xor(x1, lane0, out=c0)
        _mulhi(x0, _PHILOX_M0, hi_x0, x_scratch)
        np.bitwise_xor(hi_x0, lane2, out=c2)
        np.multiply(x0, _PHILOX_M0, out=c3)
        c1[:] = lane1
        for k0, k1 in keys[2:] if all_words else keys[2:-1]:
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
        if all_words:
            return np.stack((c0, c1, c2, c3), axis=-1)
        # Round 10, word 0 only: hi(M1 c2) ^ c1 ^ k0.
        _mulhi(c2, _PHILOX_M1, c0, scratch)
        c0 ^= c1
        c0 ^= keys[-1, 0]
    return c0


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
    The noisy trajectory engine is its only batch caller.  It seats each
    shot once and draws the shot's ``1 + m + sites`` uniforms here, which
    NumPy's C generator produces faster than ``first_uniforms``-style
    vectorized rounds would.  The few 32-bit words after them, which a
    faulted shot's Pauli draws read, come from ``uint32_draws`` without a
    seat; only a shot with a draw that NumPy would reject is seated again.
    A seat keeps no 32-bit half from the previous shot, so every seated
    stream reads its words as ``shot_rng`` does.
    """

    def __init__(self, seed):
        key = philox_key(seed)
        self._bitgen = np.random.Philox(key=key)
        self.generator = np.random.Generator(self._bitgen)
        # A seated state: empty buffer, no kept 32-bit half, counter words 0,
        # 1 and 3 zero.  Only word 2 changes from seat to seat.  Plain lists,
        # because the state setter reads them faster than arrays.
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": key.tolist()},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def shot(self, shot_index: int) -> np.random.Generator:
        if not 0 <= shot_index < 2**64:
            raise ValueError("shot_index out of range")
        self._counter[2] = shot_index  # units of 2**128 counter blocks
        self._bitgen.state = self._state
        return self.generator
