"""Deterministic counter-based random streams.

Every random quantity in an experiment is drawn from a Philox
(counter-based) generator keyed by the master seed plus a purpose key,
e.g. ``(BATCH_STREAM, trial_index)``. Streams built from the same key
are identical, so paired optimization runs can consume the same batch
indices without sharing generator state, and a trial's draws do not
depend on which other trials are run with it, or in what order.

``batch_indices`` draws many trials' batches in one vectorized pass:
SeedSequence keys derived for all trials at once, numpy's Philox 4x64
words from one reused bit generator, and the 32-bit Lemire draw of
``Generator.integers``, applied to the whole stack. Row k is bit-identical to
``derive_stream(master_seed, BATCH_STREAM, k).integers(0, n, size)``.
numpy keeps bit-generator streams stable across versions (NEP 19), not
the ``integers`` algorithm; if that changes, Tier-1's
``tests/test_streams.py::test_batch_indices_match_numpy_bit_for_bit`` fails.
"""

import operator

import numpy as np

# Purpose tags for derived streams.
DATA_STREAM = 0
BATCH_STREAM = 1

__all__ = ["DATA_STREAM", "BATCH_STREAM", "derive_stream", "batch_indices"]

_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MULT_A, _INIT_B, _MULT_B = 0x931E8875, 0x8B51F9DD, 0x58F38DED
_INIT_A, _MIX_MULT_L, _MIX_MULT_R = 0x43B0D7E5, 0xCA01F9DD, 0x4973F715


def derive_stream(master_seed, *key):
    """Independent Generator keyed by (master_seed, *key).

    Same key, same stream; different keys give statistically independent
    streams. Results do not depend on creation order or thread count.
    """
    if not key:
        raise ValueError("at least one key component is required")
    ss = np.random.SeedSequence(entropy=operator.index(master_seed),
                                spawn_key=tuple(operator.index(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _hash(value, const, mult):
    """SeedSequence's hash of a 32-bit value, and the next hash constant."""
    nxt = const * mult & _M32
    value = (value ^ const) * nxt & _M32
    return value ^ value >> 16, nxt


def _philox_keys(master_seed, tag, count):
    """(count, 2) uint64 Philox keys of the streams (master_seed, tag, k), k < count.

    ``SeedSequence(master_seed, spawn_key=(tag,))`` has already hashed
    every entropy word but k into its pool (the seed's 32-bit words,
    padded to the pool size, then tag; one hash per word and pool slot).
    This mixes k into that pool and runs ``generate_state(2, uint64)``,
    on arrays over k in uint64 masked to 32 bits.
    """
    seed = operator.index(master_seed)
    base = np.random.SeedSequence(seed, spawn_key=(tag,))
    pool = base.pool.tolist()
    hashed_words = max(-(-seed.bit_length() // 32), len(pool)) + 1
    mix_const = _INIT_A * pow(_MULT_A, len(pool) * hashed_words, 1 << 32) & _M32
    state_const, trials, words = _INIT_B, np.arange(count, dtype=np.uint64), []
    for word in pool:
        hashed, mix_const = _hash(trials, mix_const, _MULT_A)
        word = (_MIX_MULT_L * word + (_M32 + 1 - _MIX_MULT_R) * hashed) & _M32
        word, state_const = _hash(word ^ word >> 16, state_const, _MULT_B)
        words.append(word)
    return np.stack([words[0] | words[1] << 32, words[2] | words[3] << 32], axis=-1)


def _raw_words(keys, m):
    """Each key's first ``m`` Philox words, split low half first into a (keys, 2m) uint64 stack."""
    bitgen = np.random.Philox(0)
    state = bitgen.state
    raw = np.empty((len(keys), m), dtype=np.uint64)
    for row, key in zip(raw, keys):
        state["state"]["key"] = key
        bitgen.state = state
        row[:] = bitgen.random_raw(m)
    out = np.empty((len(keys), 2 * m), dtype=np.uint64)
    np.bitwise_and(raw, _M32, out=out[:, 0::2])
    np.right_shift(raw, 32, out=out[:, 1::2])
    return out


def batch_indices(master_seed, trials, n, size):
    """Every trial's ``size`` indices in {0, ..., n-1}, as a (trials, size) int64 array.

    Row k equals ``derive_stream(master_seed, BATCH_STREAM, k).integers(0,
    n, size)`` bit for bit, for n and trials up to 2**32.
    """
    n = operator.index(n)
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if not 1 <= n <= 2 ** 32 or trials > 2 ** 32:
        raise ValueError("sample count must be in [1, 2**32], and trials at most 2**32")
    keys = _philox_keys(master_seed, BATCH_STREAM, trials)
    threshold = (2 ** 32 - n) % n
    m = -(-size // 2)
    while True:
        draws = _raw_words(keys, m)
        draws *= n
        # Lemire: a word is kept where the low half of u * n is at least
        # the threshold, and gives the index u * n >> 32.
        accept = draws.astype(np.uint32) >= threshold
        draws >>= 32
        if accept[:, :size].all():
            return draws[:, :size].view(np.int64)
        accept &= np.cumsum(accept, axis=1) <= size
        if (accept.sum(axis=1) == size).all():
            return draws[accept].reshape(trials, size).view(np.int64)
        m *= 2
