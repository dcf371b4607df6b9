"""Counter-based random streams.

Every random draw in the package is made from a generator keyed by integers
that identify the consumer (purpose stream, step, node, ...) rather than by
position in a shared stream.  Two consequences:

* any draw can be reproduced in isolation, without replaying the run that
  originally made it, and
* inserting or removing a consumer never shifts the numbers seen by the
  others.

``keyed_generator`` feeds the key to ``numpy.random.SeedSequence``, whose
hashing guarantees well-separated states for distinct key tuples, and keys a
Philox bit generator with it.  Philox is counter-based (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11): block k of a stream is
a pure function of the key and the counter k.

``keyed_integers`` is a bitwise replica of ``keyed_generator(seed,
*key).integers(0, high, size)`` for many keys at once.  It computes numpy's
own pipeline in vectorised integer ops: the SeedSequence entropy mix and
``generate_state`` give a 2x64-bit key, Philox4x64-10 encrypts counter
blocks 1, 2, ..., each 64-bit output is split into two 32-bit draws low word
first, and Lemire's multiply-shift maps a draw into [0, high).  Rows that
Lemire would reject and redraw, and keys or ranges outside 32 bits, are
handed to the scalar generator.  The replica exists so that batching draws
never changes a sample stream: every stream, and with it every acceptance
verdict, stays what the scalar generator gives.
"""

from __future__ import annotations

import numpy as np

# Purpose tags keeping independent uses of the same seed apart.
STREAM_DATA = 1        # synthetic dataset generation
STREAM_PARTITION = 2   # assigning samples to workers
STREAM_SAMPLE = 3      # minibatch index draws
STREAM_COMPRESS = 4    # randomized compressor decisions

_MASK32 = 0xFFFFFFFF
# numpy.random.SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10: round multipliers and Weyl key increments (Random123).
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# 32-bit draws per Philox4x64 block.
_DRAWS_PER_BLOCK = 8


def keyed_generator(seed: int, *key: int) -> np.random.Generator:
    """Return a fresh Generator for (seed, *key), independent of call order."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    seq = np.random.SeedSequence((seed,) + tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def keyed_integers(seed: int, keys, high, size: int) -> np.ndarray:
    """Row j is keyed_generator(seed, *keys[j]).integers(0, high[j], size=size).

    keys is an (m, k) integer array and high an (m,) array of exclusive
    bounds; the result is (m, size) int64, equal to the scalar draws bit for
    bit.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    keys = np.asarray(keys)
    high = np.asarray(high)
    out = np.empty((keys.shape[0], size), dtype=np.int64)
    in_range = ((keys >= 0) & (keys <= _MASK32)).all(axis=1) & (high >= 1) & (high <= _MASK32)
    fast = np.asarray(in_range, dtype=bool)  # object-dtype keys compare to objects
    rows = np.flatnonzero(fast)
    if rows.size:
        seed_words = _int_words(seed)
        words = np.empty((rows.size, len(seed_words) + keys.shape[1]), dtype=np.uint32)
        words[:, : len(seed_words)] = seed_words
        words[:, len(seed_words) :] = keys[rows]
        key0, key1 = _seed_sequence_key(words)
        bound = high[rows].astype(np.uint64)[:, None]
        scaled = _philox_draws(key0, key1, size) * bound
        # Lemire rejects a draw whose low word is below (2^32 - high) % high.
        threshold = (np.uint64(_MASK32 + 1) - bound) % bound
        rejected = ((scaled & np.uint64(_MASK32)) < threshold).any(axis=1)
        out[rows] = scaled >> np.uint64(32)
        fast[rows[rejected]] = False
    for j in np.flatnonzero(~fast):
        out[j] = keyed_generator(seed, *keys[j]).integers(0, high[j], size=size)
    return out


def _int_words(value: int) -> list[int]:
    """SeedSequence's split of a non-negative int into 32-bit words, low first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_sequence_key(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Philox key of SeedSequence(entropy) per row of a (m, L) uint32 entropy array.

    The hash constants evolve the same way for every row, so each step of
    numpy's mix_entropy is one vectorised op over all rows.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value, hash_const = _hash(value, hash_const, _MULT_A)
        return value

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zeros = np.zeros(words.shape[0], dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < words.shape[1] else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, words.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))

    # generate_state(4, uint32), read as two little-endian uint64 words.
    hash_const = _INIT_B
    state = []
    for value in pool:
        value, hash_const = _hash(value, hash_const, _MULT_B)
        state.append(value.astype(np.uint64))
    shift = np.uint64(32)
    return state[0] | (state[1] << shift), state[2] | (state[3] << shift)


def _hash(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash of uint32 words; returns them and the next constant."""
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * mult) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> np.uint32(16)), hash_const


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product a * b."""
    mask, shift = np.uint64(_MASK32), np.uint64(32)
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo, b_hi = b & mask, b >> shift
    lh, hl = b_lo * a_hi, b_hi * a_lo
    mid = ((b_lo * a_lo) >> shift) + (lh & mask) + (hl & mask)
    hi = b_hi * a_hi + (lh >> shift) + (hl >> shift) + (mid >> shift)
    return hi, b * np.uint64(a)


def _philox_draws(key0: np.ndarray, key1: np.ndarray, size: int) -> np.ndarray:
    """First size 32-bit outputs of numpy's Philox per key, as an (m, size) uint64 array.

    numpy increments the 256-bit counter before each block, so the stream's
    blocks encrypt counters (1, 0, 0, 0), (2, 0, 0, 0), ...
    """
    blocks = -(-size // _DRAWS_PER_BLOCK)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros((1, blocks), dtype=np.uint64)
    k0, k1 = key0[:, None], key1[:, None]
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    block = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)
    halves = np.stack([block & np.uint64(_MASK32), block >> np.uint64(32)], axis=-1)
    return halves.reshape(key0.size, blocks * _DRAWS_PER_BLOCK)[:, :size]
