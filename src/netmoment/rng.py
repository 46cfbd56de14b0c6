"""Deterministic random streams derived from (master seed, context keys).

Every stochastic component owns a generator spawned from the master seed plus
a stable context key (replicate index, network id, ...). String keys go
through sha256 so the derivation does not depend on Python's randomized
hash(), and integer keys feed SeedSequence directly. Two streams with
different keys are independent; the same key always reproduces the same
stream, regardless of the order streams are created in.

`spawn_streams` walks many such streams, `(master seed, *prefix, key)` for
each key of a list, in turn. It runs numpy's SeedSequence and PCG64 seeding
as array arithmetic over all the keys and sets one reused PCG64 to each
stream's state, instead of building a SeedSequence, a PCG64 and a Generator
for every stream: the CDF and coverage runners draw each replicate group
through it, and `spawn_normals` takes the first standard normal of every
stream for a store query's smoothing draws.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _key_words(key) -> list[int]:
    if isinstance(key, (int, np.integer)):
        return [int(key) & 0xFFFFFFFF, (int(key) >> 32) & 0xFFFFFFFF]
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    raise TypeError(f"unsupported rng key type {type(key)!r}")


def spawn_rng(master_seed: int, *keys) -> np.random.Generator:
    """Generator for the stream identified by (master_seed, *keys)."""
    entropy = [int(master_seed) & _MASK64]
    for key in keys:
        entropy.extend(_key_words(key))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's words of one entropy int: little-endian, [0] for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_sequence_states(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(4, np.uint64)` for each row of a
    (K, L) uint32 entropy array, as uint32 array arithmetic (wrapping, as
    numpy's uint32_t does): hashmix each word into a pool of four, mix the
    pool, mix in the words past the pool, then hash the pool out to eight
    words read as four little-endian uint64."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    width = entropy.shape[1]
    zero = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, width):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    hash_const = _INIT_B
    words = np.empty((len(entropy), 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words[:, i] = value ^ (value >> np.uint32(16))
    return words.astype("<u4").view("<u8")


def _key_block(keys: list) -> np.ndarray:
    """The entropy words of each key, one row per key, as `_key_words` gives
    them: the first 16 bytes of a string's sha256, an int's two low words."""
    if all(isinstance(key, str) for key in keys):
        digests = b"".join(hashlib.sha256(key.encode("utf-8")).digest() for key in keys)
        return np.frombuffer(digests, dtype="<u4").reshape(-1, 8)[:, :4]
    return np.array([_key_words(key) for key in keys], dtype=np.uint32).reshape(len(keys), -1)


def spawn_streams(master_seed: int, prefix: tuple, keys: list):
    """An iterator that gives, for each key in turn, a generator at the start
    of the stream `spawn_rng(master_seed, *prefix, key)`.

    It is one reused Generator, reset to each stream's state as the iterator
    advances: draw from it before taking the next, and do not keep it. Every
    state is computed here, at the call. The keys must all be strings
    or all be ints, so that their entropy has one width. Bit for bit, this
    is numpy's own seeding path: SeedSequence's hashmix/mix pool over the
    stream's uint32 entropy words, `generate_state(4, uint64)`, then PCG64's
    `srandom` step, which takes the first two words as the 128-bit initial
    state s and the last two as the stream i, and sets inc = 2 i + 1 and
    state = (inc + s) * MULT + inc (mod 2^128; O'Neill 2014). The pool runs
    as array arithmetic over all keys. A numpy that changes either step
    fails `tests/test_rng.py`.
    """
    prefix_words = _uint32_words(int(master_seed) & _MASK64) + [
        word for key in prefix for word in _key_words(key)]
    block = _key_block(keys)
    entropy = np.empty((len(keys), len(prefix_words) + block.shape[1]), dtype=np.uint32)
    entropy[:, :len(prefix_words)] = prefix_words
    entropy[:, len(prefix_words):] = block
    return _each_state(_seed_sequence_states(entropy).tolist())


def _each_state(states: list):
    """One reused generator, set to each SeedSequence state in turn."""
    bit_gen = np.random.PCG64()
    gen = np.random.Generator(bit_gen)
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, i_hi, i_lo in states:
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        pcg["inc"] = inc
        bit_gen.state = full
        yield gen


def spawn_normals(master_seed: int, key, ids: list[str]) -> np.ndarray:
    """`spawn_rng(master_seed, key, id).standard_normal()` for every id, at once."""
    streams = spawn_streams(master_seed, (key,), ids)
    return np.fromiter((gen.standard_normal() for gen in streams), np.float64, len(ids))
