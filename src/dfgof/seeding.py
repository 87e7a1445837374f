"""Deterministic derivation of RNG streams from one master seed.

All randomness in an experiment flows from a single integer seed.  Child
streams are addressed by a label path, e.g. (seed, "design",
"uniform_0_2", "null", "rep", 17).  String labels are hashed with SHA-256
so the derivation does not depend on the platform or on Python's hash
randomization; results are therefore reproducible across runs, machines and
worker counts.

The stream of (master, *labels) is the one numpy derives from
``SeedSequence([master, *encoded labels])``: every label becomes a 64-bit
integer (an int outside [0, 2**64) raises ValueError, so no two ints
address one stream; ``check_seed`` makes such a master seed a usage
error), which numpy splits into little-endian 32-bit words (one word when
it is below 2**32), and the words of all labels, in order, are the
entropy.  A path is identified by its words, so (..., 2**32) and
(..., 0, 1) address one stream.  The package derives paths of two shapes,
("design", design id, variant, "rep", i) for the draws of a replication
and ("bootstrap", b) for a bootstrap replicate of ``dfgof test``.  Each
shape is fixed and the two differ in their first label, so no two of them
meet that way.

Replications differ in their last label only, so streams are made a block
at a time: ``rngs_for(master, *labels, indices=range(a, b))`` gives the
generators of (master, *labels, i) for every i of the range.  numpy's
SeedSequence mixes the words of the label path into its entropy pool once
per path, and the pool is cached.  The last label's word is then mixed
into that pool, and the pools are expanded into the PCG64 states, once for
the whole block over a (B, 4) array of 32-bit words with numpy's published
SeedSequence constants, where numpy would build a SeedSequence and run its
Python-level ``generate_state`` per stream.  When a block's last labels
are not all one word past the pool fill (a label of 2**32 or more, or the
("bootstrap",) path under a master below 2**32, whose words do not fill
the pool), numpy's SeedSequence mixes the pool of each stream instead.
Each PCG64 then takes its precomputed state through
``_state_words.StateWords``, so every generator is bit-identical to
``np.random.default_rng(np.random.SeedSequence(entropy))``.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy's SeedSequence (numpy/random/bit_generator.pyx) keeps a pool of 4
# words.  Its entropy mix hashes one word per call, with the constants
# INIT_A * MULT_A**c (mod 2**32) for the c-th call, and mixes the hashed
# words into the pool words; its state expansion cycles the pool and hashes
# state word k with INIT_B * MULT_B**k
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64 draws its state as 4 64-bit words, that is 8 32-bit words
_STATE_WORDS = 8
_STATE_SOURCE = np.arange(_STATE_WORDS) % _POOL


def _hash_consts(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = first, ..., first + count."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + count + 1)], dtype=np.uint32)


_STATE_HASH = _hash_consts(_INIT_B, _MULT_B, 0, _STATE_WORDS)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's hashmix of values[..., j] with the hash constant consts[j]
    (the one after it multiplies)."""
    hashed = (values ^ consts[:-1]) * consts[1:]
    return hashed ^ (hashed >> _XSHIFT)


def _absorb(pool: np.ndarray, words: np.ndarray, position: int) -> np.ndarray:
    """numpy's mix of the (B,) entropy words at ``position``, past the pool
    fill, into a (1, 4) pool: the (B, 4) pools of the B entropies."""
    # 4 hash calls fill the pool, 12 mix it, and each later word takes 4
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * (position - _POOL), _POOL)
    mixed = _MIX_L * pool - _MIX_R * _hashmix(words[:, None], consts)
    return mixed ^ (mixed >> _XSHIFT)


def _expand(pool: np.ndarray) -> np.ndarray:
    """The (B, 4) uint64 states ``generate_state(4, np.uint64)`` gives for
    each (B, 4) pool."""
    state = _hashmix(pool[:, _STATE_SOURCE], _STATE_HASH)
    # numpy reads the 32-bit words as little-endian pairs, whatever the platform
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


@lru_cache(maxsize=256)
def _hash_label(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def _encode(label) -> int:
    if isinstance(label, int) or isinstance(label, np.integer):  # the plain int check is the cheap one
        value = int(label)
        if not 0 <= value <= _MASK64:
            raise ValueError(f"an integer label must lie in [0, 2**64), got {value}")
        return value
    if isinstance(label, str):
        return _hash_label(label)
    raise TypeError(f"cannot derive a seed from {type(label).__name__!r}")


def _words(label) -> tuple[int, ...]:
    """The little-endian 32-bit words numpy's SeedSequence makes of the
    encoded label: (0,) for 0, else as many words as the value needs."""
    value = _encode(label)
    if value <= _MASK32:
        return (value,)
    return (value & _MASK32, value >> 32)


@lru_cache(maxsize=256, typed=True)
def _prefix(*path) -> tuple[int, ...]:
    """Entropy words of a label path, the master seed first."""
    return tuple(word for label in path for word in _words(label))


def _generators(pools) -> list[np.random.Generator]:
    """Generators of the streams of B entropy pools."""
    states = _expand(np.asarray(pools, dtype=np.uint32).reshape(-1, _POOL))
    from ._state_words import StateWords  # loads numpy.random on the first stream only

    return [np.random.Generator(np.random.PCG64(StateWords(state))) for state in states]


def check_seed(seed: int) -> None:
    """Refuse a master seed outside [0, 2**64), the integer labels that
    address a stream, with a usage error."""
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed}")


def seed_sequence(master: int, *labels) -> np.random.SeedSequence:
    """SeedSequence for the stream addressed by (master, *labels)."""
    *path, last = (master,) + labels
    words = _prefix(*path) + _words(last)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


@lru_cache(maxsize=256, typed=True)
def _path_pool(*path) -> np.ndarray:
    """numpy's (1, 4) entropy pool after the words of a label path."""
    pool = seed_sequence(*path).pool[None, :]
    pool.flags.writeable = False  # one cached array serves every block
    return pool


def rngs_for(master: int, *labels, indices: range) -> list[np.random.Generator]:
    """Fresh generators for the streams addressed by (master, *labels, i),
    one for each i in ``indices``, in order: each is the generator
    ``np.random.default_rng(seed_sequence(master, *labels, i))``."""
    path = (master,) + labels
    position = len(_prefix(*path))
    values = [_encode(i) for i in indices]
    if position >= _POOL and all(value <= _MASK32 for value in values):
        # every last label is one word past the pool fill
        pools = _absorb(_path_pool(*path), np.array(values, dtype=np.uint32), position)
    else:
        pools = [seed_sequence(*path, i).pool for i in indices]
    return _generators(pools)

