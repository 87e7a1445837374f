"""Deterministic derivation of RNG streams from one master seed.

All randomness in an experiment flows from a single integer seed.  Child
streams are addressed by a label path, e.g. ``rng_for(seed, "design",
"uniform_0_2", "null", "rep", 17)``.  String labels are hashed with SHA-256
so the derivation does not depend on the platform or on Python's hash
randomization; results are therefore reproducible across runs, machines and
worker counts.

The stream of (master, *labels) is the one numpy derives from
``SeedSequence([master, *encoded labels])``: every label becomes a 64-bit
integer, which numpy splits into little-endian 32-bit words (one word when
it is below 2**32), and the words of all labels, in order, are the
entropy.  Replications differ in their last label only, so the words of
everything before it are cached per label path and the last label's words
are appended: a stream costs one SeedSequence and one PCG64, not a fresh
coercion of the whole path.  A path is identified by its words, so
(..., 2**32) and (..., 0, 1) address one stream.  The package derives paths
of two shapes, ("design", design id, variant, "rep", i) for the draws of a
replication and ("bootstrap", b) for a bootstrap replicate of ``dfgof
test``.  Each shape is fixed and the two differ in their first label, so
no two of them meet that way.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


@lru_cache(maxsize=256)
def _hash_label(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def _encode(label) -> int:
    if isinstance(label, int) or isinstance(label, np.integer):  # the plain int check is the cheap one
        return int(label) & _MASK64
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


def seed_sequence(master: int, *labels) -> np.random.SeedSequence:
    """SeedSequence for the stream addressed by (master, *labels)."""
    *path, last = (master,) + labels
    words = _prefix(*path) + _words(last)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def rng_for(master: int, *labels) -> np.random.Generator:
    """Fresh generator for the stream addressed by (master, *labels)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(master, *labels)))
