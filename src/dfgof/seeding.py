"""Deterministic derivation of RNG streams from one master seed.

All randomness in an experiment flows from a single integer seed.  Child
streams are addressed by a label path, e.g. ``rng_for(seed, "design",
"uniform_0_2", "rep", 17)``.  String labels are hashed with SHA-256 so the
derivation does not depend on the platform or on Python's hash
randomization; results are therefore reproducible across runs, machines and
worker counts.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1


@lru_cache(maxsize=256)
def _hash_label(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def _encode(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    if isinstance(label, str):
        return _hash_label(label)
    raise TypeError(f"cannot derive a seed from {type(label).__name__!r}")


def seed_sequence(master: int, *labels) -> np.random.SeedSequence:
    """SeedSequence for the stream addressed by (master, *labels)."""
    entropy = [_encode(master)] + [_encode(lab) for lab in labels]
    return np.random.SeedSequence(entropy)


def rng_for(master: int, *labels) -> np.random.Generator:
    """Fresh generator for the stream addressed by (master, *labels)."""
    return np.random.default_rng(seed_sequence(master, *labels))
