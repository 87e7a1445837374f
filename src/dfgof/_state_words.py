"""The seed sequence that hands a PCG64 the state words ``seeding``
computed for its stream.

It lives apart from ``seeding`` so that importing the package leaves
``numpy.random`` unloaded: that module loads with the first stream, as it
does for a plain ``np.random`` call.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class StateWords(ISeedSequence):
    """Four uint64 state words, handed to the PCG64 seeded from them."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(f"holds 4 uint64 state words, asked for {n_words} of {dtype!r}")
        return self.words
