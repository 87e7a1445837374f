import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dfgof._state_words import StateWords
from dfgof.seeding import rngs_for, seed_sequence


def _encoded(label) -> int:
    if isinstance(label, str):
        return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")
    return label


def _one_stream(master, *labels):
    """The generator of (master, *labels), an int last, from a one-index range."""
    *prefix, last = labels
    return rngs_for(master, *prefix, indices=range(last, last + 1))[0]


# ints at the 32- and 64-bit word edges, and hashed strings
PATHS = [
    (0,),
    (2**32 - 1,),
    (2**32,),
    (2**64 - 1,),
    ("anchors",),
    ("design", "uniform_0_2", "null", "rep", 0),
    ("design", "beta_dep_a", "alt", "rep", 2**32),
    ("bootstrap", 2**64 - 1),
    (2**32, "x", 0, 2**32 - 1, "y"),
]


@pytest.mark.parametrize("master", [0, 7, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("labels", PATHS)
def test_streams_are_numpys_seed_sequence_of_the_encoded_path(master, labels):
    entropy = [_encoded(master)] + [_encoded(label) for label in labels]
    reference = np.random.SeedSequence(entropy)
    assert np.array_equal(seed_sequence(master, *labels).generate_state(8), reference.generate_state(8))
    if isinstance(labels[-1], int):
        assert np.array_equal(_one_stream(master, *labels).random(16), np.random.default_rng(reference).random(16))


def _reference(entropy):
    return np.random.default_rng(np.random.SeedSequence([_encoded(label) for label in entropy]))


# the two label paths the package derives, under both variant tags; the
# ("bootstrap",) path has fewer than 4 entropy words under a master below
# 2**32, so its last label lands inside numpy's pool fill
BLOCK_PATHS = [("design", design, variant, "rep") for design in ("uniform_0_2", "beta_dep_a") for variant in ("null", "alt")]
BLOCK_PATHS.append(("bootstrap",))


@given(
    master=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]),
    labels=st.sampled_from(BLOCK_PATHS),
    start=st.sampled_from([0, 3 * 64, 2**32 - 40, 2**64 - 64]),
    size=st.integers(1, 64),
)
@example(master=0, labels=("bootstrap",), start=0, size=64)  # a whole first block
@example(master=2**32, labels=BLOCK_PATHS[0], start=3 * 64, size=17)  # a last partial block
@example(master=2**32 - 1, labels=BLOCK_PATHS[-2], start=2**32 - 40, size=64)  # one and two words
@example(master=0, labels=("bootstrap",), start=2**32 - 40, size=64)
def test_block_streams_are_numpys_seed_sequences(master, labels, start, size):
    indices = range(start, start + size)
    generators = rngs_for(master, *labels, indices=indices)
    assert len(generators) == size
    for i, rng in zip(indices, generators):
        reference = _reference((master, *labels, i))
        assert rng.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(rng.random(16), reference.random(16))


@pytest.mark.parametrize("indices", [range(0), range(5, 0, -3), range(2**64 - 3, 2**64)])
def test_block_streams_of_any_range_are_those_of_one_stream_ranges(indices):
    generators = rngs_for(7, "a", indices=indices)
    assert [rng.random() for rng in generators] == [_one_stream(7, "a", i).random() for i in indices]


@pytest.mark.parametrize("indices", [range(5, -5, -3), range(2**64 - 2, 2**64 + 2), range(-1, 0)])
def test_block_ranges_outside_64_bits_are_refused(indices):
    # one int label addresses one stream: -1 and 2**64 would alias
    # 2**64 - 1 and 0
    with pytest.raises(ValueError, match=r"integer label must lie in \[0, 2\*\*64\)"):
        rngs_for(7, "a", indices=indices)


@pytest.mark.parametrize("label", [-1, 2**64, np.int64(-3), -(2**70)])
def test_int_labels_outside_64_bits_are_refused(label):
    with pytest.raises(ValueError, match="integer label must lie in"):
        seed_sequence(3, label)
    with pytest.raises(ValueError, match="integer label must lie in"):
        seed_sequence(label)
    with pytest.raises(ValueError, match="integer label must lie in"):
        rngs_for(label, "bootstrap", indices=range(0, 3))
    with pytest.raises(ValueError, match="integer label must lie in"):
        rngs_for(3, label, "x", indices=range(0, 3))


def test_state_words_serve_pcg64_alone():
    words = np.zeros(4, dtype=np.uint64)
    assert np.random.PCG64(StateWords(words)).state["state"]["state"] >= 0
    with pytest.raises(ValueError, match="4 uint64 state words"):
        np.random.MT19937(StateWords(words))


def test_cached_prefixes_keep_streams_apart():
    # the same last label under different prefixes, and the same prefix
    # with different last labels, all give different streams
    draws = {
        (prefix, last): _one_stream(5, *prefix, last).random()
        for prefix in [("a",), ("b",), ("a", 0), (0, "a")]
        for last in (0, 1, 2**31)
    }
    assert len(set(draws.values())) == len(draws)
    assert _one_stream(5, "a", 1).random() == draws[(("a",), 1)]


def test_a_path_is_its_entropy_words():
    # numpy splits 2**32 into the words (0, 1), so a path ending (0, 1)
    # addresses the same stream; the package's paths have fixed shapes
    assert _one_stream(5, "a", 2**32).random() == _one_stream(5, "a", 0, 1).random()


def test_master_alone_and_numpy_integer_labels():
    assert np.array_equal(seed_sequence(3).generate_state(4), np.random.SeedSequence([3]).generate_state(4))
    assert np.array_equal(
        seed_sequence(3, np.int64(9), np.uint32(4)).generate_state(4), seed_sequence(3, 9, 4).generate_state(4)
    )


@pytest.mark.parametrize("bad", [1.0, None, (1,)])
def test_labels_other_than_ints_and_strings_are_rejected(bad):
    rngs_for(3, 1, indices=range(1, 2))  # an equal int path cached first does not admit the float
    with pytest.raises(TypeError):
        rngs_for(3, bad, indices=range(1, 2))
    with pytest.raises(TypeError):
        seed_sequence(3, 1, bad)
