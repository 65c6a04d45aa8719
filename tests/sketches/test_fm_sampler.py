"""Differential lock on the fast FM sampler.

The fast sampler reads every repetition's geometric index out of one
``getrandbits`` draw with a branch-free spread-and-carry computation.
The oracle below is the straightforward reading it replaced: one loop
step per repetition, taking the length of the run of ones at the bottom
of that repetition's ``num_bits - 1`` chunk.  Both must produce the same
packed sketch and leave the RNG in the same state, for every shape --
including one-bit vectors, which draw nothing.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.fm import FMSketch, _sample_packed_element, sampling_mode


def _oracle_element(rng, repetitions, num_bits):
    """The per-repetition loop reading of one fast-mode element."""
    chunk = num_bits - 1
    if chunk == 0:
        packed = 0
        for rep in range(repetitions):
            packed |= 1 << (rep * num_bits)
        return packed
    draw = rng.getrandbits(repetitions * chunk)
    mask = (1 << chunk) - 1
    packed = 0
    for rep in range(repetitions):
        bits = (draw >> (rep * chunk)) & mask
        # ``~bits & (bits + 1)`` isolates the chunk's lowest zero bit.
        index = (~bits & (bits + 1)).bit_length() - 1
        packed |= 1 << (rep * num_bits + index)
    return packed


def _oracle_value(rng, value, repetitions, num_bits):
    packed = 0
    for _ in range(value):
        packed |= _oracle_element(rng, repetitions, num_bits)
    return packed


shapes = st.tuples(st.integers(min_value=1, max_value=128),
                   st.integers(min_value=1, max_value=64))


@settings(max_examples=300, deadline=None)
@given(shape=shapes, seed=st.integers(min_value=0, max_value=2**32 - 1),
       draws=st.integers(min_value=1, max_value=4))
def test_packed_element_matches_oracle(shape, seed, draws):
    repetitions, num_bits = shape
    fast, oracle = random.Random(seed), random.Random(seed)
    with sampling_mode("fast"):
        for _ in range(draws):
            assert (_sample_packed_element(fast, repetitions, num_bits)
                    == _oracle_element(oracle, repetitions, num_bits))
    assert fast.getstate() == oracle.getstate()


@settings(max_examples=200, deadline=None)
@given(shape=shapes, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_for_new_element_matches_oracle(shape, seed):
    repetitions, num_bits = shape
    fast, oracle = random.Random(seed), random.Random(seed)
    with sampling_mode("fast"):
        sketch = FMSketch.for_new_element(repetitions, fast,
                                          num_bits=num_bits)
    assert sketch.packed == _oracle_element(oracle, repetitions, num_bits)
    assert fast.getstate() == oracle.getstate()


@settings(max_examples=150, deadline=None)
@given(shape=shapes, seed=st.integers(min_value=0, max_value=2**32 - 1),
       value=st.integers(min_value=0, max_value=12))
def test_for_value_matches_oracle(shape, seed, value):
    repetitions, num_bits = shape
    fast, oracle = random.Random(seed), random.Random(seed)
    with sampling_mode("fast"):
        sketch = FMSketch.for_value(value, repetitions, fast,
                                    num_bits=num_bits)
    assert sketch.packed == _oracle_value(oracle, value, repetitions,
                                          num_bits)
    assert fast.getstate() == oracle.getstate()


def test_one_bit_vectors_draw_nothing():
    rng = random.Random(3)
    before = rng.getstate()
    with sampling_mode("fast"):
        assert _sample_packed_element(rng, 5, 1) == 0b11111
    assert rng.getstate() == before
