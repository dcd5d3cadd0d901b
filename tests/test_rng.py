from __future__ import annotations

import itertools

import numpy as np
import pytest

from dagswarm import RngFactory
from dagswarm.rng import _PURPOSES

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130)
PREFIXES = ((), (0,), (7, 2**33))
COUNTS = (1, 2, 64, 257)


def assert_same_stream(got: np.random.Generator, want: np.random.Generator, label) -> None:
    assert got.bit_generator.state == want.bit_generator.state, label
    assert np.array_equal(got.random(5), want.random(5)), label


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_match_stream_for_every_purpose_prefix_and_count(seed):
    factory = RngFactory(seed)
    for purpose, prefix, count in itertools.product(_PURPOSES, PREFIXES, COUNTS):
        got = factory.streams(purpose, *prefix, count=count)
        assert len(got) == count
        # The first, second, middle and last stream; every index is checked below.
        for i in sorted({0, 1, count // 2, count - 1} & set(range(count))):
            assert_same_stream(got[i], factory.stream(purpose, *prefix, i), (purpose, prefix, count, i))


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_match_stream_at_every_index(seed):
    factory = RngFactory(seed)
    for prefix, count in itertools.product(PREFIXES, (64, 257)):
        for i, got in enumerate(factory.streams("decode", *prefix, count=count)):
            assert_same_stream(got, factory.stream("decode", *prefix, i), (prefix, count, i))


def test_streams_of_count_zero_are_empty():
    assert RngFactory(3).streams("decode", 4, count=0) == []


def test_streams_validation():
    with pytest.raises(ValueError, match="unknown rng purpose"):
        RngFactory(0).streams("bogus", 0, count=2)
    with pytest.raises(ValueError):
        RngFactory(0).streams("decode", -1, count=2)
    with pytest.raises(ValueError):
        RngFactory(0).streams("decode", 3, -2, count=2)


def test_drawing_from_one_stream_leaves_the_others_unchanged():
    streams = RngFactory(5).streams("decode", 2, count=4)
    states = [g.bit_generator.state for g in streams]
    streams[1].random(10)
    assert [g.bit_generator.state for i, g in enumerate(streams) if i != 1] == states[:1] + states[2:]
    assert streams[1].bit_generator.state != states[1]
