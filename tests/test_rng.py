"""hlmlab._rng against numpy's own generator: the package draws the stream
of np.random.default_rng(seed) without importing numpy.random, so the
oracle here is numpy.random itself, plus a known-answer vector that does
not depend on numpy's stream staying as it is."""

import math

import numpy as np
import pytest

from hlmlab import _rng
from hlmlab._rng import BLOCK as B, Stream

SEEDS = (0, 1, 99, 2**32 + 7, 12345678901234567890)


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_state_is_seedsequences(seed):
    state = np.random.default_rng(seed).bit_generator.state["state"]
    assert _rng.seed_state(seed) == (state["state"], state["inc"])


def test_seed_0_known_answer():
    # the first draws of default_rng(0), recorded from numpy 2.4
    assert _rng.seed_state(0) == (35399562948360463058890781895381311971,
                                  87136372517582989555478159403783844777)
    s = Stream(0)
    assert s.uniform(size=4).tolist() == [0.6369616873214543, 0.2697867137638703,
                                          0.04097352393619469, 0.016527635528529094]
    assert s.integers(0, 1000, 6).tolist() == [175, 813, 649, 912, 503, 606]
    assert s.uniform(-1.0, 1.0) == 0.4589931219679968


@pytest.mark.parametrize("size", [1, B - 1, B, B + 1, 3 * B + 5, (100, 3)])
def test_uniform_across_blocks(size):
    for seed in (3, 2**32 + 7):
        want = np.random.default_rng(seed).uniform(-2.0, 2.0, size)
        got = Stream(seed).uniform(-2.0, 2.0, size)
        assert got.shape == want.shape and got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def test_uniform_continues_the_stream_across_calls():
    # small calls that end inside a block and calls that cross one; the
    # span of the Lipschitz grid's z is not a power of two
    numpy_rng, stream = np.random.default_rng(1), Stream(1)
    for size in (7, B - 10, 3, 25, 2 * B, 1, 4000):
        np.testing.assert_array_equal(stream.uniform(-0.5 + 1e-4, 0.5 - 1e-4, size),
                                      numpy_rng.uniform(-0.5 + 1e-4, 0.5 - 1e-4, size))
        assert stream.uniform() == numpy_rng.uniform()


def test_scalar_integers_interleaved_with_uniform():
    # A7's pattern: the high half of a 64-bit output left by one integer
    # draw is the next integer draw's word, however many doubles between
    numpy_rng, stream = np.random.default_rng(2024), Stream(2024)
    for trial in range(300):
        high = 17 if trial % 3 == 2 else 33
        M = stream.integers(4, high)
        assert M == numpy_rng.integers(4, high)
        np.testing.assert_array_equal(stream.uniform(-1.0, 1.0, M),
                                      numpy_rng.uniform(-1.0, 1.0, M))


@pytest.mark.parametrize("N", [1, 2, 3, 1000, 100000, 3 * 2**30 + 1, 2**32 - 1])
def test_integers_2d(N):
    # N = 3 * 2^30 + 1 rejects a quarter of its words, so the rejections
    # inside one bulk draw are exercised; N = 1 draws nothing; (3, 30000)
    # takes more than one pass of _rng._CHUNK draws
    numpy_rng, stream = np.random.default_rng(N), Stream(N)
    for shape in ((2, 1000), (3, 7), (1, 2 * B + 3), (4, 1), (3, 30000)):
        want = numpy_rng.integers(1, N + 1, size=shape)
        got = stream.integers(1, N + 1, size=shape)
        assert got.shape == want.shape and got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert stream.uniform() == numpy_rng.uniform()
    for _ in range(20):
        assert stream.integers(-5, N - 5) == numpy_rng.integers(-5, N - 5)


def test_integers_stay_in_range_and_reach_both_ends():
    draws = Stream(5).integers(-3, 4, size=10**4)
    assert draws.min() == -3 and draws.max() == 3
    counts = np.bincount(draws + 3)
    expected = draws.size / 7
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 22.5  # 6 degrees of freedom, p = 0.001


def test_refusals():
    with pytest.raises(ValueError):
        Stream(-1)
    with pytest.raises(ValueError):
        np.random.default_rng(-1)  # the oracle refuses it too
    s = Stream(0)
    for low, high in ((0, 2**32), (-1, 2**32 - 1), (0, 2**40), (5, 5), (5, 4)):
        with pytest.raises(ValueError):
            s.integers(low, high)
        with pytest.raises(ValueError):
            s.integers(low, high, size=3)
    # refusals draw nothing
    np.testing.assert_array_equal(s.uniform(size=3), np.random.default_rng(0).uniform(size=3))
    assert math.prod(s.integers(0, 2**32 - 1, size=(2, 2)).shape) == 4
