import numpy as np
import pytest

from tailcast.rng import RngStream, as_generator


def test_same_seed_same_stream_reproduces():
    a = RngStream(123, 4).generator().standard_normal(8)
    b = RngStream(123, 4).generator().standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_different_streams_differ():
    a = RngStream(123, 0).generator().standard_normal(8)
    b = RngStream(123, 1).generator().standard_normal(8)
    assert not np.array_equal(a, b)


def test_generator_path_keys_independent_substreams():
    s = RngStream(7, 2)
    a = s.generator(0).standard_normal(4)
    b = s.generator(1).standard_normal(4)
    c = s.generator(0).standard_normal(4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(2**64, 0)


def test_as_generator_accepts_stream_generator_int():
    g = RngStream(5, 1).generator()
    assert as_generator(g) is g
    a = as_generator(RngStream(5, 0)).standard_normal(3)
    b = as_generator(5).standard_normal(3)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(TypeError):
        as_generator(None)
