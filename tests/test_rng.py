import numpy as np
import pytest

from tailcast.errors import DomainError
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


@pytest.mark.parametrize("args, key", [((2.5,), "seed"), ((True,), "seed"), ((0, 2.5), "stream"),
                                       ((-1,), "seed"), ((0, 2**64), "stream")])
def test_seed_and_stream_must_be_64_bit_integers(args, key):
    """A float or bool is refused, not truncated to another seed's stream,
    and every refusal names its field."""
    with pytest.raises(DomainError, match=key) as e:
        RngStream(*args)
    assert e.value.key == key


def test_numpy_integer_seed_stored_as_int_with_the_same_stream():
    s = RngStream(np.uint64(2**64 - 1), np.int64(3))
    assert type(s.seed) is int and type(s.stream) is int
    a = s.generator().standard_normal(4)
    np.testing.assert_array_equal(a, RngStream(2**64 - 1, 3).generator().standard_normal(4))


def test_as_generator_accepts_stream_generator_int():
    g = RngStream(5, 1).generator()
    assert as_generator(g) is g
    a = as_generator(RngStream(5, 0)).standard_normal(3)
    b = as_generator(5).standard_normal(3)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(TypeError):
        as_generator(None)
