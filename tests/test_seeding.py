"""Derived RNG streams: stable, path-sensitive, independent."""

import numpy as np
import pytest

from protoseg.errors import ConfigError
from protoseg.seeding import derive_rng, derive_seed


def test_same_path_same_stream():
    a = derive_rng(7, "train", 3).random(8)
    b = derive_rng(7, "train", 3).random(8)
    assert np.array_equal(a, b)


def test_different_paths_differ():
    base = derive_rng(7, "train", 3).random(8)
    assert not np.array_equal(base, derive_rng(7, "train", 4).random(8))
    assert not np.array_equal(base, derive_rng(7, "eval", 3).random(8))
    assert not np.array_equal(base, derive_rng(8, "train", 3).random(8))


def test_string_and_int_components_mix():
    a = derive_rng(0, "init", "encoder.block0", 2).random(4)
    b = derive_rng(0, "init", "encoder.block1", 2).random(4)
    assert not np.array_equal(a, b)


def test_derive_seed_range_and_stability():
    s = derive_seed(123, "eval", 9)
    assert s == derive_seed(123, "eval", 9)
    assert 0 <= s < 2 ** 31
    assert derive_seed(123, "eval", 10) != s


@pytest.mark.parametrize("parts", ((2 ** 32,), (-1,), (0, "train", 2 ** 32),
                                   (7, "eval", -1)))
def test_integer_part_outside_32_bits_is_refused(parts):
    # Masked to 32 bits, seed 2**32 would draw the stream of seed 0.
    with pytest.raises(ConfigError, match=r"outside \[0, 2\*\*32\)"):
        derive_rng(*parts)


def test_32_bit_bounds_are_accepted():
    derive_rng(0, "train", 2 ** 32 - 1)
    assert derive_seed(2 ** 32 - 1) != derive_seed(0)
