"""Deterministic RNG derivation.

Every random draw in the package flows from numpy SeedSequence keyed on a
root seed plus a string path, so any episode, parameter init, or eval stream
can be regenerated in isolation (and in parallel) without shared state.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError


def entropy_word(part) -> int:
    """The SeedSequence entropy word of one seed part. Strings hash via
    crc32. Integers (Python or numpy, not bool) must lie in [0, 2**32),
    one entropy word each: masked into that range, seed 2**32 would draw
    the stream of seed 0, and truncated, seed 1.5 or True would draw the
    stream of seed 1."""
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if not isinstance(part, (int, np.integer)) or isinstance(part, bool):
        raise ConfigError("seed part %r is not an integer or a string" % (part,))
    if not 0 <= part < 2 ** 32:
        raise ConfigError("seed part %d is outside [0, 2**32)" % part)
    return int(part)


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Child generator for (seed, path...), one `entropy_word` per part.
    SeedSequence takes the words as a uint32 array, the entropy it would
    make of them as a list, at half the cost."""
    entropy = [entropy_word(part) for part in (seed, *path)]
    return np.random.default_rng(
        np.random.SeedSequence(np.array(entropy, dtype=np.uint32)))


def derive_seed(seed: int, *path) -> int:
    """Collapse a derived stream to one 31-bit integer seed."""
    return int(derive_rng(seed, *path).integers(2 ** 31))
