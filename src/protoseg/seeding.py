"""Deterministic RNG derivation.

Every random draw in the package flows from numpy SeedSequence keyed on a
root seed plus a string path, so any episode, parameter init, or eval stream
can be regenerated in isolation (and in parallel) without shared state.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Child generator for (seed, path...). Strings hash via crc32. Integers
    must lie in [0, 2**32), one entropy word each: masked into that range,
    seed 2**32 would draw the stream of seed 0."""
    entropy = []
    for part in (seed, *path):
        if isinstance(part, str):
            entropy.append(zlib.crc32(part.encode("utf-8")))
        elif 0 <= int(part) < 2 ** 32:
            entropy.append(int(part))
        else:
            raise ConfigError("seed part %d is outside [0, 2**32)" % part)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *path) -> int:
    """Collapse a derived stream to one 31-bit integer seed."""
    return int(derive_rng(seed, *path).integers(2 ** 31))
