"""Deterministic random-stream management.

One 64-bit run seed fans out into named substreams so that, e.g., adding an
extra draw during clustering cannot shift the noise used by training.
Stream names are hashed into the numpy SeedSequence spawn key.
"""

import hashlib

import numpy as np

from .errors import ConfigError


def _name_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, name: str) -> np.random.Generator:
    """Return a PCG64 generator for the named substream of ``seed``."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_name_key(name),))
    return np.random.Generator(np.random.PCG64(ss))

