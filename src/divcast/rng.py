"""Reproducible random-stream derivation.

Every random draw in the package flows from a single experiment seed through
named substreams, so results are bit-identical regardless of evaluation order
or worker count.  A substream is identified by ``(seed, role, index)`` where
``role`` is a short string ("truth", "filter", "grid", ...) hashed with CRC32.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, role: str, index: int = 0) -> np.random.Generator:
    """Return an independent generator for the given (seed, role, index)."""
    if seed < 0 or index < 0:
        raise ValueError("seed and index must be non-negative")
    key = zlib.crc32(role.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), key, int(index)]))
