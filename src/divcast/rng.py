"""Reproducible random-stream derivation.

Every random draw in the package flows from a single experiment seed through
named substreams, so results are bit-identical regardless of evaluation order
or worker count.  A substream is identified by ``(seed, role, index)`` where
``role`` is a short string ("truth", "filter", "grid", ...) hashed with CRC32.

The particle kernels draw for a block of P points, one Generator per point;
a single run is the block with P = 1.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence

import numpy as np

from .core import InputError


def substream(seed: int, role: str, index: int = 0) -> np.random.Generator:
    """Return an independent generator for the given (seed, role, index)."""
    if seed < 0 or index < 0:
        raise ValueError("seed and index must be non-negative")
    key = zlib.crc32(role.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), key, int(index)]))


def standard_normal(rngs: Sequence[np.random.Generator], shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals of a (P, ...) block: each point's slab from that
    point's own Generator, exactly as it would be drawn for that point alone."""
    if len(rngs) != shape[0]:
        raise InputError("need one Generator per point")
    out = np.empty(shape)
    for g, slab in zip(rngs, out):
        g.standard_normal(out=slab)
    return out
