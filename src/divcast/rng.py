"""Reproducible random-stream derivation.

Every random draw in the package flows from a single experiment seed through
named substreams, so results are bit-identical regardless of evaluation order
or worker count.  A substream is identified by ``(seed, role, index)`` where
``role`` is a short string ("truth", "filter", "grid", ...) hashed with CRC32.

The particle kernels draw for a block of P points, one Generator per point;
a single run is the block with P = 1.  One Generator object held by several
points of a block is one stream state shared by them: the kernels draw from
it once and hand every holder the same numbers, which are what each of
those points would draw alone.  A draw that only some holders make must
first move them to their own copy (split_streams).  standard_normal writes
into a caller's buffer when given one, so the filter draws its noise into
per-block scratch.
"""

from __future__ import annotations

import copy
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


def distinct_streams(
    rngs: Sequence[np.random.Generator],
) -> tuple[list[np.random.Generator], np.ndarray | None]:
    """A block's distinct Generators in first-use order, and each point's
    index among them (None when every point holds its own)."""
    uniq = list(dict.fromkeys(rngs))
    if len(uniq) == len(rngs):
        return uniq, None
    where = {g: i for i, g in enumerate(uniq)}
    return uniq, np.array([where[g] for g in rngs])


def split_streams(rngs: Sequence[np.random.Generator], mask: np.ndarray) -> list[np.random.Generator]:
    """Per-point Generators before a draw only the points of mask make: a
    Generator held by points both inside and outside the mask is replaced,
    for the points inside, by one copy shared among them.  No state
    advances."""
    inside = {g for g, m in zip(rngs, mask) if m}
    mixed = inside.intersection(g for g, m in zip(rngs, mask) if not m)
    copies = {g: copy.deepcopy(g) for g in mixed}
    return [copies[g] if m and g in copies else g for g, m in zip(rngs, mask)]


def standard_normal(
    rngs: Sequence[np.random.Generator], shape: tuple[int, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """Standard normals of a (P, ...) block: each point's slab from that
    point's Generator, exactly as it would be drawn for that point alone.
    Points holding one Generator share one slab, drawn once into the first
    holder's slab and copied to the others.  The block is written into out
    (a C-contiguous float array of that shape) when given, so a caller's
    scratch buffer takes the draws and nothing of the block's size is
    allocated."""
    if len(rngs) != shape[0]:
        raise InputError("need one Generator per point")
    out = np.empty(shape) if out is None else out
    first: dict[np.random.Generator, int] = {}
    for p, g in enumerate(rngs):
        if g in first:
            out[p] = out[first[g]]
        else:
            first[g] = p
            g.standard_normal(out=out[p])
    return out
