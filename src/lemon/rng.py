"""Deterministic, counter-based random substreams.

All randomness in the expansion pipeline flows through :func:`substream`.
A substream is a numpy ``Generator`` backed by the Philox counter-based
bit generator, keyed by ``(seed, fnv1a64(tag string))``.  Substreams for
distinct tags are independent, and a given ``(seed, tags)`` pair always
yields the same stream, so per-block work can run serially or in
parallel with identical results.

Tests may rely on determinism given a seed, never on specific stream
values.
"""

from __future__ import annotations

import numpy as np

from .errors import PlanError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of ``text`` (stable across runs and platforms)."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def check_seed(seed: int) -> int:
    """``seed``, or :class:`PlanError` if it does not fit in 64 unsigned
    bits: :func:`substream` keys on the seed modulo 2**64, so such a seed
    would silently act as another one."""
    if seed < 0 or seed > _MASK64:
        raise PlanError("seed must fit in 64 unsigned bits")
    return seed


def substream(seed: int, *tags: object) -> np.random.Generator:
    """Return the deterministic generator for ``(seed, tags)``.

    ``tags`` are joined with ``/`` after ``str()`` conversion; e.g.
    ``substream(seed, "block", 3, "mlp")``.
    """
    key = np.array([seed & _MASK64, fnv1a64("/".join(str(t) for t in tags))],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
