"""Seedable, splittable random number streams.

Contract: every Monte Carlo sample is replayable from a ``SeedRecord``.
Streams are numpy PCG64 generators keyed by
``SeedSequence(entropy=seed, spawn_key=(stream,))``, which numpy documents
as the mechanism for statistically independent, order-independent streams.
The bit stream for a fixed (seed, stream) pair is stable across releases
of this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SeedRecord:
    """Identifies one reproducible random stream."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, stream: int) -> "SeedRecord":
        """Derive a disjoint sub-stream; children of distinct streams never collide."""
        return SeedRecord(seed=self.seed, stream=(self.stream << 20) ^ stream)

    def as_dict(self) -> dict:
        return {"seed": self.seed, "stream": self.stream}


# SplitMix64-style stateless site hashing: used by lazy disorder fields so a
# site's value depends only on (seed, coordinates), never on read order.

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_START = np.uint64(0x8E51_2FB0_4C5A_11D7)


def hash_mix(*parts: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Mix integer arrays into uniform uint64 words, vectorized.

    The parts fold left to right from the state `h` (a fixed constant when
    omitted), so ``hash_mix(*a, *b)`` equals ``hash_mix(*b, h=hash_mix(*a))``
    bit for bit: a prefix shared by many sites is hashed once.
    """
    if h is None:
        h = _START
    with np.errstate(over="ignore"):
        for p in parts:
            p = np.asarray(p).astype(np.int64, copy=False).view(np.uint64)
            # uint64 adds wrap, so summing h's terms first keeps the bits
            t = p + (_GOLDEN + (h << np.uint64(6)) + (h >> np.uint64(2)))
            t ^= h
            t ^= t >> np.uint64(30)
            t *= _M1
            t ^= t >> np.uint64(27)
            t *= _M2
            t ^= t >> np.uint64(31)
            h = t
    return h


def word_uniform(h: np.ndarray) -> np.ndarray:
    """Uniform(0,1) doubles from hash words (their top 53 bits)."""
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
