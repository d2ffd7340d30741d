"""Seeded, splittable random streams.

Every sampling routine in the package takes an explicit ``rng`` argument: an
int seed or a ``numpy.random.Generator``.  Seeds are expanded through the
counter-based Philox generator; ``make_rng(seed, stream)`` gives
independent streams of one seed without coordination.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "as_rng"]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, stream)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def as_rng(rng) -> np.random.Generator:
    """Accept an int seed (a bool is none) or a Generator; ints map through make_rng."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return make_rng(int(rng))
    raise TypeError(f"rng must be an int seed or numpy Generator, got {type(rng)!r}")
