"""Uniform random regular graphs via the pairing model, and BFS exploration.

A d-regular multigraph is sampled by drawing a uniform perfect matching on
the n*d half-edge points {(v, slot)}, encoded as v * d + slot, and
collapsing the d points below each vertex.  Conditioning on the collapsed
multigraph being simple gives the uniform distribution on simple d-regular
graphs, so ``sample_simple_regular`` rejects until simple; the asymptotic
acceptance rate is exp(-(d^2-1)/4).  A matching is a shuffled point array
whose consecutive points are paired; ``_collapsed_pairs`` turns it into
vertex pairs, for the sampler and for ``frontier_unique_montecarlo`` alike.

The exploration half of the module records, level by level, the ball sizes
|B(S, l)|, frontier sizes |dB(S, l)| and the number of frontier vertices
joined to the previous ball by exactly one edge -- the quantity whose lower
tail ``frontier_unique_bound`` controls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import RegularGraph, bfs_distances
from .rand import as_rng

__all__ = [
    "sample_simple_regular",
    "ExplorationTrace",
    "explore",
    "frontier_unique_bound",
    "frontier_unique_montecarlo",
    "default_max_rejects",
]


def _collapsed_pairs(points: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex pairs (u, v) of a shuffled point array whose points 2i and
    2i + 1 are matched; point p lies below vertex p // d."""
    return points[0::2] // d, points[1::2] // d


def default_max_rejects(d: int) -> int:
    """100x the expected number of rejections, exp((d^2-1)/4)."""
    return math.ceil(100.0 * math.exp((d * d - 1) / 4.0))


def sample_simple_regular(n: int, d: int, rng, max_rejects: int | None = None):
    """Uniform simple d-regular graph by rejection.

    Returns (graph, rejections).  Raises RuntimeError when ``max_rejects``
    straight pairings collapse to non-simple multigraphs (the caller sets the
    compute budget; the default is 100x the expected rejection count).
    """
    if n < d or d < 3:
        raise ValueError(f"need n >= d >= 3, got n={n}, d={d}")
    if (n * d) % 2:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = as_rng(rng)
    if max_rejects is None:
        max_rejects = default_max_rejects(d)
    rejections = 0
    while True:
        edges = _fast_simple_attempt(n, d, rng)
        if edges is not None:
            g = RegularGraph.from_edges(n, edges)
            return g, rejections
        rejections += 1
        if rejections > max_rejects:
            raise RuntimeError(
                f"rejection budget exhausted after {rejections} non-simple "
                f"pairings (n={n}, d={d}); raise max_rejects"
            )


def _fast_simple_attempt(n: int, d: int, rng):
    """One pairing draw; the collapsed edge list if simple, else None."""
    u, v = _collapsed_pairs(rng.permutation(n * d), d)
    if np.any(u == v):  # self-loop; cheap reject before sorting
        return None
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keys = np.sort(lo.astype(np.int64) * n + hi)
    if np.any(keys[1:] == keys[:-1]):  # parallel edge
        return None
    return list(zip((keys // n).tolist(), (keys % n).tolist()))


# -- BFS exploration -----------------------------------------------------------


@dataclass(frozen=True)
class ExplorationTrace:
    """Per-level record of a BFS exploration from a seed set.

    rows[l] = (level, ball_size, frontier_size, unique_size) where
    unique_size counts frontier vertices with exactly one edge into the
    previous ball.
    """

    seed: tuple[int, ...]
    rows: tuple[tuple[int, int, int, int], ...]

    def ball_sizes(self):
        return [r[1] for r in self.rows]

    def frontier_sizes(self):
        return [r[2] for r in self.rows]

    def unique_sizes(self):
        return [r[3] for r in self.rows]


def explore(g: RegularGraph, s, l_max: int) -> ExplorationTrace:
    """Exact exploration statistics of ``g`` from the seed set s up to l_max.

    A vertex at level l has all its neighbours at levels l - 1, l and l + 1,
    so its edges into the previous ball are those to lower levels.
    """
    s = sorted(set(s))
    if not s:
        raise ValueError("seed set must be nonempty")
    dd = bfs_distances(g, s)
    reached = np.isfinite(dd)
    levels = dd[reached].astype(np.int64)
    back = np.count_nonzero(dd[g.adj[reached]] < dd[reached, None], axis=1)
    width = max(l_max + 1, 0)
    frontier = np.bincount(levels, minlength=width)[:width]
    unique = np.bincount(levels[back == 1], minlength=width)[:width]
    rows = zip(range(width), np.cumsum(frontier).tolist(), frontier.tolist(), unique.tolist())
    return ExplorationTrace(tuple(s), tuple(rows))


# -- lower tail of the one-step unique-frontier count ---------------------------


def frontier_unique_bound(theta: float, a_size: int, n: int, r_size: int) -> float:
    """Analytic lower bound on P[|unique frontier of R at level 1| >= theta*|A|].

    A is the set of free points below R in a partial matching covering R's
    matched points.  Returns max(0, 1 - ((2e/(1-theta)) * a/(n-2r))^(((1-theta)/2)*a)),
    clamped into [0, 1]; a vacuous base >= 1 clamps the bound to 0.
    """
    if not (0 < theta < 1):
        raise ValueError("theta must lie in (0, 1)")
    if a_size < 0 or r_size < 0:
        raise ValueError("sizes must be nonnegative")
    if 2 * r_size >= n:
        raise ValueError("need |R| < n/2")
    if a_size == 0:
        return 0.0
    base = (2.0 * math.e / (1.0 - theta)) * a_size / (n - 2 * r_size)
    if base >= 1.0:
        return 0.0
    return max(0.0, 1.0 - base ** (((1.0 - theta) / 2.0) * a_size))


def frontier_unique_montecarlo(
    n: int,
    d: int,
    r_set,
    prefix,
    theta: float,
    trials: int,
    rng,
) -> dict:
    """Empirical frequency of |unique frontier| >= theta*|A| given the prefix.

    ``prefix`` is a partial matching on the points of [n] x [d], a sequence
    of (p, q) point pairs, whose points all lie below vertices of r_set;
    completions to a perfect matching are sampled uniformly.  The unique
    frontier is the set of vertices outside R with exactly one edge into R,
    doubled edges counting twice.  Returns the frequency, the analytic bound,
    and the Monte Carlo standard error.
    """
    rng = as_rng(rng)
    if d < 3 or (n * d) % 2:
        raise ValueError(f"need d >= 3 and n*d even, got n={n}, d={d}")
    r = sorted(set(r_set))
    if not r:
        raise ValueError("R must be nonempty")
    if not (0 <= r[0] and r[-1] < n):
        raise ValueError(f"R must lie in [0, {n})")
    if 2 * len(r) >= n:
        raise ValueError("need |R| < n/2")
    if not (0 < theta < 1):
        raise ValueError("theta must lie in (0, 1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pairs = [tuple(pair) for pair in prefix]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("prefix must hold (p, q) point pairs")
    points = [p for pair in pairs for p in pair]
    stray = [p for p in points if not 0 <= p < n * d]
    if stray:
        raise ValueError(f"prefix point {stray[0]} out of range [0, {n * d})")
    if len(set(points)) != len(points):
        raise ValueError("prefix matches a point twice")
    in_r = np.zeros(n, dtype=bool)
    in_r[r] = True
    if not all(in_r[p // d] for p in points):
        raise ValueError("prefix matching must only touch vertices of R")

    # prefix pairs lie inside R, so only the completion crosses into R
    free = np.array(sorted(set(range(n * d)) - set(points)))
    a_size = int(np.count_nonzero(in_r[free // d]))
    threshold = theta * a_size

    hits = 0
    for _ in range(trials):
        u, v = _collapsed_pairs(rng.permutation(free), d)
        cross = in_r[u] != in_r[v]
        outside = np.where(in_r[u[cross]], v[cross], u[cross])
        hits += int(np.count_nonzero(np.bincount(outside, minlength=n) == 1) >= threshold)
    freq = hits / trials
    return {
        "frequency": freq,
        "bound": frontier_unique_bound(theta, a_size, n, len(r)),
        "stderr": math.sqrt(max(freq * (1 - freq), 1e-12) / trials),
        "trials": trials,
        "a_size": a_size,
    }
