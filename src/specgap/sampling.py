"""Uniform random regular graphs via the pairing model, and BFS exploration.

A d-regular multigraph is sampled by drawing a uniform perfect matching on
the N = n*d half-edge points {(v, slot)}, encoded as v * d + slot, and
collapsing the d points below each vertex.  A matching is a shuffled point
array whose consecutive points are paired; ``_collapsed_pairs`` turns it
into vertex pairs.  Every simple d-regular graph comes from the same number
(d!)^n of pairings, so a uniform simple pairing is a uniform simple graph.

``sample_simple_regular`` follows McKay and Wormald (J. Algorithms 11,
1990), with the incremental b-rejection of Arman, Gao and Wormald (FOCS
2019).  Let C(l, D) be the pairings with l loops, D double pairs, no
triple pair and no vertex in two of these defects; a pair is single when
it is neither a loop nor one of a double pair.  A fresh pairing is kept
only in some C(l, D) with l <= L1 and D <= L2; any other pairing, and any
rejection below, restarts from a fresh pairing.  Then:

* l-switching, while loops remain: the loop {p1, p2} at v1 and the pairs
  p3p4, p5p6 become p1p3, p2p5 and p4p6 (C(l, D) to C(l - 1, D));
* d-switching, while double pairs remain: the double pair p1p2, p3p4
  between v1 and v2 and the pairs p5p6, p7p8 become p1p5, p2p6, p3p7 and
  p4p8 (C(0, D) to C(0, D - 1)).

A switching is valid when all its vertices are distinct, the two borrowed
pairs are single, and no new pair joins vertices already adjacent.
f-rejection draws a defect, its orientation and two points uniformly from
2l*N^2 (loops) or 4D*N^2 (double pairs) choices and restarts unless the
choice is valid, so every valid switching out of every pairing of the class
is taken with the same probability.  b-rejection looks at the 2-path
pi = x v1 y that the switching created (x, y the vertices of p3, p5 or of
p5, p7) and accepts with probability c_lo / c(pi), where c(pi) counts the
ways to complete pi into an inverse switching:

* loops: single oriented pairs (a, b) with a outside {y} + N[x] and b
  outside {x} + N[y], c_lo = nd - 2l' - 4D - 2d(d + 2);
* double pairs: ordered 2-paths x' v2 y' at a defect-free v2 outside
  N[v1] with x' outside {y} + N[x] and y' outside {x} + N[y],
  c_lo = d(d - 1)(n - 2D' - 3d - 5);

with l' and D' counted after the switching; each excluded set has at most
d + 2 vertices, which gives the bounds.  A pairing Q of the new class is
then reached with probability proportional to
sum over pi of c(pi) * c_lo / c(pi) = A * c_lo, where A, the number of
ordered 2-paths at defect-free vertices, is (n - l' - 2D') d(d - 1) for
every Q of the class: uniform within a class stays uniform, and the
output is exactly uniform.  L1 = d - 1 and L2 = (d - 1)^2 are lowered
until every c_lo >= 1; where both reach 0 (small n) the sampler is plain
rejection, with the same stream and graphs.  A count below its bound
means a bug and raises.

The exploration half of the module records, level by level, the ball sizes
|B(S, l)|, frontier sizes |dB(S, l)| and the number of frontier vertices
joined to the previous ball by exactly one edge.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .graphs import RegularGraph, bfs_distances, complete_graph
from .rand import as_rng

__all__ = [
    "sample_simple_regular",
    "ExplorationTrace",
    "explore",
]


def _collapsed_pairs(points: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex pairs (u, v) of a shuffled point array whose points 2i and
    2i + 1 are matched; point p lies below vertex p // d."""
    return points[0::2] // d, points[1::2] // d


def _restart_budget(d: int) -> int:
    """The restarts after which the sampler gives up: 100 exp((d^2 - 1)/4),
    100 times plain rejection's expected restarts as n grows.  It is not a
    worst case.  At n = d + 2, where the graphs are the (n - 1)!! complements
    of perfect matchings, plain rejection accepts e^-11.97, e^-22.73 and
    e^-37.09 of its pairings at d = 6, 8 and 10, not the e^-8.75, e^-15.75
    and e^-24.75 assumed here: (12, 10) raises only after e^29.4 restarts."""
    try:
        return math.ceil(100.0 * math.exp((d * d - 1) / 4.0))
    except OverflowError:
        raise ValueError(
            f"the restart budget 100 exp((d^2 - 1)/4) leaves the double range at d={d}; "
            "at d >= 54 only n = d + 1 is sampled"
        ) from None


def _loop_floor(n: int, d: int, loops: int, doubles: int) -> int:
    """Least completion count c(pi) after an l-switching into C(loops, doubles)."""
    return n * d - 2 * loops - 4 * doubles - 2 * d * (d + 2)


def _double_floor(n: int, d: int, doubles: int) -> int:
    """Least completion count c(pi) after a d-switching into C(0, doubles)."""
    return d * (d - 1) * (n - 2 * doubles - 3 * d - 5)


def _switch_limits(n: int, d: int) -> tuple[int, int]:
    """(L1, L2): the most loops and double pairs a kept pairing may have.

    Starts from d - 1 and (d - 1)^2 and lowers each until every switching
    it admits has a lower bound c_lo >= 1."""
    l2 = (d - 1) ** 2
    while l2 and _double_floor(n, d, l2 - 1) < 1:
        l2 -= 1
    l1 = d - 1
    while l1 and _loop_floor(n, d, l1 - 1, l2) < 1:
        l1 -= 1
    return l1, l2


def sample_simple_regular(n: int, d: int, rng):
    """Uniform simple d-regular graph by the switching method of the module
    docstring; n and d are integers (``operator.index``).

    Returns (graph, restarts).  Raises RuntimeError when
    ``_restart_budget(d)`` restarts do not yield a graph, and ValueError
    before any draw when that budget leaves the double range (d >= 54).
    At n = d + 1 the only d-regular graph is K_n, returned at once with 0
    restarts and nothing drawn, since plain rejection there accepts about
    exp(-(d^2 - 1)/4) of its pairings.

    The cost has a cliff in d.  At n = 1000 with ``make_rng(5)`` (one core):
    d = 14 takes 0.08 s and 65 restarts, d = 16 takes 6.6 s and 8655
    restarts, and d = 20 had not finished after 10 minutes.  The budget at
    d = 20 is 100 e^99.75, so it never runs out in practice.
    """
    n, d = operator.index(n), operator.index(d)
    if n <= d or d < 3:
        # a simple d-regular graph needs d + 1 vertices at least
        raise ValueError(f"need n > d >= 3, got n={n}, d={d}")
    if (n * d) % 2:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = as_rng(rng)
    if n == d + 1:
        return complete_graph(n), 0
    budget = _restart_budget(d)
    limits = _switch_limits(n, d)
    restarts = 0
    while True:
        points = rng.permutation(n * d)
        defects = _classify(points, n, d, *limits)
        if defects is not None:
            pairing = _Pairing(points, n, d, *defects)
            if pairing.switch_out(rng):
                return pairing.graph(), restarts
        restarts += 1
        if restarts > budget:
            raise RuntimeError(f"restart budget exhausted after {restarts} restarts (n={n}, d={d})")


def _classify(points: np.ndarray, n: int, d: int, max_loops: int, max_doubles: int):
    """Defects of the pairing whose points 2i and 2i + 1 are matched.

    Returns (loops, doubles): the indices i of the loop pairs and a (D, 2)
    array of the index pairs of the double pairs.  Returns None outside the
    sampler's classes: more than ``max_loops`` loops or ``max_doubles``
    double pairs, a triple pair, or a vertex in two defects.
    """
    u, v = _collapsed_pairs(points, d)
    loops = np.flatnonzero(u == v)
    if loops.size > max_loops:  # cheap restart before sorting
        return None
    keys = np.minimum(u, v).astype(np.int64) * n + np.maximum(u, v)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    repeat = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
    if repeat.size > max_doubles or np.any(np.diff(repeat) == 1):  # a triple pair
        return None
    first = order[repeat]
    doubles = np.column_stack([first, order[repeat + 1]])
    ends = np.sort(np.concatenate([u[loops], u[first], v[first]]))
    if np.any(ends[1:] == ends[:-1]):
        return None
    return loops, doubles


def _b_accept(rng, count: int, floor: int) -> bool:
    """b-rejection: True with probability floor / count."""
    if count < floor:
        raise RuntimeError(f"completion count {count} below its lower bound c_lo = {floor}")
    return rng.random() * count < floor


class _Pairing:
    """A pairing under switching: ``partner[p]`` is the point matched to p.

    ``single[p]`` says p's pair is neither a loop nor one of a double pair,
    ``defective[v]`` that vertex v lies in a defect.  ``loops`` holds one
    point of each loop; ``doubles`` holds, for each double pair, its two
    points at one end.
    """

    def __init__(self, points: np.ndarray, n: int, d: int, loops, doubles):
        self.n, self.d = n, d
        self.vertex = np.arange(n * d) // d
        first, second = points[0::2], points[1::2]
        self.partner = np.empty(n * d, dtype=np.int64)
        self.partner[first] = second
        self.partner[second] = first
        a, b = first[doubles[:, 0]], first[doubles[:, 1]]
        b = np.where(b // d == a // d, b, self.partner[b])
        self.loops = first[loops].tolist()
        self.doubles = np.stack([a, b], axis=1).tolist()
        ends = np.concatenate([first[loops], a, b])
        ends = np.concatenate([ends, self.partner[ends]])
        self.single = np.ones(n * d, dtype=bool)
        self.single[ends] = False
        self.defective = np.zeros(n, dtype=bool)
        self.defective[ends // d] = True

    def neighbours(self, v: int) -> np.ndarray:
        return self.vertex[self.partner[v * self.d : (v + 1) * self.d]]

    def loop_switch(self, p1: int, p3: int, p5: int) -> bool:
        """The l-switching that takes the loop {p1, p2} and the pairs p3p4,
        p5p6 to p1p3, p2p5 and p4p6; False, changing nothing, when invalid."""
        partner, d = self.partner, self.d
        p2, p4, p6 = partner[[p1, p3, p5]].tolist()
        v1, v3, v4, v5, v6 = p1 // d, p3 // d, p4 // d, p5 // d, p6 // d
        if len({v1, v3, v4, v5, v6}) < 5 or not (self.single[p3] and self.single[p5]):
            return False
        around = self.neighbours(v1)
        if v3 in around or v5 in around or v6 in self.neighbours(v4):
            return False
        partner[[p1, p3, p2, p5, p4, p6]] = [p3, p1, p5, p2, p6, p4]
        self.single[[p1, p2]] = True
        self.defective[v1] = False
        return True

    def double_switch(self, p1: int, p3: int, p5: int, p7: int) -> bool:
        """The d-switching that takes the double pair p1p2, p3p4 and the
        pairs p5p6, p7p8 to p1p5, p2p6, p3p7 and p4p8; False, changing
        nothing, when invalid."""
        partner, d = self.partner, self.d
        p2, p4, p6, p8 = partner[[p1, p3, p5, p7]].tolist()
        v1, v2, v5, v6, v7, v8 = p1 // d, p2 // d, p5 // d, p6 // d, p7 // d, p8 // d
        if len({v1, v2, v5, v6, v7, v8}) < 6 or not (self.single[p5] and self.single[p7]):
            return False
        around1, around2 = self.neighbours(v1), self.neighbours(v2)
        if v5 in around1 or v7 in around1 or v6 in around2 or v8 in around2:
            return False
        partner[[p1, p5, p2, p6, p3, p7, p4, p8]] = [p5, p1, p6, p2, p7, p3, p8, p4]
        self.single[[p1, p2, p3, p4]] = True
        self.defective[[v1, v2]] = False
        return True

    def _allowed(self, x: int, y: int) -> np.ndarray:
        """Vertex mask of the ends that an inverse switching may join to x:
        all but y and the closed neighbourhood N[x]."""
        ok = np.ones(self.n, dtype=bool)
        ok[self.neighbours(x)] = False
        ok[[x, y]] = False
        return ok

    def loop_count(self, x: int, y: int) -> int:
        """c(pi) of the 2-path x v1 y an l-switching created: the single
        oriented pairs (a, b) an inverse l-switching may join to x and y."""
        ends = self.vertex[self.partner]
        ok = self.single & self._allowed(x, y)[self.vertex] & self._allowed(y, x)[ends]
        return int(np.count_nonzero(ok))

    def double_count(self, x: int, v1: int, y: int) -> int:
        """c(pi) of the 2-path x v1 y a d-switching created: the ordered
        2-paths x' v2 y' at defect-free v2 outside N[v1] whose ends an
        inverse d-switching may join to x and y."""
        ends = self.vertex[self.partner].reshape(self.n, self.d)
        to_x, to_y = self._allowed(x, y)[ends], self._allowed(y, x)[ends]
        paths = to_x.sum(1) * to_y.sum(1) - (to_x & to_y).sum(1)
        free = ~self.defective
        free[self.neighbours(v1)] = False
        free[v1] = False
        return int(paths[free].sum())

    def switch_out(self, rng) -> bool:
        """Remove every loop, then every double pair; False on an f- or
        b-rejection, after which the caller restarts."""
        n, d = self.n, self.d
        while self.loops:
            pick, p3, p5 = rng.integers((2 * len(self.loops), n * d, n * d)).tolist()
            p1 = self.loops[pick // 2]
            if pick % 2:
                p1 = int(self.partner[p1])
            if not self.loop_switch(p1, p3, p5):
                return False
            del self.loops[pick // 2]
            floor = _loop_floor(n, d, len(self.loops), len(self.doubles))
            if not _b_accept(rng, self.loop_count(p3 // d, p5 // d), floor):
                return False
        while self.doubles:
            pick, p5, p7 = rng.integers((4 * len(self.doubles), n * d, n * d)).tolist()
            p1, p3 = self.doubles[pick // 4]
            if pick & 1:
                p1, p3 = self.partner[[p1, p3]].tolist()
            if pick & 2:
                p1, p3 = p3, p1
            if not self.double_switch(p1, p3, p5, p7):
                return False
            del self.doubles[pick // 4]
            floor = _double_floor(n, d, len(self.doubles))
            if not _b_accept(rng, self.double_count(p5 // d, p1 // d, p7 // d), floor):
                return False
        return True

    def graph(self) -> RegularGraph:
        """The simple graph of a switched-out pairing; RuntimeError if the
        constructor rejects its partner rows, which only a bug can cause."""
        n, d = self.n, self.d
        try:
            return RegularGraph(n, d, self.vertex[self.partner].reshape(n, d))
        except ValueError as exc:
            raise RuntimeError(f"switched pairing is not a simple {d}-regular graph") from exc


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


def explore(g: RegularGraph, s, l_max: int) -> ExplorationTrace:
    """Exact exploration statistics of ``g`` from the seed set s up to the
    integer l_max >= 0 (``operator.index``).

    A vertex at level l has all its neighbours at levels l - 1, l and l + 1,
    so its edges into the previous ball are those to lower levels.
    """
    l_max = operator.index(l_max)
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    s = sorted(set(s))
    if not s:
        raise ValueError("seed set must be nonempty")
    dd = bfs_distances(g, s)
    reached = np.isfinite(dd)
    levels = dd[reached].astype(np.int64)
    back = np.count_nonzero(dd[g.adj[reached]] < dd[reached, None], axis=1)
    width = l_max + 1
    frontier = np.bincount(levels, minlength=width)[:width]
    unique = np.bincount(levels[back == 1], minlength=width)[:width]
    rows = zip(range(width), np.cumsum(frontier).tolist(), frontier.tolist(), unique.tolist())
    return ExplorationTrace(tuple(s), tuple(rows))

