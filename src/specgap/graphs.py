"""Regular graphs as (n, d) neighbour arrays, BFS distances and balls, and
edge-list I/O.

A graph is ``RegularGraph``: its ``adj`` is a read-only int64 (n, d) array
whose row v lists the neighbours of v in increasing order; every operation
of the package reads that array.  Vertices are 0-based ints.  Instances are
immutable after construction and every operation here is a pure function,
so they are safe to share across threads and worker processes.  The one
private slot, ``_spectra``, is a cache that only ``specgap.spectral`` fills;
it is excluded from equality, hashing and repr.  Disconnected graphs are
legal inputs; operations whose meaning requires connectivity say so
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RegularGraph",
    "dist",
    "dist_to_set",
    "ball",
    "boundary",
    "bfs_distances",
    "distance_rows",
    "distance_sum",
    "load_edge_list",
    "save_edge_list",
    "complete_graph",
    "complete_bipartite",
    "petersen_graph",
    "circular_ladder",
    "disjoint_union",
]

INF = float("inf")

# distance_rows and distance_sum sweep about this many (source, vertex) pairs
# per block of sources: a 32 MiB float block of rows.
DISTANCE_CHUNK_ENTRIES = 1 << 22


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """Simple d-regular graph on {0, ..., n-1}.

    ``adj`` is the read-only int64 (n, d) array of sorted neighbour rows.
    Two graphs are equal, and hash alike, when n, d and ``adj`` agree.
    """

    n: int
    d: int
    adj: np.ndarray
    _spectra: dict = field(default=None, repr=False)

    @staticmethod
    def from_edges(n: int, edges) -> "RegularGraph":
        """Build and validate from an iterable of (u, v) pairs."""
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in nbrs[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        degrees = {len(s) for s in nbrs}
        if len(degrees) != 1:
            raise ValueError(f"graph is not regular: degrees {sorted(degrees)}")
        d = degrees.pop()
        if d < 3:
            raise ValueError(f"degree must be at least 3, got {d}")
        if n < d:
            raise ValueError(f"need n >= d, got n={n}, d={d}")
        adj = np.array([sorted(s) for s in nbrs], dtype=np.int64)
        adj.flags.writeable = False
        return RegularGraph(n, d, adj)

    def __eq__(self, other):
        if not isinstance(other, RegularGraph):
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d) and np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash((self.n, self.d, self.adj.tobytes()))

    def edges(self) -> list[tuple[int, int]]:
        """Canonical (u < v) edge list, sorted."""
        u, j = np.nonzero(self.adj > np.arange(self.n)[:, None])
        return list(zip(u.tolist(), self.adj[u, j].tolist()))

    def num_edges(self) -> int:
        return self.n * self.d // 2


# -- shortest-path primitives ------------------------------------------------


def _vertices(g: RegularGraph, vertices) -> np.ndarray:
    """``vertices`` as an int64 array, each checked to be an int in [0, n)."""
    vs = np.asarray(vertices if isinstance(vertices, np.ndarray) else list(vertices))
    if vs.size and vs.dtype.kind not in "iu":
        raise TypeError(f"vertices must be integers, got {vs.dtype} values")
    vs = vs.astype(np.int64, copy=False)
    bad = vs[(vs < 0) | (vs >= g.n)]
    if bad.size:
        raise ValueError(f"vertex {int(bad[0])} out of range [0, {g.n})")
    return vs


def bfs_distances(g: RegularGraph, sources) -> np.ndarray:
    """Hop distance from the vertex set ``sources`` to every vertex.

    A float (n,) array with ``inf`` at unreachable vertices.  One vectorized
    sweep over ``g.adj`` per level: the unvisited neighbours of the frontier
    get the next level, and the vertices at that level form the next frontier.
    """
    dist = np.full(g.n, INF)
    dist[_vertices(g, sources)] = 0
    frontier = np.flatnonzero(dist == 0)
    level = 0
    while frontier.size:
        level += 1
        reached = g.adj[frontier].ravel()
        dist[reached[dist[reached] == INF]] = level
        frontier = np.flatnonzero(dist == level)
    return dist


def dist(g: RegularGraph, v: int, w: int) -> float:
    """Shortest-path distance; inf when v, w lie in different components."""
    v, w = _vertices(g, (v, w))
    return float(bfs_distances(g, [v])[w])


def dist_to_set(g: RegularGraph, v: int, s) -> float:
    """min over w in s of dist(v, w); s must be nonempty."""
    s = set(s)
    if not s:
        raise ValueError("distance to the empty set is undefined")
    (v,) = _vertices(g, (v,))
    return float(bfs_distances(g, s)[v])


def ball(g: RegularGraph, s, radius) -> frozenset:
    """{v : dist(v, s) <= radius}; empty for empty s or negative radius."""
    s = set(s)
    if not s or radius < 0:
        return frozenset()
    return frozenset(np.flatnonzero(bfs_distances(g, s) <= radius).tolist())


def boundary(g: RegularGraph, s, radius) -> frozenset:
    """ball(s, radius) minus ball(s, radius - 1)."""
    s = set(s)
    if not s or radius < 0:
        return frozenset()
    return frozenset(np.flatnonzero(bfs_distances(g, s) == radius).tolist())


# -- per-source distances -----------------------------------------------------
#
# One level-synchronous sweep over ``g.adj`` serves a block of single sources
# at once: vertex v holds a bitset, one bit per source of the block (a row of
# uint64 words), of the sources that have reached it.  A level ORs the
# bitsets of each vertex's neighbours and keeps the bits it did not hold,
# visiting only the vertices adjacent to the last level's, so a few sources
# on a long cycle cost O(n d) word operations in all, not O(n d diameter).
# Each level also pays a fixed cost in numpy calls, about 0.1 ms, which a
# graph of large diameter pays once per level.


def _source_blocks(g: RegularGraph, sources):
    """``sources`` (default: every vertex) in blocks of at most
    DISTANCE_CHUNK_ENTRIES // n, in order."""
    src = np.arange(g.n) if sources is None else _vertices(g, sources)
    rows = max(1, DISTANCE_CHUNK_ENTRIES // g.n)
    for start in range(0, len(src), rows):
        yield src[start : start + rows]


def _level_sets(g: RegularGraph, src: np.ndarray):
    """Yield (level, vertices, bits) for the sources ``src``, level 0 first.

    ``bits`` is a uint64 (len(vertices), ceil(len(src) / 64)) array: bit i of
    row k (word i // 64, bit i % 64) is set when ``src[i]`` first reaches
    ``vertices[k]`` at this level.  Each (source, reachable vertex) pair is
    set at exactly one level; the vertices at a level are sorted.  After a
    level of at most n / (2 d) vertices the next visits only their
    neighbours; after a larger one it sweeps every row, which is cheaper than
    gathering most of them.
    """
    i = np.arange(len(src))
    reached = np.zeros((g.n, -(-len(src) // 64)), dtype=np.uint64)
    np.bitwise_or.at(reached, (src, i >> 6), np.left_shift(np.uint64(1), (i & 63).astype(np.uint64)))
    rows = np.unique(src)
    bits = reached[rows]
    level = 0
    while rows.size:
        yield level, rows, bits
        level += 1
        # a bit that a neighbour held before the last level already reached
        # v, so ORing whole ``reached`` rows finds the same new bits as ORing
        # the frontier's
        if 2 * g.d * len(rows) > g.n:
            new = reached[g.adj[:, 0]]
            for j in range(1, g.d):
                new |= reached[g.adj[:, j]]
            new &= ~reached
            rows = np.flatnonzero(new.any(axis=1))
            bits = new[rows]
        else:
            near = np.unique(g.adj[rows])  # only these can gain a bit
            nbrs = g.adj[near]
            new = reached[nbrs[:, 0]]
            for j in range(1, g.d):
                new |= reached[nbrs[:, j]]
            new &= ~reached[near]
            keep = new.any(axis=1)
            rows, bits = near[keep], new[keep]
        reached[rows] |= bits


def distance_rows(g: RegularGraph, sources=None):
    """Yield the hop-distance rows of single sources, a block at a time.

    ``sources`` defaults to every vertex; repeats are allowed.  Each block is
    a float (c, n) array whose i-th row holds the distances from the block's
    i-th source, with ``inf`` at unreachable vertices; blocks follow the order
    of ``sources``, with c * n <= DISTANCE_CHUNK_ENTRIES (c >= 1), so memory
    stays O(c n) however many sources are asked for.  Each block is one
    bit-parallel sweep (``_level_sets``); a vertex reached at a level costs
    about d c / 64 word operations and c entries of its distance column.
    """
    for src in _source_blocks(g, sources):
        c = len(src)
        # one row per vertex, in the smallest unsigned type that holds n: every
        # level is below n, so n marks the vertices a source never reaches
        levels = np.full((g.n, c), g.n, dtype=np.min_scalar_type(g.n))
        for level, rows, bits in _level_sets(g, src):
            octets = bits.astype("<u8", copy=False).view(np.uint8)
            hit = np.unpackbits(octets, axis=1, count=c, bitorder="little").view(bool)
            at_level = levels[rows]
            at_level[hit] = level
            levels[rows] = at_level
        block = np.asarray(levels.T, dtype=float, order="C")
        block[block == g.n] = INF
        yield block


def distance_sum(g: RegularGraph) -> float:
    """sum_{v, w} dist(v, w) over ordered pairs; ``inf`` when disconnected.

    Counts the set bits of each level of the per-source sweep, in the same
    source blocks as ``distance_rows`` but without building distance rows.
    """
    total = 0
    for src in _source_blocks(g, None):
        found = 0
        for level, _, bits in _level_sets(g, src):
            count = int(np.bitwise_count(bits).sum())
            found += count
            total += level * count
        if found < len(src) * g.n:
            return INF
    return float(total)


# -- edge-list text format -----------------------------------------------------
#
# One "u v" pair per line, vertices numbered from 0; '#' starts a comment;
# blank lines ignored.  An optional first data line "n d" declares the size
# and is validated against the edges (it is re-emitted by save_edge_list).


def load_edge_list(text: str) -> RegularGraph:
    rows = []  # (lineno, a, b)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
        rows.append((lineno, a, b))
    if not rows:
        raise ValueError("empty edge list")

    def build(n, pairs):
        try:
            return RegularGraph.from_edges(n, [(a, b) for _, a, b in pairs])
        except ValueError as exc:
            raise ValueError(f"invalid edge list: {exc}") from None

    # The first line may be a header "n d".  It counts as one exactly when
    # reading the remaining lines as edges yields a regular graph matching it;
    # otherwise every line is an edge and n is inferred from the labels.
    head_n, head_d = rows[0][1], rows[0][2]
    if len(rows) - 1 == head_n * head_d // 2:
        try:
            g = build(head_n, rows[1:])
            if g.d == head_d:
                return g
        except ValueError:
            pass
    n_inferred = max(max(a, b) for _, a, b in rows) + 1
    return build(n_inferred, rows)


def save_edge_list(g: RegularGraph) -> str:
    lines = [f"{g.n} {g.d}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# -- small named graphs (test fixtures and demo material) ----------------------


def complete_graph(k: int) -> RegularGraph:
    return RegularGraph.from_edges(
        k, [(i, j) for i in range(k) for j in range(i + 1, k)]
    )


def complete_bipartite(a: int, b: int) -> RegularGraph:
    if a != b:
        raise ValueError("only balanced complete bipartite graphs are regular")
    return RegularGraph.from_edges(
        2 * a, [(i, a + j) for i in range(a) for j in range(a)]
    )


def petersen_graph() -> RegularGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return RegularGraph.from_edges(10, outer + inner + spokes)


def circular_ladder(m: int) -> RegularGraph:
    """Prism graph C_m x K_2: 3-regular on 2m vertices, diameter ~ m/2."""
    if m < 3:
        raise ValueError("need m >= 3")
    rim1 = [(i, (i + 1) % m) for i in range(m)]
    rim2 = [(m + i, m + (i + 1) % m) for i in range(m)]
    rungs = [(i, m + i) for i in range(m)]
    return RegularGraph.from_edges(2 * m, rim1 + rim2 + rungs)


def disjoint_union(g1: RegularGraph, g2: RegularGraph) -> RegularGraph:
    if g1.d != g2.d:
        raise ValueError("components must share the degree")
    edges = g1.edges() + [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    return RegularGraph.from_edges(g1.n + g2.n, edges)
