"""Regular graphs as (n, d) neighbour arrays, BFS distances, and edge-list
I/O.

A graph is ``RegularGraph``: its ``adj`` is a read-only int64 (n, d) array
whose row v lists the neighbours of v in increasing order; every operation
of the package reads that array.  Vertices are 0-based ints.  The edges are
one new int64 (m, 2) array, ``edges()``, of the rows (u, v), u < v, sorted;
every edge reader (part B's checks, the Poincare edge sum, the edge-list
writer) takes it as it is, and no list of edge tuples is built.  The
constructor enforces the invariant on every path (``from_edges``, the edge
list reader, the named graphs and the sampler alike): it rejects rows with
labels outside [0, n), loops, repeated or one-sided neighbours, and d < 3,
so no other code validates neighbour rows.  Instances are immutable after
construction and every operation here is a pure function, so they are safe
to share across threads and worker processes.  The one private slot,
``_summary``, holds the graph's certified spectrum once
``spectral.eigen_summary`` has solved it.  It is not a constructor argument,
so neither ``RegularGraph(...)`` nor ``dataclasses.replace`` can set it or
carry it to another graph, and it is excluded from equality, hashing and
repr.  Disconnected graphs are legal inputs; operations whose meaning
requires connectivity say so explicitly.

Distances come from two BFS routines: ``bfs_distances`` from one vertex set,
and the bit-parallel sweep ``_level_sets`` from many single sources at
once, which yields each level's new vertices, the bits of the sources that
reach them and every vertex's ball bits.  Its readers are ``_ball_counts``
(the all-sources sweep, one count per level: ``distance_sum`` and part B's
seers), the Cheeger sweep orders and the n <= 24 ball masks; no per-source
distance rows are built.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RegularGraph",
    "bfs_distances",
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

# Entries per numpy block: bits of _ball_counts' source blocks (512 KiB
# words), floats of the Poincare kernels (32 MiB) and sum-vector entries of
# norms' moment blocks.
_CHUNK_ENTRIES = 1 << 22


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """Simple d-regular graph on {0, ..., n-1}, d >= 3.

    ``adj`` is the read-only int64 (n, d) array of sorted neighbour rows.
    The constructor takes any integer (n, d) array of neighbour rows, in any
    order within a row, and stores a sorted copy; it raises ValueError, in
    this order, on a wrong shape, a label outside [0, n), a self-loop, a
    repeated neighbour, a neighbour whose row lacks the reverse entry and
    d < 3 (TypeError on non-integer labels).  Two graphs are equal, and hash
    alike, when n, d and ``adj`` agree.
    """

    n: int
    d: int
    adj: np.ndarray
    _summary: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n, d = operator.index(self.n), operator.index(self.d)
        adj = np.asarray(self.adj)
        if n < 1 or adj.shape != (n, d):
            raise ValueError(f"adj must have shape (n, d) = ({n}, {d}), n >= 1; got {adj.shape}")
        if adj.size and adj.dtype.kind not in "iu":
            raise TypeError(f"neighbour labels must be integers, got {adj.dtype} values")
        adj = adj.astype(np.int64)  # a copy: the caller's array stays its own
        if adj.size and (adj.min() < 0 or adj.max() >= n):
            bad = adj[(adj < 0) | (adj >= n)]
            raise ValueError(f"vertex {int(bad[0])} out of range [0, {n})")
        adj.sort(axis=1)
        rows = np.arange(n)[:, None]
        loops = adj == rows
        if loops.any():
            raise ValueError(f"self-loop at vertex {int(np.flatnonzero(loops.any(axis=1))[0])}")
        # arc (u, v) as the key u n + v: sorted rows make the keys increasing,
        # so a repeated neighbour is an equal pair of consecutive keys
        keys = (rows * n + adj).ravel()
        repeat = np.flatnonzero(keys[1:] == keys[:-1])
        if repeat.size:
            raise ValueError(f"duplicate edge {divmod(int(keys[repeat[0]]), n)}")
        # every arc (u, v) has its reverse exactly when the reversed keys
        # v n + u, sorted, are the keys themselves
        reverse = np.sort((adj * n + rows).ravel())
        if not np.array_equal(reverse, keys):
            u, v = divmod(int(keys[~np.isin(keys, reverse)][0]), n)
            raise ValueError(f"vertex {u} lists neighbour {v}, but {v} does not list {u}")
        if d < 3:
            raise ValueError(f"degree must be at least 3, got {d}")
        adj.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "adj", adj)

    @staticmethod
    def from_edges(n: int, edges) -> "RegularGraph":
        """Build from an iterable of (u, v) pairs; each edge lists once.

        Checks the labels' range and the degrees here; the constructor checks
        the rest (loops, repeated edges, d >= 3).
        """
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got an array of shape {e.shape}")
        if e.size and e.dtype.kind not in "iu":
            raise TypeError(f"vertices must be integers, got {e.dtype} values")
        e = e.astype(np.int64, copy=False)
        if e.size and (e.min() < 0 or e.max() >= n):
            u, v = e[((e < 0) | (e >= n)).any(axis=1)][0].tolist()
            raise ValueError(f"vertex out of range in edge ({u}, {v})")
        degrees = np.bincount(e.ravel(), minlength=max(n, 0))
        if not degrees.size or np.any(degrees != degrees[0]):
            raise ValueError(f"graph is not regular: degrees {np.unique(degrees).tolist()}")
        # each edge is the arcs (u, v) and (v, u), keyed u n + v: the sorted
        # keys list row 0, then row 1, ..., each row's heads in order
        arcs = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
        d = int(degrees[0])
        return RegularGraph(n, d, (arcs % n).reshape(n, d))

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, so adj stays read-only
        return RegularGraph, (self.n, self.d, self.adj)

    def __eq__(self, other):
        if not isinstance(other, RegularGraph):
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d) and np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash((self.n, self.d, self.adj.tobytes()))

    def edges(self) -> np.ndarray:
        """The edges as a new int64 (m, 2) array of rows (u, v), u < v, sorted."""
        upper = self.adj > np.arange(self.n)[:, None]
        return np.stack([np.nonzero(upper)[0], self.adj[upper]], axis=1)

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


def _level_sets(g: RegularGraph, src: np.ndarray):
    """Yield (level, vertices, bits, balls) for the sources ``src``, from 0.

    ``bits`` is a uint64 (len(vertices), ceil(len(src) / 64)) array: bit i of
    row k (word i // 64, bit i % 64) is set when ``src[i]`` first reaches
    ``vertices[k]`` at this level.  Each (source, reachable vertex) pair is
    set at exactly one level; the vertices at a level are sorted.  ``balls``
    is the sweep's own uint64 (n, words) array: row v ORs the bits so far,
    the sources within ``level`` of v.  The next step updates it in place, so
    a reader keeps only its gathers or counts.  After a level of at most
    n / (2 d) vertices the next visits only their neighbours; after a larger
    one it sweeps every row, which is cheaper than gathering most of them.
    """
    i = np.arange(len(src))
    reached = np.zeros((g.n, -(-len(src) // 64)), dtype=np.uint64)
    np.bitwise_or.at(reached, (src, i >> 6), np.left_shift(np.uint64(1), (i & 63).astype(np.uint64)))
    rows = np.unique(src)
    bits = reached[rows]
    level = 0
    while rows.size:
        yield level, rows, bits, reached
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


def _ball_counts(g: RegularGraph, count) -> np.ndarray:
    """table[l] = sum over the source blocks of ``count(balls)``, an int64
    scalar or array, at level l = 0, ..., D, D the largest eccentricity.

    The one all-sources ``_level_sets`` sweep, in blocks of _CHUNK_ENTRIES // n
    sources (at least one); a block whose sweep ends early carries its last
    count into every later level.
    """
    step = max(1, _CHUNK_ENTRIES // g.n)
    table = np.zeros(1, dtype=np.int64)  # no block yet: 0 at every level
    for start in range(0, g.n, step):
        src = np.arange(start, min(start + step, g.n))
        block = np.array([count(balls) for *_, balls in _level_sets(g, src)], dtype=np.int64)
        if len(block) < len(table):
            table, block = block, table
        # the shorter sweep's last count holds at every later level
        block[: len(table)] += table
        block[len(table) :] += table[-1]
        table = block
    return table


def distance_sum(g: RegularGraph) -> float:
    """sum_{v, w} dist(v, w) over ordered pairs; ``inf`` when disconnected.
    Level l adds the n^2 - within_l pairs farther apart than l."""
    within = _ball_counts(g, lambda balls: np.bitwise_count(balls).sum())
    if within[-1] < g.n * g.n:
        return INF
    return float((g.n * g.n - within).sum())


# -- edge-list text format -----------------------------------------------------
#
# One "u v" pair per line, vertices numbered from 0; '#' starts a comment;
# blank lines ignored.  An optional first data line "n d" declares the size
# and is validated against the edges (it is re-emitted by save_edge_list).


def load_edge_list(text: str) -> RegularGraph:
    """The graph of an edge-list text, in the format above.

    One numpy parse reads a well-formed text; only a text it refuses is read
    again line by line, by ``_edge_rows``, which names the offending line.
    """
    rows = _bulk_rows(text)
    if rows is None:
        rows = _edge_rows(text)

    def build(n, pairs):
        try:
            return RegularGraph.from_edges(n, pairs)
        except ValueError as exc:
            raise ValueError(f"invalid edge list: {exc}") from None

    # The first line may be a header "n d".  It counts as one exactly when
    # reading the remaining lines as edges yields a regular graph matching it;
    # otherwise every line is an edge and n is inferred from the labels.
    head_n, head_d = int(rows[0][0]), int(rows[0][1])
    if len(rows) - 1 == head_n * head_d // 2:
        try:
            g = build(head_n, rows[1:])
            if g.d == head_d:
                return g
        except ValueError:
            pass
    return build(int(np.max(rows)) + 1, rows)


def _bulk_rows(text: str) -> np.ndarray | None:
    """The data lines as an int64 (k, 2) array, k >= 1, or None wherever
    ``_edge_rows`` would raise or read what numpy's integer parser does not
    (such as "1_000" or digits outside ASCII).

    ``np.loadtxt`` strips "#" comments, skips blank lines and splits on the
    whitespace that ``str.split`` splits on.  The leading "0 0" row fixes the
    width at two columns and keeps it from warning on a text with no data.
    """
    try:
        rows = np.loadtxt(["0 0", *text.splitlines()], dtype=np.int64, comments="#", ndmin=2)
    except ValueError:
        return None
    return rows[1:] if len(rows) > 1 and rows.shape[1] == 2 else None


def _edge_rows(text: str) -> list[tuple[int, int]]:
    """The data lines as (a, b) pairs, one line at a time; ValueError naming
    the first line that is not two integers, or on a text with no data."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            rows.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
    if not rows:
        raise ValueError("empty edge list")
    return rows


def save_edge_list(g: RegularGraph) -> str:
    lines = [f"{g.n} {g.d}"]
    lines += [f"{u} {v}" for u, v in g.edges().tolist()]
    return "\n".join(lines) + "\n"


# -- small named graphs (test fixtures and demo material) ----------------------


def complete_graph(k: int) -> RegularGraph:
    return RegularGraph.from_edges(k, np.stack(np.triu_indices(k, 1), axis=1))


def complete_bipartite(a: int, b: int) -> RegularGraph:
    if a != b:
        raise ValueError("only balanced complete bipartite graphs are regular")
    i, j = np.divmod(np.arange(a * a), a)
    return RegularGraph.from_edges(2 * a, np.stack([i, a + j], axis=1))


def _generalized_petersen(m: int, k: int) -> RegularGraph:
    """GP(m, k): the rim i ~ i + 1, the inner polygon m + i ~ m + (i + k) and
    the spokes i ~ m + i, for i in [0, m), taken mod m within each ring."""
    i = np.arange(m)
    u = np.concatenate([i, m + i, i])
    v = np.concatenate([(i + 1) % m, m + (i + k) % m, m + i])
    return RegularGraph.from_edges(2 * m, np.stack([u, v], axis=1))


def petersen_graph() -> RegularGraph:
    return _generalized_petersen(5, 2)


def circular_ladder(m: int) -> RegularGraph:
    """Prism graph C_m x K_2: 3-regular on 2m vertices, diameter ~ m/2."""
    if m < 3:
        raise ValueError("need m >= 3")
    return _generalized_petersen(m, 1)


def disjoint_union(g1: RegularGraph, g2: RegularGraph) -> RegularGraph:
    if g1.d != g2.d:
        raise ValueError("components must share the degree")
    return RegularGraph.from_edges(g1.n + g2.n, np.concatenate([g1.edges(), g2.edges() + g1.n]))
