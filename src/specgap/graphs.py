"""Regular graphs, multigraphs, shortest-path balls, and edge-list I/O.

Vertices are 0-based ints.  ``RegularGraph`` is immutable after construction
and every operation here is a pure function, so instances are safe to share
across threads and worker processes.  Its one private slot, ``_spectra``, is
a cache that only ``specgap.spectral`` fills; it is excluded from equality,
hashing and repr.  Disconnected graphs are legal inputs;
operations whose meaning requires connectivity say so explicitly.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

__all__ = [
    "RegularGraph",
    "MultiGraph",
    "canonical_edge",
    "dist",
    "dist_to_set",
    "dist_to_edge",
    "ball",
    "boundary",
    "bfs_distances",
    "distance_rows",
    "neighbour_array",
    "adjacency_csr",
    "load_edge_list",
    "save_edge_list",
    "complete_graph",
    "complete_bipartite",
    "petersen_graph",
    "circular_ladder",
    "disjoint_union",
]

INF = float("inf")

# distance_rows solves about this many (source, vertex) entries per call,
# a 32 MiB float block.
DISTANCE_CHUNK_ENTRIES = 1 << 22


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    """Unordered edge as a (min, max) tuple."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class RegularGraph:
    """Simple d-regular graph on {0, ..., n-1} with sorted adjacency lists."""

    n: int
    d: int
    adj: tuple[tuple[int, ...], ...]
    _spectra: dict = field(default=None, compare=False, repr=False)

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
        return RegularGraph(n, d, tuple(tuple(sorted(s)) for s in nbrs))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def edges(self) -> list[tuple[int, int]]:
        """Canonical (u < v) edge list, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def num_edges(self) -> int:
        return self.n * self.d // 2

    def _check_vertex(self, v: int):
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range [0, {self.n})")


@dataclass(frozen=True)
class MultiGraph:
    """Multigraph on {0, ..., n-1}: an edge multiset allowing loops.

    Edges are stored canonically ordered; a loop is (v, v) and contributes 2
    to the degree of v.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    _adj: tuple = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_edges(n: int, edges) -> "MultiGraph":
        es = tuple(sorted(canonical_edge(u, v) for u, v in edges))
        for u, v in es:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range in edge ({u}, {v})")
        return MultiGraph(n, es)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1  # loops count twice
        return deg

    def is_simple(self) -> bool:
        """No loops and no parallel edges."""
        seen = set()
        for u, v in self.edges:
            if u == v or (u, v) in seen:
                return False
            seen.add((u, v))
        return True

    def neighbors(self, v: int) -> tuple[int, ...]:
        # with multiplicity; loops contribute the vertex twice
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for u, w in self.edges:
                adj[u].append(w)
                if u != w:
                    adj[w].append(u)
                else:
                    adj[u].append(u)
            object.__setattr__(self, "_adj", tuple(tuple(a) for a in adj))
        return self._adj[v]

    def to_regular(self) -> RegularGraph:
        if not self.is_simple():
            raise ValueError("multigraph is not simple")
        return RegularGraph.from_edges(self.n, self.edges)

    def _check_vertex(self, v: int):
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range [0, {self.n})")


# -- shortest-path primitives ------------------------------------------------


def bfs_distances(g, sources) -> list:
    """Hop distance from the vertex set ``sources`` to every vertex.

    Unreachable vertices get ``inf``.  Works for RegularGraph and MultiGraph.
    """
    src = sorted(set(sources))
    for v in src:
        g._check_vertex(v)
    dist = [INF] * g.n
    q = deque()
    for v in src:
        dist[v] = 0
        q.append(v)
    while q:
        u = q.popleft()
        du = dist[u]
        for w in g.neighbors(u):
            if dist[w] == INF:
                dist[w] = du + 1
                q.append(w)
    return dist


def dist(g, v: int, w: int):
    """Shortest-path distance; inf when v, w lie in different components."""
    g._check_vertex(v)
    g._check_vertex(w)
    return bfs_distances(g, [v])[w]


def dist_to_set(g, v: int, s):
    """min over w in s of dist(v, w); s must be nonempty."""
    s = set(s)
    if not s:
        raise ValueError("distance to the empty set is undefined")
    g._check_vertex(v)
    return bfs_distances(g, s)[v]


def dist_to_edge(g, v: int, e):
    """Distance from v to the closer endpoint of edge e = (w, w')."""
    return dist_to_set(g, v, e)


def ball(g, s, radius) -> frozenset:
    """{v : dist(v, s) <= radius}; empty for empty s or negative radius."""
    s = set(s)
    if not s or radius < 0:
        return frozenset()
    dd = bfs_distances(g, s)
    return frozenset(v for v in range(g.n) if dd[v] <= radius)


def boundary(g, s, radius) -> frozenset:
    """ball(s, radius) minus ball(s, radius - 1)."""
    s = set(s)
    if not s or radius < 0:
        return frozenset()
    dd = bfs_distances(g, s)
    return frozenset(v for v in range(g.n) if dd[v] == radius)


# -- array views ---------------------------------------------------------------
#
# numpy and scipy are imported inside these helpers, not at the top of the
# module.  Importing numpy from here, before the rest of the package, made
# `import specgap` about 20 ms (6%) slower on a 2-vCPU Xeon, and csgraph alone
# loads nine extension modules.


def neighbour_array(g: RegularGraph):
    """The (n, d) int64 numpy array of sorted neighbour lists."""
    import numpy as np

    return np.array(g.adj, dtype=np.int64)


def adjacency_csr(g: RegularGraph):
    """The 0/1 adjacency matrix as a scipy CSR matrix, one row per neighbour list."""
    import numpy as np
    import scipy.sparse as sp

    indptr = np.arange(0, g.n * g.d + 1, g.d)
    data = np.ones(g.n * g.d)
    return sp.csr_matrix((data, neighbour_array(g).ravel(), indptr), shape=(g.n, g.n))


def distance_rows(g: RegularGraph, sources=None):
    """Yield the hop-distance rows of single sources, a block at a time.

    ``sources`` defaults to every vertex.  Each block is a float (c, n) array
    whose i-th row holds the distances from the block's i-th source, with
    ``inf`` at unreachable vertices; blocks follow the order of ``sources``.
    Each block is one unweighted ``scipy.sparse.csgraph.shortest_path`` call
    on the CSR adjacency with c * n <= DISTANCE_CHUNK_ENTRIES, so memory stays
    O(c n) however many sources are asked for.
    """
    import numpy as np
    from scipy.sparse.csgraph import shortest_path

    src = np.arange(g.n) if sources is None else np.asarray(sources, dtype=np.int64)
    bad = src[(src < 0) | (src >= g.n)]
    if bad.size:
        raise ValueError(f"vertex {int(bad[0])} out of range [0, {g.n})")
    adj = adjacency_csr(g)
    rows = max(1, DISTANCE_CHUNK_ENTRIES // g.n)
    for start in range(0, len(src), rows):
        yield shortest_path(adj, method="D", unweighted=True, indices=src[start : start + rows])


# -- edge-list text format -----------------------------------------------------
#
# One "u v" pair per line; '#' starts a comment; blank lines ignored.  An
# optional first data line "n d" declares the size and is validated against
# the edges (it is re-emitted by save_edge_list).


def load_edge_list(text: str, one_based: bool = False) -> RegularGraph:
    rows = []  # (lineno, a, b)
    off = 1 if one_based else 0
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
            return RegularGraph.from_edges(n, [(a - off, b - off) for _, a, b in pairs])
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
    n_inferred = max(max(a, b) for _, a, b in rows) + 1 - off
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
