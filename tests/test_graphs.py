import copy
import hashlib
import pickle
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

import specgap.graphs as graphs
from specgap.graphs import (
    INF,
    RegularGraph,
    bfs_distances,
    circular_ladder,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    distance_sum,
    load_edge_list,
    petersen_graph,
    save_edge_list,
)
from specgap.poincare import uc_experiment
from specgap.rand import make_rng
from specgap.sampling import sample_simple_regular


def deque_bfs(g, sources):
    """Reference BFS: one deque, one vertex at a time; inf where unreachable."""
    dist = [INF] * g.n
    q = deque()
    for v in set(sources):
        dist[v] = 0
        q.append(v)
    while q:
        u = q.popleft()
        for w in g.adj[u].tolist():
            if dist[w] == INF:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def test_k4_construction():
    g = complete_graph(4)
    assert (g.n, g.d) == (4, 3)
    edges = g.edges()
    assert edges.dtype == np.int64 and edges.shape == (6, 2)
    assert edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


def reference_from_edges(n, edges):
    """The set-loop builder: one neighbour set per vertex, checked edge by
    edge.  Returns (d, adj) with adj a list of sorted neighbour rows."""
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
    return d, [sorted(s) for s in nbrs]


FAULTY_EDGE_LISTS = [
    (4, [(0, 1), (1, 2), (2, 3), (3, 4)], "vertex out of range in edge (3, 4)"),
    (4, [(0, 0), (1, 2), (1, 3), (2, 3)], "self-loop at vertex 0"),
    (4, [(0, 1), (0, 1), (2, 3), (2, 3)], "duplicate edge (0, 1)"),
    (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], "graph is not regular: degrees [2, 3]"),
    # a 4-cycle is 2-regular, below the d >= 3 floor
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)], "degree must be at least 3, got 2"),
]


def test_invalid_graphs_rejected():
    # one edge list per fault kind: the same type and message as the set loop
    for n, edges, message in FAULTY_EDGE_LISTS:
        for build in (reference_from_edges, RegularGraph.from_edges):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(n, edges)


def test_from_edges_rejects_float_labels():
    # like graphs._vertices: no label is cast to an integer, not even 1.0
    for edges in ([(0.0, 1.0), (0, 2)], [(0.5, 1)], np.array([[0, 1], [2, 3]], dtype=float)):
        with pytest.raises(TypeError, match="vertices must be integers"):
            RegularGraph.from_edges(4, edges)
    with pytest.raises(ValueError, match="pairs"):
        RegularGraph.from_edges(4, [(0, 1, 2)])
    with pytest.raises(ValueError, match=r"not regular: degrees \[\]"):
        RegularGraph.from_edges(0, [])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(4, 3), (8, 3), (10, 4), (12, 5), (20, 3), (40, 6)]),
    st.integers(0, 2**32 - 1),
    st.randoms(use_true_random=False),
)
def test_from_edges_matches_set_loop_builder(nd, seed, random):
    n, d = nd
    g, _ = sample_simple_regular(n, d, make_rng(seed))
    perm = list(range(n))
    random.shuffle(perm)
    edges = [(perm[u], perm[v]) if random.random() < 0.5 else (perm[v], perm[u]) for u, v in g.edges()]
    random.shuffle(edges)
    h = RegularGraph.from_edges(n, edges)
    assert (h.n, h.d) == (n, d)
    assert h.adj.tolist() == reference_from_edges(n, edges)[1]
    assert np.array_equal(RegularGraph.from_edges(n, np.array(edges)).adj, h.adj)


def test_constructor_validates_neighbour_rows():
    good = petersen_graph().adj
    one_sided = good.copy()
    one_sided[0] = [1, 4, 6]  # 0 lists 6, which does not list it; 5 lists 0 alone
    repeated = complete_graph(4).adj.copy()
    repeated[0] = [1, 1, 2]
    cases = [
        (10, 3, good[:, :2], "shape"),
        (0, 3, np.zeros((0, 3), dtype=int), "shape"),
        (10, 3, good + 1, "vertex 10 out of range"),
        (10, 3, good - 1, "vertex -1 out of range"),
        # every row lists vertex 0: the loop at 0 is found first
        (3, 3, np.zeros((3, 3), dtype=int), "self-loop at vertex 0"),
        (4, 3, repeated, r"duplicate edge \(0, 1\)"),
        (10, 3, one_sided, "vertex 0 lists neighbour 6, but 6 does not list 0"),
        (6, 2, [[(v + 1) % 6, (v - 1) % 6] for v in range(6)], "degree must be at least 3, got 2"),
    ]
    for n, d, adj, message in cases:
        with pytest.raises(ValueError, match=message):
            RegularGraph(n, d, adj)
    with pytest.raises(TypeError, match="integers"):
        RegularGraph(10, 3, good.astype(float))
    with pytest.raises(TypeError):
        RegularGraph(10.0, 3, good)


def test_constructor_stores_sorted_read_only_copy():
    rows = petersen_graph().adj[:, ::-1].astype(np.int32)  # each row reversed
    g = RegularGraph(np.int64(10), 3, rows)
    assert g == petersen_graph() and type(g.n) is int and g.adj.dtype == np.int64
    assert not g.adj.flags.writeable
    rows[0, 0] = 9  # the caller's array stays its own
    assert g == petersen_graph()
    for back in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert back == g and not back.adj.flags.writeable


def test_dist_identity_and_complete():
    g = complete_graph(4)
    assert bfs_distances(g, [1])[1] == 0
    assert bfs_distances(g, [1])[3] == 1


def test_dist_disconnected_is_infinite():
    g = disjoint_union(complete_graph(4), complete_graph(4))
    assert bfs_distances(g, [0])[5] == INF
    assert bfs_distances(g, [1])[2] == 1


def test_dist_vertex_out_of_range():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="out of range"):
        bfs_distances(g, [7])
    with pytest.raises(ValueError, match="vertex -1 out of range"):
        bfs_distances(g, [-1])
    with pytest.raises(ValueError, match="vertex 4 out of range"):
        bfs_distances(g, [1, 4])
    with pytest.raises(ValueError, match="vertex 9 out of range"):
        bfs_distances(g, np.array([0, 9]))


def test_vertices_must_be_integers():
    g = petersen_graph()
    with pytest.raises(TypeError, match="integers"):
        bfs_distances(g, [1.5])
    with pytest.raises(TypeError, match="integers"):
        bfs_distances(g, np.array([0.0, 2.0]))
    with pytest.raises(TypeError, match="integers"):
        bfs_distances(g, {True})
    assert bfs_distances(g, np.array([3], dtype=np.uint8)).tolist() == deque_bfs(g, [3])


def test_dist_to_set_and_edge():
    g = petersen_graph()
    # vertex 0 is adjacent to 1; edge (1, 2) has endpoint 1
    to_edge = bfs_distances(g, (1, 2))
    assert (to_edge[0], to_edge[1], to_edge[8]) == (1, 0, 2)  # 8-6-1 and 8-3-2
    assert not bfs_distances(g, range(10)).any()
    assert (bfs_distances(g, []) == INF).all()  # the empty set reaches nothing


def test_ball_basics():
    g = complete_graph(4)
    assert np.flatnonzero(bfs_distances(g, {1}) <= 1).tolist() == [0, 1, 2, 3]
    assert np.flatnonzero(bfs_distances(g, {1, 2}) <= 0).tolist() == [1, 2]


def test_ball_monotone_and_growth_cap():
    g, _ = sample_simple_regular(20, 3, make_rng(5))
    for v in (0, 7, 13):
        dd = bfs_distances(g, [v])
        prev = set()
        for radius in range(0, g.n + 1):
            b = set(np.flatnonzero(dd <= radius).tolist())
            assert prev <= b
            d = g.d
            cap = 1 + d * ((d - 1) ** radius - 1) // (d - 2)
            assert len(b) <= cap
            prev = b
        assert np.array_equal(dd <= g.n, dd <= g.n + 5)


def test_dist_is_metric_on_components():
    g = petersen_graph()
    rng = make_rng(11)
    for _ in range(25):
        u, v, w = (int(x) for x in rng.integers(0, g.n, size=3))
        du, dv = bfs_distances(g, [u]), bfs_distances(g, [v])
        assert du[v] == dv[u]
        assert du[w] <= du[v] + dv[w]


def test_edge_list_roundtrip():
    g = petersen_graph()
    text = save_edge_list(g)
    g2 = load_edge_list(text)
    assert g2 == g
    assert save_edge_list(g2) == text


def test_edge_list_headerless_and_one_based():
    text = "\n".join(f"{u} {v}" for u, v in complete_graph(4).edges())
    assert load_edge_list(text) == complete_graph(4)
    # vertices are numbered from 0: a 1-based list leaves vertex 0 isolated
    text1 = "# comment\n" + "\n".join(
        f"{u + 1} {v + 1}" for u, v in complete_graph(4).edges()
    )
    with pytest.raises(ValueError, match="invalid edge list"):
        load_edge_list(text1)


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list("0 1\nbogus line\n")
    with pytest.raises(ValueError, match="not regular"):
        load_edge_list("0 1\n1 2\n2 3\n3 0\n0 2\n")
    with pytest.raises(ValueError, match="empty"):
        load_edge_list("# nothing\n\n")


def reference_load_edge_list(text):
    """The line-by-line reader that the one numpy parse replaced."""
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


def outcome(load, text):
    """The graph read, or the type and message of the error raised."""
    try:
        return load(text)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


K4_LINES = [f"{u} {v}" for u, v in complete_graph(4).edges()]
EDGE_LIST_TEXTS = [
    "4 3\n" + "\n".join(K4_LINES),
    "\n".join(K4_LINES),
    "# K4\n\n4 3  # header\n" + "\n\n".join(K4_LINES) + "\n# end",
    "\r\n".join(K4_LINES) + "\r\n",
    "\x0c".join(K4_LINES),
    "\n".join(line.replace(" ", "\t\x1f ") for line in K4_LINES),
    "\n".join(line.replace(" ", "\xa0") for line in K4_LINES),
    "\n".join(f" +{line}# x" for line in K4_LINES),
    "4 3\n" + "\n".join(K4_LINES[:-1]) + "\n2 3 4",
    "4 3\n" + "\n".join(K4_LINES[:-1]) + "\n2\n3",
    "4 3\n" + "\n".join(K4_LINES[:-1]) + "\n2 3.0",
    "4 3\n" + "\n".join(K4_LINES[:-1]) + "\n2 0x3",
    "4 3\n" + "\n".join(K4_LINES[:-1]) + "\n2 3 # x 4",
    "4 3\n" + "\n".join(K4_LINES[:-1]) + "\n2#x 3",
    "4 3\n" + "\n".join(K4_LINES[:-1]) + "\n2 3\x00",
    "4 3\n" + "\n".join(K4_LINES[:-1]) + "\n2 0_3",
    "4 3\n" + "\n".join(K4_LINES[:-1]) + "\n\uff12 \u0663",
    "4 3\n" + "\n".join(K4_LINES[:-1]) + "\n2 99999999999999999999",
    "4 3\n" + "\n".join(K4_LINES),
    "5 3\n" + "\n".join(K4_LINES),
    "4 2\n0 1\n1 2\n2 3\n3 0",
    "-1 -2\n-2 -1",
    "0 5",
    "",
    "   \n# nothing\n\t",
    "0 1 # comment",
]


@pytest.mark.parametrize("text", EDGE_LIST_TEXTS)
def test_load_edge_list_matches_line_reader(text):
    assert outcome(load_edge_list, text) == outcome(reference_load_edge_list, text)


def test_load_edge_list_reads_well_formed_texts_in_one_parse(monkeypatch):
    def no_line_reader(text):
        raise AssertionError("line reader called on a well-formed text")

    monkeypatch.setattr(graphs, "_edge_rows", no_line_reader)
    for text in EDGE_LIST_TEXTS[:8]:
        assert load_edge_list(text) == complete_graph(4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(K4_LINES + ["4 3", "", "#", "1", "1 2 3", " 0 2 ", "2\t3", "x y", "1.5 2"]), max_size=9))
def test_load_edge_list_matches_line_reader_on_drawn_texts(lines):
    text = "\n".join(lines)
    assert outcome(load_edge_list, text) == outcome(reference_load_edge_list, text)


def test_named_graphs():
    assert complete_bipartite(3, 3).d == 3
    assert petersen_graph().d == 3
    cl = circular_ladder(6)
    assert (cl.n, cl.d) == (12, 3)
    with pytest.raises(ValueError):
        complete_bipartite(2, 3)


def _bfs_table(g, sources):
    return np.array([deque_bfs(g, [v]) for v in sources], dtype=float)


def _bfs_cases():
    cases = [
        complete_graph(4),
        complete_bipartite(3, 3),
        petersen_graph(),
        circular_ladder(7),
        disjoint_union(complete_graph(4), complete_graph(4)),
        disjoint_union(petersen_graph(), circular_ladder(5)),
    ]
    return cases + [
        sample_simple_regular(n, d, make_rng(n + d))[0]
        for n, d in ((30, 3), (82, 4), (200, 3), (500, 6))
    ]


def test_bfs_distances_match_deque_oracle():
    rng = make_rng(31)
    for g in _bfs_cases():
        source_sets = [[v] for v in range(0, g.n, max(1, g.n // 7))]
        source_sets += [
            rng.choice(g.n, size=k, replace=False).tolist() for k in (2, 3, max(2, g.n // 4))
        ]
        source_sets += [[0, 0, g.n - 1], list(range(g.n)), []]
        for sources in source_sets:
            dd = bfs_distances(g, sources)
            assert dd.dtype == float and dd.shape == (g.n,)
            assert dd.tolist() == deque_bfs(g, sources)
        sources = source_sets[-4]  # a random multi-source set, as an array and as a set
        assert bfs_distances(g, np.array(sources)).tolist() == deque_bfs(g, sources)
        assert bfs_distances(g, set(sources)).tolist() == deque_bfs(g, sources)


def test_adj_is_read_only_sorted_array():
    g = petersen_graph()
    assert g.adj.dtype == np.int64 and g.adj.shape == (10, 3)
    assert np.array_equal(g.adj, np.sort(g.adj, axis=1))
    with pytest.raises(ValueError, match="read-only"):
        g.adj[0, 0] = 9
    with pytest.raises(ValueError, match="read-only"):
        g.adj.ravel()[0] = 9
    assert g == petersen_graph() and hash(g) == hash(petersen_graph())
    assert g != circular_ladder(5)
    assert g != disjoint_union(complete_graph(4), complete_graph(4))


def test_sampler_pinned_graphs():
    """Edge digests and restart counts of sample_simple_regular, pinned."""
    # both sizes switch out loops and double pairs (limits (2, 4) and (3, 9))
    pinned = {
        (100, 3): [
            ("2bc217922a7a31aa", 0),
            ("948828d0c39c57f7", 0),
            ("14d6d510493dd346", 1),
            ("15a036b34664d3f9", 0),
            ("269383f9ab18da6c", 1),
        ],
        (200, 4): [
            ("c1240330b2573a51", 2),
            ("dc049314e584d1ea", 1),
            ("62678adb1761bc28", 5),
            ("72a34615e4c92579", 0),
            ("e723b07bae99cb43", 0),
        ],
    }
    for (n, d), expected in pinned.items():
        got = []
        for seed in range(5):
            g, rejections = sample_simple_regular(n, d, make_rng(seed))
            digest = hashlib.sha256(save_edge_list(g).encode()).hexdigest()[:16]
            got.append((digest, rejections))
        assert got == expected


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(8, 3), (10, 4), (12, 5), (20, 3), (40, 4), (30, 5)]),
    st.integers(0, 2**32 - 1),
    st.randoms(use_true_random=False),
)
def test_edge_list_roundtrip_relabelled(nd, seed, random):
    n, d = nd
    g, _ = sample_simple_regular(n, d, make_rng(seed))
    perm = list(range(n))
    random.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    random.shuffle(edges)
    h = RegularGraph.from_edges(n, edges)
    for graph in (g, h):
        back = load_edge_list(save_edge_list(graph))
        assert back == graph and hash(back) == hash(graph)
        assert np.array_equal(back.edges(), graph.edges())
    # the same edge set, listed in another order and orientation
    flipped = RegularGraph.from_edges(n, [(v, u) for u, v in reversed(edges)])
    assert flipped == h and hash(flipped) == hash(h)


def sweep_rows(g, sources):
    """The float (len(sources), n) distance rows that the per-source sweep
    ``_level_sets`` encodes, inf where no level sets a pair's bit.

    Asserts the sweep's format on the way: levels 0, 1, 2, ... with sorted,
    distinct vertices; one word per 64 sources, no bit past the last source;
    no (source, vertex) pair set at two levels; and ball bits that are the
    OR of the level bits so far.
    """
    src = np.asarray(sources, dtype=np.int64)
    rows = np.full((len(src), g.n), INF)
    words = -(-len(src) // 64)
    so_far = np.zeros((g.n, words), dtype=np.uint64)
    for expected, (level, vertices, bits, balls) in enumerate(graphs._level_sets(g, src)):
        assert level == expected and np.all(np.diff(vertices) > 0)
        assert bits.dtype == np.uint64 and bits.shape == (len(vertices), words)
        so_far[vertices] |= bits
        assert balls.dtype == np.uint64 and np.array_equal(balls, so_far)
        octets = bits.astype("<u8", copy=False).view(np.uint8)
        hit = np.unpackbits(octets, axis=1, bitorder="little").view(bool).T
        assert not hit[len(src) :].any()
        hit = hit[: len(src)]  # hit[i, k]: source i first reaches vertices[k] here
        at = rows[:, vertices]
        assert np.all(at[hit] == INF), "a pair set at two levels"
        at[hit] = level
        rows[:, vertices] = at
    return rows


def test_distance_rows_match_bfs():
    # every reachable (source, vertex) pair at one level, its distance
    cases = [
        petersen_graph(),
        circular_ladder(7),
        disjoint_union(complete_graph(4), complete_graph(4)),
    ]
    cases += [sample_simple_regular(n, d, make_rng(n + d))[0] for n, d in ((30, 3), (82, 4))]
    for g in cases:
        assert np.array_equal(sweep_rows(g, range(g.n)), _bfs_table(g, range(g.n)))
        sources = [g.n - 1, 0, 3, 3]
        assert np.array_equal(sweep_rows(g, sources), _bfs_table(g, sources))


def test_distance_rows_blocks(monkeypatch):
    # distance_sum sweeps _CHUNK_ENTRIES // n sources at a time (at least
    # one), in order, every block of a disconnected graph too, and any block
    # size gives the same sum
    sweeps = []
    sweep = graphs._level_sets

    def spy(g, src):
        sweeps.append(src.tolist())
        return sweep(g, src)

    monkeypatch.setattr(graphs, "_level_sets", spy)
    for g in (circular_ladder(9), disjoint_union(complete_graph(4), petersen_graph())):
        want = float(_bfs_table(g, range(g.n)).sum())
        for entries in (1, 5 * g.n, 17 * g.n, g.n * g.n, 1 << 22):
            monkeypatch.setattr(graphs, "_CHUNK_ENTRIES", entries)
            sweeps.clear()
            assert distance_sum(g) == want, (g.n, entries)
            step = max(1, entries // g.n)
            blocks = [list(range(i, min(i + step, g.n))) for i in range(0, g.n, step)]
            assert sweeps == blocks, (g.n, entries)


@pytest.mark.parametrize("per_block", [1, 3, None])
def test_ball_counts_match_per_source_bfs(monkeypatch, per_block):
    # a count of every ball's sources and an (m,) count of each edge's seers,
    # against one BFS per source; on the union, blocks of 1 or 3 sources end
    # their sweeps at different levels and carry their last counts (None
    # keeps the default block)
    union = disjoint_union(complete_graph(4), petersen_graph())
    for g in (circular_ladder(9), petersen_graph(), union):
        if per_block is not None:
            monkeypatch.setattr(graphs, "_CHUNK_ENTRIES", per_block * g.n)
        dist = np.array([bfs_distances(g, [s]) for s in range(g.n)])  # dist[s, v]
        levels = np.arange(int(dist[np.isfinite(dist)].max()) + 1)
        within = dist <= levels[:, None, None]  # within[l, s, v]
        u, w = g.edges().T
        got = graphs._ball_counts(g, lambda balls: np.bitwise_count(balls).sum())
        np.testing.assert_array_equal(got, within.sum(axis=(1, 2)))
        got = graphs._ball_counts(g, lambda b: np.bitwise_count(b[u] | b[w]).sum(axis=1))
        np.testing.assert_array_equal(got, (within[:, :, u] | within[:, :, w]).sum(axis=1))
        assert got.dtype == np.int64


def test_distance_rows_unreachable_is_inf():
    g = disjoint_union(complete_graph(4), complete_graph(4))
    rows = sweep_rows(g, [0, 5])
    assert rows[0].tolist() == [0, 1, 1, 1, INF, INF, INF, INF]
    assert rows[1].tolist() == [INF, INF, INF, INF, 1, 0, 1, 1]


def csgraph_rows(g, sources):
    """Reference rows: scipy's unweighted shortest paths on the edge list."""
    u, v = np.array(g.edges()).T
    adj = coo_matrix((np.ones(len(u)), (u, v)), shape=(g.n, g.n)).tocsr()
    return shortest_path(adj, unweighted=True, directed=False, indices=np.asarray(sources))


@st.composite
def bfs_graphs(draw):
    """A sampled graph, a circular ladder, or the disjoint union of two such
    3-regular graphs (so that some distances are infinite)."""

    def one(d):
        if d == 3 and draw(st.booleans()):
            return circular_ladder(draw(st.integers(3, 40)))
        n = draw(st.integers(d + 1, 80).filter(lambda n: n * d % 2 == 0))
        return sample_simple_regular(n, d, make_rng(draw(st.integers(0, 2**16))))[0]

    kind = draw(st.sampled_from(["one", "union"]))
    if kind == "union":
        return disjoint_union(one(3), one(3))
    return one(draw(st.sampled_from([3, 4, 6])))


@settings(max_examples=60, deadline=None)
@given(
    bfs_graphs(),
    st.sampled_from([1, 63, 64, 65, 129]),
    st.sampled_from([None, 1, 5, 63, 64, 70, 100]),
    st.data(),
)
def test_distance_rows_match_csgraph(g, length, block_rows, data):
    # duplicates and arbitrary order, around the 64-bit words of the sweep's
    # bitsets; block_rows sets distance_sum's sources per sweep (None keeps
    # the default)
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=length, max_size=length))
    assert np.array_equal(sweep_rows(g, sources), csgraph_rows(g, sources))
    every = csgraph_rows(g, range(g.n))
    assert np.array_equal(sweep_rows(g, range(g.n)), every)
    total = float(every.sum())
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(graphs, "_CHUNK_ENTRIES", block_rows * g.n)
        assert distance_sum(g) == total
        (row,) = uc_experiment([g])
    assert row["avg_distance"] == total / g.n**2
    assert row["avg_distance_distinct"] == total / (g.n * (g.n - 1))


def test_distance_rows_source_out_of_range():
    # the sweep's callers check their sources with _vertices
    with pytest.raises(ValueError, match="vertex 10 out of range"):
        graphs._vertices(petersen_graph(), [0, 10])
    with pytest.raises(ValueError, match="vertex -1 out of range"):
        graphs._vertices(petersen_graph(), [-1])
