import numpy as np
import pytest

import specgap.graphs as graphs
from specgap.graphs import (
    INF,
    RegularGraph,
    ball,
    bfs_distances,
    boundary,
    circular_ladder,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    dist,
    dist_to_edge,
    dist_to_set,
    distance_rows,
    load_edge_list,
    petersen_graph,
    save_edge_list,
)
from specgap.rand import make_rng
from specgap.sampling import sample_simple_regular


def test_k4_construction():
    g = complete_graph(4)
    assert (g.n, g.d) == (4, 3)
    assert g.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_invalid_graphs_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        RegularGraph.from_edges(4, [(0, 0), (1, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError, match="duplicate"):
        RegularGraph.from_edges(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    with pytest.raises(ValueError, match="not regular"):
        RegularGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(ValueError, match="degree"):
        # a 4-cycle is 2-regular, below the d >= 3 floor
        RegularGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_dist_identity_and_complete():
    g = complete_graph(4)
    assert dist(g, 1, 1) == 0
    assert dist(g, 1, 3) == 1


def test_dist_disconnected_is_infinite():
    g = disjoint_union(complete_graph(4), complete_graph(4))
    assert dist(g, 0, 5) == INF
    assert dist(g, 1, 2) == 1


def test_dist_vertex_out_of_range():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="out of range"):
        dist(g, 0, 7)


def test_dist_to_set_and_edge():
    g = petersen_graph()
    # vertex 0 is adjacent to 1; edge (1, 2) has endpoint 1
    assert dist_to_edge(g, 0, (1, 2)) == 1
    assert dist_to_edge(g, 1, (1, 2)) == 0
    assert dist_to_set(g, 3, range(10)) == 0
    with pytest.raises(ValueError, match="empty"):
        dist_to_set(g, 0, [])


def test_ball_basics():
    g = complete_graph(4)
    assert ball(g, {1}, 1) == frozenset(range(4))
    assert ball(g, {1, 2}, 0) == frozenset({1, 2})
    assert ball(g, set(), 3) == frozenset()
    assert ball(g, {1}, -1) == frozenset()
    assert boundary(g, {0}, 1) == frozenset({1, 2, 3})


def test_ball_monotone_and_growth_cap():
    g, _ = sample_simple_regular(20, 3, make_rng(5))
    for v in (0, 7, 13):
        prev = frozenset()
        for radius in range(0, g.n + 1):
            b = ball(g, {v}, radius)
            assert prev <= b
            d = g.d
            cap = 1 + d * ((d - 1) ** radius - 1) // (d - 2)
            assert len(b) <= cap
            prev = b
        assert ball(g, {v}, g.n) == ball(g, {v}, g.n + 5)


def test_dist_is_metric_on_components():
    g = petersen_graph()
    rng = make_rng(11)
    for _ in range(25):
        u, v, w = (int(x) for x in rng.integers(0, g.n, size=3))
        assert dist(g, u, v) == dist(g, v, u)
        assert dist(g, u, w) <= dist(g, u, v) + dist(g, v, w)


def test_edge_list_roundtrip():
    g = petersen_graph()
    text = save_edge_list(g)
    g2 = load_edge_list(text)
    assert g2 == g
    assert save_edge_list(g2) == text


def test_edge_list_headerless_and_one_based():
    text = "\n".join(f"{u} {v}" for u, v in complete_graph(4).edges())
    assert load_edge_list(text) == complete_graph(4)
    text1 = "# comment\n" + "\n".join(
        f"{u + 1} {v + 1}" for u, v in complete_graph(4).edges()
    )
    assert load_edge_list(text1, one_based=True) == complete_graph(4)


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list("0 1\nbogus line\n")
    with pytest.raises(ValueError, match="not regular"):
        load_edge_list("0 1\n1 2\n2 3\n3 0\n0 2\n")
    with pytest.raises(ValueError, match="empty"):
        load_edge_list("# nothing\n\n")


def test_named_graphs():
    assert complete_bipartite(3, 3).d == 3
    assert petersen_graph().d == 3
    cl = circular_ladder(6)
    assert (cl.n, cl.d) == (12, 3)
    with pytest.raises(ValueError):
        complete_bipartite(2, 3)


def _bfs_table(g, sources):
    return np.array([bfs_distances(g, [v]) for v in sources], dtype=float)


def test_distance_rows_match_bfs():
    cases = [
        petersen_graph(),
        circular_ladder(7),
        disjoint_union(complete_graph(4), complete_graph(4)),
    ]
    cases += [sample_simple_regular(n, d, make_rng(n + d))[0] for n, d in ((30, 3), (82, 4))]
    for g in cases:
        rows = np.vstack(list(distance_rows(g)))
        assert np.array_equal(rows, _bfs_table(g, range(g.n)))
        sources = [g.n - 1, 0, 3, 3]
        assert np.array_equal(np.vstack(list(distance_rows(g, sources))), _bfs_table(g, sources))


def test_distance_rows_blocks(monkeypatch):
    g = circular_ladder(9)  # n = 18
    monkeypatch.setattr(graphs, "DISTANCE_CHUNK_ENTRIES", 5 * 18)
    blocks = list(distance_rows(g))
    assert [b.shape for b in blocks] == [(5, 18)] * 3 + [(3, 18)]
    assert np.array_equal(np.vstack(blocks), _bfs_table(g, range(18)))


def test_distance_rows_unreachable_is_inf():
    g = disjoint_union(complete_graph(4), complete_graph(4))
    (rows,) = distance_rows(g, [0, 5])
    assert rows.dtype == float
    assert rows[0].tolist() == [0, 1, 1, 1, INF, INF, INF, INF]
    assert rows[1].tolist() == [INF, INF, INF, INF, 1, 0, 1, 1]


def test_distance_rows_source_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        list(distance_rows(petersen_graph(), [0, 10]))
    with pytest.raises(ValueError, match="out of range"):
        list(distance_rows(petersen_graph(), [-1]))
