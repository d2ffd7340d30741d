import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from specgap.graphs import RegularGraph, complete_graph, disjoint_union
from specgap.rand import make_rng
from specgap.sampling import (
    ExplorationTrace,
    _collapsed_pairs,
    _fast_simple_attempt,
    explore,
    frontier_unique_bound,
    frontier_unique_montecarlo,
    sample_simple_regular,
)


class FixedPermutation(np.random.Generator):
    """A Generator whose ``permutation`` always returns the same array."""

    def __init__(self, points):
        super().__init__(np.random.PCG64(0))
        self.points = np.asarray(points, dtype=np.int64)

    def permutation(self, x):
        return self.points.copy()


def test_pairing_validation():
    # prefix: (p, q) point pairs, points in [0, n*d), each point at most once
    bad_prefixes = {
        "out of range": [(0, 180)],  # n*d = 180
        "pairs": [(0, 1, 2)],
        "twice": [(0, 1), (1, 2)],
    }
    for message, prefix in bad_prefixes.items():
        with pytest.raises(ValueError, match=message):
            frontier_unique_montecarlo(60, 3, range(10), prefix, 0.5, 10, make_rng(0))
    with pytest.raises(ValueError, match="twice"):
        frontier_unique_montecarlo(60, 3, range(10), [(4, 4)], 0.5, 10, make_rng(0))
    with pytest.raises(ValueError, match="out of range"):
        frontier_unique_montecarlo(60, 3, range(10), [(-1, 2)], 0.5, 10, make_rng(0))
    # a perfect matching needs an even number of points
    with pytest.raises(ValueError, match="even"):
        sample_simple_regular(5, 3, make_rng(0))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(10, 3), (30, 3), (16, 4), (40, 4), (20, 5)]),
    st.integers(0, 2**32 - 1),
)
def test_pairing_deterministic_given_seed(nd, seed):
    n, d = nd
    g1, rej1 = sample_simple_regular(n, d, make_rng(seed))
    g2, rej2 = sample_simple_regular(n, d, make_rng(seed))
    assert g1 == g2 and rej1 == rej2
    u1, v1 = _collapsed_pairs(make_rng(seed).permutation(n * d), d)
    u2, v2 = _collapsed_pairs(make_rng(seed).permutation(n * d), d)
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
    other = make_rng(seed + 1).permutation(n * d)
    assert not np.array_equal(make_rng(seed).permutation(n * d), other)
    mc1 = frontier_unique_montecarlo(n, d, [0, 1], [], 0.5, 5, make_rng(seed))
    mc2 = frontier_unique_montecarlo(n, d, [0, 1], [], 0.5, 5, make_rng(seed))
    assert mc1 == mc2


def test_pairing_uniform_n2_d3():
    # 6 points have 15 perfect matchings; chi-square over 1e5 draws.  With
    # d = 1 the helper's vertex pairs are the point pairs themselves.
    rng = make_rng(7)
    counts = {}
    draws = 100_000
    for _ in range(draws):
        u, v = _collapsed_pairs(rng.permutation(6), 1)
        key = tuple(sorted(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist())))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 15
    stat = chisquare(list(counts.values()))
    assert stat.pvalue > 0.001
    # collapsed at d = 3: a triple edge in 6 of the 15, a loop at each vertex in 9
    triples = sum(c for key, c in counts.items() if all((p < 3) != (q < 3) for p, q in key))
    stat = chisquare([triples, draws - triples], [draws * 6 / 15, draws * 9 / 15])
    assert stat.pvalue > 0.001


def test_collapse_preserves_degree_and_edge_count():
    rng = make_rng(3)
    for _ in range(20):
        u, v = _collapsed_pairs(rng.permutation(8 * 3), 3)
        assert len(u) == len(v) == 8 * 3 // 2
        # a loop (u == v) counts twice at its vertex
        assert np.bincount(np.concatenate([u, v]), minlength=8).tolist() == [3] * 8


def test_is_simple_detects_loops_and_multiedges():
    points = np.arange(12)  # (0, 1): a loop at vertex 0
    assert _fast_simple_attempt(4, 3, FixedPermutation(points)) is None
    doubled = [0, 3, 1, 4, 2, 6, 5, 9, 7, 10, 8, 11]  # (0, 3), (1, 4): 0-1 twice
    assert _fast_simple_attempt(4, 3, FixedPermutation(doubled)) is None
    # explicit pairing realizing K4: vertex v's points matched to the
    # other three vertices
    pairs = []
    slot = {v: 0 for v in range(4)}
    for u, v in combinations(range(4), 2):
        pairs.append((u * 3 + slot[u], v * 3 + slot[v]))
        slot[u] += 1
        slot[v] += 1
    edges = _fast_simple_attempt(4, 3, FixedPermutation(np.ravel(pairs)))
    assert edges == complete_graph(4).edges()
    assert RegularGraph.from_edges(4, edges) == complete_graph(4)


def test_sample_simple_regular_valid_and_deterministic():
    g1, rej1 = sample_simple_regular(100, 3, make_rng(9))
    g2, rej2 = sample_simple_regular(100, 3, make_rng(9))
    assert g1 == g2 and rej1 == rej2
    assert (g1.n, g1.d) == (100, 3)


def test_sample_simple_regular_budget_error():
    with pytest.raises(RuntimeError, match="budget"):
        # forcing zero budget makes the first rejection fatal with high
        # probability; retry a few seeds so the test is deterministic
        for seed in range(10):
            sample_simple_regular(100, 3, make_rng(seed), max_rejects=0)


def test_explore_k4_first_level():
    g = complete_graph(4)
    tr = explore(g, {0}, 2)
    assert tr.rows[0] == (0, 1, 1, 0)
    # the 3 frontier vertices each have exactly one edge back to {0}
    assert tr.rows[1] == (1, 4, 3, 3)
    assert tr.rows[2] == (2, 4, 0, 0)


def test_explore_saturated_seed():
    g = complete_graph(4)
    tr = explore(g, range(4), 3)
    assert tr.ball_sizes() == [4, 4, 4, 4]
    assert tr.frontier_sizes()[1:] == [0, 0, 0]


def test_explore_trace_invariants():
    rng = make_rng(21)
    g, _ = sample_simple_regular(60, 3, rng)
    tr = explore(g, {0, 5}, g.n)
    balls = tr.ball_sizes()
    assert all(b2 >= b1 for b1, b2 in zip(balls, balls[1:]))
    assert all(u <= f for _, _, f, u in tr.rows)
    assert sum(tr.frontier_sizes()) <= g.n


def test_frontier_unique_bound_formula():
    # direct formula evaluation
    assert frontier_unique_bound(0.5, 4, 100, 2) == pytest.approx(
        1.0 - (4 * math.e / 24.0) ** 1.0, rel=1e-12
    )
    assert frontier_unique_bound(0.5, 4, 100, 2) == pytest.approx(0.54695, abs=1e-5)
    # vacuous base clamps to zero
    assert frontier_unique_bound(0.9, 50, 110, 2) == 0.0
    with pytest.raises(ValueError):
        frontier_unique_bound(1.5, 4, 100, 2)
    with pytest.raises(ValueError):
        frontier_unique_bound(0.5, 4, 100, 60)


def test_frontier_unique_montecarlo_respects_bound():
    n, d = 60, 3
    r = list(range(10))
    prefix = [(0, 4)]  # one internal pair below R
    res = frontier_unique_montecarlo(n, d, r, prefix, 0.5, 1000, make_rng(17))
    assert res["frequency"] >= res["bound"] - 3 * res["stderr"]
    assert res["a_size"] == 10 * d - 2


def test_frontier_unique_montecarlo_validates_prefix():
    prefix = [(0, 100)]  # touches vertex 33, outside R
    with pytest.raises(ValueError, match="prefix"):
        frontier_unique_montecarlo(60, 3, range(10), prefix, 0.5, 10, make_rng(0))


def test_frontier_unique_count_excludes_double_edges():
    # n = 6, d = 3, R = {0}.  Vertex 0's points 0, 1, 2 go to points 3 and 4
    # (both below vertex 1: a doubled edge) and 6 (vertex 2); vertex 3 gets
    # a loop (9, 10).  Only vertex 2 is joined to R by exactly one edge.
    points = [0, 3, 1, 4, 2, 6, 9, 10, 5, 7, 8, 11, 12, 15, 13, 16, 14, 17]
    for theta, freq in ((0.3, 1.0), (0.5, 0.0)):  # thresholds 0.9 and 1.5
        res = frontier_unique_montecarlo(6, 3, [0], [], theta, 4, FixedPermutation(points))
        assert (res["frequency"], res["a_size"]) == (freq, 3)


def test_frontier_unique_montecarlo_rejects_odd_point_count():
    with pytest.raises(ValueError, match="even"):
        frontier_unique_montecarlo(61, 3, range(10), [], 0.5, 10, make_rng(0))


def test_frontier_unique_montecarlo_rejects_degree_two():
    with pytest.raises(ValueError, match="d >= 3"):
        frontier_unique_montecarlo(60, 2, range(10), [], 0.5, 10, make_rng(0))


def test_frontier_unique_montecarlo_rejects_prefix_of_other_degree():
    # pairs drawn on [60] x [4] name points past 60 * 3 = 180
    prefix = [(0, 1), (200, 201)]
    with pytest.raises(ValueError, match="out of range"):
        frontier_unique_montecarlo(60, 3, range(10), prefix, 0.5, 10, make_rng(0))


def test_frontier_unique_montecarlo_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials"):
        frontier_unique_montecarlo(60, 3, range(10), [], 0.5, 0, make_rng(0))
