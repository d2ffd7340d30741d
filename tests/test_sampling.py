import copy
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2_contingency, chisquare

from specgap import sampling
from specgap.graphs import RegularGraph, complete_graph, disjoint_union
from specgap.rand import as_rng, make_rng
from specgap.sampling import (
    ExplorationTrace,
    _classify,
    _collapsed_pairs,
    _double_floor,
    _loop_floor,
    _Pairing,
    _switch_limits,
    explore,
    sample_simple_regular,
)


def reference_rejection_sample(n, d, rng):
    """Plain rejection: redraw the pairing until it collapses to a simple
    graph.  Returns (graph, rejections) like ``sample_simple_regular``, with
    the same budget."""
    rng = as_rng(rng)
    rejections = 0
    while True:
        u, v = _collapsed_pairs(rng.permutation(n * d), d)
        if not np.any(u == v):
            keys = np.sort(np.minimum(u, v).astype(np.int64) * n + np.maximum(u, v))
            if not np.any(keys[1:] == keys[:-1]):
                edges = zip((keys // n).tolist(), (keys % n).tolist())
                return RegularGraph.from_edges(n, edges), rejections
        rejections += 1
        if rejections > sampling._restart_budget(d):
            raise RuntimeError(f"rejection budget exhausted after {rejections} pairings")


class FixedPermutation(np.random.Generator):
    """A Generator whose ``permutation`` always returns the same array and
    counts its calls in ``drawn``."""

    def __init__(self, points):
        super().__init__(np.random.PCG64(0))
        self.points = np.asarray(points, dtype=np.int64)
        self.drawn = 0

    def permutation(self, x):
        self.drawn += 1
        return self.points.copy()


def test_pairing_validation():
    # a perfect matching needs an even number of points
    with pytest.raises(ValueError, match="even"):
        sample_simple_regular(5, 3, make_rng(0))
    # no simple d-regular graph has n <= d vertices; the refusal comes before
    # the rng is even read, so no rng is needed
    for n, d in ((4, 4), (6, 6)):
        with pytest.raises(ValueError, match="n > d"):
            sample_simple_regular(n, d, None)


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


def pairing_of(n, d, edges):
    """Point array of a pairing whose pairs collapse to ``edges`` (loops
    allowed), each vertex's points used in order."""
    slot, points = [0] * n, []
    for edge in edges:
        for v in edge:
            points.append(v * d + slot[v])
            slot[v] += 1
    return np.array(points)


def test_pairing_graph_rejects_non_involutive_partner():
    # a simple pairing of the prism graph C_3 x K_2, then a partner map that
    # sends point (v, j) to point (v + j + 1 mod 6, j): no loop and no
    # repeated neighbour, but v lists v + 1 and v + 1 does not list v
    prism = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    points = pairing_of(6, 3, prism)
    loops, doubles = _classify(points, 6, 3, 0, 0)
    pairing = _Pairing(points, 6, 3, loops, doubles)
    assert pairing.graph() == RegularGraph.from_edges(6, prism)
    v, j = np.divmod(np.arange(18), 3)
    pairing.partner = 3 * ((v + j + 1) % 6) + j
    assert not np.array_equal(pairing.partner[pairing.partner], np.arange(18))
    with pytest.raises(RuntimeError, match="not a simple 3-regular graph") as info:
        pairing.graph()
    assert "does not list" in str(info.value.__cause__)


def test_is_simple_detects_loops_and_multiedges(monkeypatch):
    points = np.arange(12)  # pairs (0, 1), (4, 5), (6, 7), (10, 11): a loop at each vertex
    loops, doubles = _classify(points, 4, 3, 4, 0)
    assert loops.tolist() == [0, 2, 3, 5] and doubles.shape == (0, 2)
    assert _classify(points, 4, 3, 3, 0) is None
    with pytest.raises(RuntimeError, match="not a simple"):
        _Pairing(points, 4, 3, loops, doubles).graph()
    # a loop at each of 6 vertices, and (6, 3) keeps no loop: every draw restarts
    monkeypatch.setattr(sampling, "_restart_budget", lambda d: 3)
    assert _switch_limits(6, 3) == (0, 0)
    rng = FixedPermutation(np.arange(18))
    with pytest.raises(RuntimeError, match="budget"):
        sample_simple_regular(6, 3, rng)
    assert rng.drawn == 4
    # 0-1 (pairs 0, 1) and 2-3 (pairs 4, 5) twice
    doubled = np.array([0, 3, 1, 4, 2, 6, 5, 9, 7, 10, 8, 11])
    loops, doubles = _classify(doubled, 4, 3, 0, 2)
    assert loops.size == 0 and doubles.tolist() == [[0, 1], [4, 5]]
    assert _classify(doubled, 4, 3, 0, 1) is None
    # a triple pair; a vertex with a loop and a double pair
    assert _classify(pairing_of(4, 3, [(0, 1)] * 3 + [(2, 3)] * 3), 4, 3, 9, 9) is None
    overlap = [(0, 0), (0, 1), (0, 1), (1, 2), (1, 3), (2, 3)]
    overlap += [(2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (4, 5)]
    assert _classify(pairing_of(6, 4, overlap), 6, 4, 9, 9) is None
    apart = [(0, 1), (0, 1), (0, 4), (0, 5), (1, 2), (1, 3)]
    apart += [(2, 3), (2, 4), (2, 5), (3, 3), (4, 5), (4, 5)]
    loops, doubles = _classify(pairing_of(6, 4, apart), 6, 4, 9, 9)
    assert loops.tolist() == [9] and doubles.tolist() == [[0, 1], [10, 11]]
    k4 = pairing_of(4, 3, combinations(range(4), 2))
    loops, doubles = _classify(k4, 4, 3, 0, 0)
    assert loops.size == 0 and doubles.size == 0
    assert sample_simple_regular(4, 3, FixedPermutation(k4)) == (complete_graph(4), 0)


def test_sample_simple_regular_valid_and_deterministic():
    g1, rej1 = sample_simple_regular(100, 3, make_rng(9))
    g2, rej2 = sample_simple_regular(100, 3, make_rng(9))
    assert g1 == g2 and rej1 == rej2
    assert (g1.n, g1.d) == (100, 3)


def test_complete_graph_returns_at_once():
    # K30 is the only 29-regular graph on 30 vertices; plain rejection accepts
    # about exp(-210) of its pairings and never returned
    rng = make_rng(0)
    assert sample_simple_regular(30, 29, rng) == (complete_graph(30), 0)
    assert rng.random() == make_rng(0).random()  # nothing drawn
    assert sample_simple_regular(4, 3, 1) == (complete_graph(4), 0)
    # K4 even where every pairing the rng would give has a loop at each vertex
    rng = FixedPermutation(np.arange(12))
    assert sample_simple_regular(4, 3, rng) == (complete_graph(4), 0)
    assert rng.drawn == 0


@pytest.mark.parametrize("n, d", [(56, 54), (10**4, 60)])
def test_sampler_refuses_a_budget_beyond_the_double_range(n, d):
    # 100 exp((d^2 - 1)/4) overflows a double from d = 54 on: refused by d
    # before any draw, while n = d + 1 still returns K_n
    rng = FixedPermutation(np.arange(n * d))
    with pytest.raises(ValueError, match=f"d={d}"):
        sample_simple_regular(n, d, rng)
    assert rng.drawn == 0
    assert sample_simple_regular(d + 1, d, rng) == (complete_graph(d + 1), 0)


@pytest.mark.parametrize("n, d", [(10.0, 3), (10, 3.0)])
def test_sample_simple_regular_refuses_non_integer_sizes(n, d):
    rng = FixedPermutation(np.arange(30))
    with pytest.raises(TypeError):
        sample_simple_regular(n, d, rng)
    assert rng.drawn == 0


def test_sample_simple_regular_budget_error(monkeypatch):
    monkeypatch.setattr(sampling, "_restart_budget", lambda d: 0)
    with pytest.raises(RuntimeError, match="budget"):
        # a zero budget makes the first rejection fatal with high
        # probability; retry a few seeds so the test is deterministic
        for seed in range(10):
            sample_simple_regular(100, 3, make_rng(seed))


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
    assert [f for _, _, f, _ in tr.rows[1:]] == [0, 0, 0]


def test_explore_trace_invariants():
    rng = make_rng(21)
    g, _ = sample_simple_regular(60, 3, rng)
    tr = explore(g, {0, 5}, g.n)
    balls = tr.ball_sizes()
    assert all(b2 >= b1 for b1, b2 in zip(balls, balls[1:]))
    assert all(u <= f for _, _, f, u in tr.rows)
    assert sum(f for _, _, f, _ in tr.rows) <= g.n


def test_explore_refuses_negative_depth():
    # l_max goes through operator.index: a negative depth used to return an
    # empty trace, and a float depth is no level count
    g = complete_graph(4)
    with pytest.raises(ValueError, match="l_max must be >= 0"):
        explore(g, {0}, -1)
    with pytest.raises(TypeError):
        explore(g, {0}, 2.0)
    assert explore(g, {0}, np.int64(0)).rows == ((0, 1, 1, 0),)


# -- exactness of the switchings: brute-force inverse switchings ---------------


def oracle_defects(points, d):
    """Loop pair indices and double pair index pairs of the pairing that
    matches points 2i and 2i + 1, by a dict of vertex pairs; None for a
    triple pair or a vertex in two defects."""
    groups = {}
    for i in range(len(points) // 2):
        key = tuple(sorted((points[2 * i] // d, points[2 * i + 1] // d)))
        groups.setdefault(key, []).append(i)
    loops = [i for (u, v), pairs in groups.items() if u == v for i in pairs]
    doubles = [pairs for (u, v), pairs in groups.items() if u != v and len(pairs) == 2]
    ends = [points[2 * i] // d for i in loops]
    ends += [points[2 * i + j] // d for i, _ in doubles for j in (0, 1)]
    if any(len(pairs) > 2 for pairs in groups.values()) or len(set(ends)) < len(ends):
        return None
    return loops, doubles


def pairing_in_class(n, d, loops, doubles, seed):
    """The first pairing of a seeded stream with exactly ``loops`` loops and
    ``doubles`` double pairs (and no other defect), as a _Pairing, and its
    point list; ``_classify`` is checked against the oracle on every draw."""
    rng = make_rng(seed)
    while True:
        points = rng.permutation(n * d)
        found = oracle_defects(points.tolist(), d)
        classified = _classify(points, n, d, loops, doubles)
        outside = found is None or len(found[0]) > loops or len(found[1]) > doubles
        assert (classified is None) == outside
        if classified is not None:
            assert classified[0].tolist() == found[0]
            assert sorted(map(sorted, classified[1].tolist())) == sorted(found[1])
            if (len(found[0]), len(found[1])) == (loops, doubles):
                return _Pairing(points, n, d, *classified), points.tolist()


def preimage(points, new_pairs, n, d, loops, doubles):
    """The pairing ``points`` with the pairs through the points of
    ``new_pairs`` replaced by them, as a _Pairing, when ``_classify`` puts
    it in the class of ``loops`` loops and ``doubles`` double pairs."""
    before = list(points)
    slots = sorted({points.index(p) // 2 for pair in new_pairs for p in pair})
    for slot, (a, b) in zip(slots, new_pairs):
        before[2 * slot], before[2 * slot + 1] = a, b
    before = np.array(before)
    found = _classify(before, n, d, loops, doubles)
    if found is None or (found[0].size, len(found[1])) != (loops, doubles):
        return None
    return _Pairing(before, n, d, *found)


def ordered_two_paths(n, d):
    """(p, r): every ordered pair of distinct points below one vertex."""
    return [(p, r) for p in range(n * d) for r in range(p // d * d, p // d * d + d) if r != p]


def inverse_loop_switchings(q, points):
    """Counter over the 2-paths (p3, p1, p2, p5) of q of the inverse
    l-switchings through them: every re-pairing p1p2, p3p4, p5p6 whose
    result lies in the class above q's and switches back to q."""
    partner, loops, doubles = q.partner.tolist(), len(q.loops) + 1, len(q.doubles)
    counts = Counter()
    for p1, p2 in ordered_two_paths(q.n, q.d):
        p3, p5 = partner[p1], partner[p2]
        for p4 in range(q.n * q.d):
            p6 = partner[p4]
            if len({p1, p2, p3, p4, p5, p6}) == 6:
                p = preimage(points, [(p1, p2), (p3, p4), (p5, p6)], q.n, q.d, loops, doubles)
                switched = p is not None and p.loop_switch(p1, p3, p5)
                if switched and p.partner.tolist() == partner:
                    counts[p3, p1, p2, p5] += 1
    return counts


def inverse_double_switchings(q, points):
    """Counter over the 2-paths (p5, p1, p3, p7) of q of the inverse
    d-switchings through them: every re-pairing p1p2, p3p4, p5p6, p7p8
    whose result lies in the class above q's and switches back to q."""
    partner, doubles = q.partner.tolist(), len(q.doubles) + 1
    counts = Counter()
    paths = ordered_two_paths(q.n, q.d)
    for p1, p3 in paths:
        p5, p7 = partner[p1], partner[p3]
        for p2, p4 in paths:
            p6, p8 = partner[p2], partner[p4]
            if len({p1, p2, p3, p4, p5, p6, p7, p8}) == 8:
                p = preimage(points, [(p1, p2), (p3, p4), (p5, p6), (p7, p8)], q.n, q.d, 0, doubles)
                switched = p is not None and p.double_switch(p1, p3, p5, p7)
                if switched and p.partner.tolist() == partner:
                    counts[p5, p1, p3, p7] += 1
    return counts


def defect_points(p):
    """The point sets of the loops and double pairs a _Pairing keeps."""
    partner = p.partner.tolist()
    return {frozenset([a, partner[a]]) for a in p.loops} | {
        frozenset([a, b, partner[a], partner[b]]) for a, b in p.doubles
    }


SWITCH_CASES = [
    (16, 3, "loop"),
    (16, 4, "loop"),
    (24, 3, "loop"),
    (24, 4, "loop"),
    (16, 3, "double"),
    (24, 3, "double"),
    (24, 4, "double"),
]


@pytest.mark.parametrize("n, d, kind", SWITCH_CASES)
def test_valid_switchings_land_in_the_next_class(n, d, kind):
    # a switching the forward check lets through removes its defect, makes
    # no other, and leaves the bookkeeping a fresh classification would give
    l1, l2 = _switch_limits(n, d)
    loops, doubles = (l1, min(l2, 1)) if kind == "loop" else (0, l2)
    p, _ = pairing_in_class(n, d, loops, doubles, n + d + 1)
    rng = make_rng(n * d)
    valid = 0
    for _ in range(400):
        q = copy.deepcopy(p)
        if kind == "loop":
            pick, p3, p5 = rng.integers((2 * loops, n * d, n * d)).tolist()
            p1 = q.loops[pick // 2]
            p1 = int(q.partner[p1]) if pick % 2 else p1
            if not q.loop_switch(p1, p3, p5):
                continue
            del q.loops[pick // 2]
        else:
            pick, p5, p7 = rng.integers((4 * doubles, n * d, n * d)).tolist()
            p1, p3 = q.doubles[pick // 4]
            p1, p3 = q.partner[[p1, p3]].tolist() if pick & 1 else (p1, p3)
            p1, p3 = (p3, p1) if pick & 2 else (p1, p3)
            if not q.double_switch(p1, p3, p5, p7):
                continue
            del q.doubles[pick // 4]
        valid += 1
        first = np.flatnonzero(q.partner > np.arange(n * d))
        points = np.column_stack([first, q.partner[first]]).ravel()
        found = _classify(points, n, d, l1, l2)
        assert found is not None
        fresh = _Pairing(points, n, d, *found)
        assert np.array_equal(fresh.single, q.single)
        assert np.array_equal(fresh.defective, q.defective)
        assert defect_points(fresh) == defect_points(q)
    assert valid >= 50


@pytest.mark.parametrize("n, d, kind", SWITCH_CASES)
def test_switching_counts_are_exact(n, d, kind):
    # q is drawn from a class that a switching produces, with as many loops
    # (or double pairs) as it allows; every inverse switching is found by
    # brute force, the sampler's count c(pi)
    # must equal the brute-force count of its 2-path pi and be at least
    # c_lo, and sum over inverse switchings of c_lo / c(pi) -- the chance,
    # up to a constant of the class, that the sampler lands on q -- must
    # be A * c_lo for the class constant A.
    l1, l2 = _switch_limits(n, d)
    if kind == "loop":
        q, points = pairing_in_class(n, d, l1 - 1, min(l2, 1), n + d)
        loops, doubles = len(q.loops), len(q.doubles)
        counts = inverse_loop_switchings(q, points)
        floor, a = _loop_floor(n, d, loops, doubles), (n - loops - 2 * doubles) * d * (d - 1)
        count = {pi: q.loop_count(pi[0] // d, pi[3] // d) for pi in counts}
    else:
        q, points = pairing_in_class(n, d, 0, l2 - 1, n + d)
        doubles = len(q.doubles)
        counts = inverse_double_switchings(q, points)
        floor, a = _double_floor(n, d, doubles), (n - 2 * doubles) * d * (d - 1)
        count = {pi: q.double_count(pi[0] // d, pi[1] // d, pi[3] // d) for pi in counts}
    assert floor >= 1
    assert all(not q.defective[pi[1] // d] for pi in counts)
    assert count == dict(counts)
    assert min(count.values()) >= floor
    assert sum(c * Fraction(floor, count[pi]) for pi, c in counts.items()) == a * floor


@pytest.mark.parametrize("count", ["loop_count", "double_count"])
def test_b_rejection_reads_the_count(monkeypatch, count):
    # a pairing of C(1, 1) at n = 200, d = 4, drawn by every restart
    rng = make_rng(0)
    while True:
        points = rng.permutation(800)
        found = _classify(points, 200, 4, 3, 9)
        if found is not None and (found[0].size, len(found[1])) == (1, 1):
            break
    monkeypatch.setattr(sampling, "_restart_budget", lambda d: 20)
    with monkeypatch.context() as patch:
        # a count below c_lo is an error, never an acceptance
        patch.setattr(_Pairing, count, lambda self, *ends: 0)
        with pytest.raises(RuntimeError, match="lower bound c_lo"):
            sample_simple_regular(200, 4, FixedPermutation(points))
        # a huge count makes b-rejection restart every time
        patch.setattr(_Pairing, count, lambda self, *ends: 10**12)
        with pytest.raises(RuntimeError, match="budget"):
            sample_simple_regular(200, 4, FixedPermutation(points))
    assert sample_simple_regular(200, 4, FixedPermutation(points))[0].d == 4


# -- agreement with rejection and uniformity ------------------------------------


def test_switching_limits_follow_from_n_and_d():
    for n, d in ((6, 3), (8, 3), (10, 3), (10, 4), (12, 5)):
        assert _switch_limits(n, d) == (0, 0)
    assert _switch_limits(100, 3) == (2, 4) and _switch_limits(200, 4) == (3, 9)
    assert _switch_limits(1000, 6) == (5, 25) and _switch_limits(1000, 10) == (9, 81)
    for n, d in ((12, 3), (16, 3), (16, 4), (20, 3), (24, 4), (40, 6)):
        l1, l2 = _switch_limits(n, d)
        assert l1 <= d - 1 and l2 <= (d - 1) ** 2
        assert l1 == 0 or _loop_floor(n, d, l1 - 1, l2) >= 1
        assert l2 == 0 or _double_floor(n, d, l2 - 1) >= 1


@pytest.mark.parametrize("n, d", [(6, 3), (8, 3), (10, 3), (10, 4), (12, 5)])
def test_sampler_is_rejection_where_nothing_switches(n, d):
    # limits (0, 0): the sampler must draw the same pairings as plain
    # rejection and keep the same one
    for seed in range(50):
        ours = sample_simple_regular(n, d, make_rng(seed))
        assert ours == reference_rejection_sample(n, d, make_rng(seed))


def test_sampler_uniform_on_labelled_cubic_graphs_n6():
    # the 70 labelled cubic graphs on 6 vertices: 10 labellings of K_{3,3}
    # and 60 of the prism
    cubic = [
        edges
        for edges in combinations(combinations(range(6), 2), 9)
        if np.bincount(np.ravel(edges), minlength=6).tolist() == [3] * 6
    ]
    assert len(cubic) == 70
    rng = make_rng(66)
    drawn = Counter(
        tuple(map(tuple, sample_simple_regular(6, 3, rng)[0].edges().tolist())) for _ in range(3500)
    )
    assert set(drawn) <= set(cubic)
    assert chisquare([drawn[edges] for edges in cubic]).pvalue > 0.001


def cycle_counts(g):
    """(triangles, 4-cycles) of a regular graph from traces of A^3 and A^4."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    a[np.repeat(np.arange(g.n), g.d), g.adj.ravel()] = 1
    a2 = a @ a
    closed4 = int(np.sum(a2 * a2))  # closed 4-walks: 8 per 4-cycle, nd(2d - 1) backtracking
    return int(np.sum(a2 * a)) // 6, (closed4 - g.n * g.d * (2 * g.d - 1)) // 8


def same_distribution_pvalue(xs, ys, least=10):
    """Chi-square p-value that two integer samples share one distribution,
    on their value histograms with sparse values pooled into neighbours."""
    values = sorted(set(xs) | set(ys))
    cx, cy = Counter(xs), Counter(ys)
    columns, cur = [], [0, 0]
    for v in values:
        cur = [cur[0] + cx[v], cur[1] + cy[v]]
        if sum(cur) >= least:
            columns.append(cur)
            cur = [0, 0]
    if sum(cur) and columns:
        columns[-1] = [columns[-1][0] + cur[0], columns[-1][1] + cur[1]]
    return chi2_contingency(np.array(columns).T)[1] if len(columns) > 1 else 1.0


@pytest.mark.parametrize("n, d", [(20, 3), (24, 4)])
def test_cycle_counts_match_rejection(n, d):
    # both switchings run at these sizes; a smoke check only, since the exact
    # guard is test_switching_counts_are_exact
    assert min(_switch_limits(n, d)) >= 1
    draws = 1000
    rng, ref_rng = make_rng(n * d), make_rng(n * d + 1)
    ours = [cycle_counts(sample_simple_regular(n, d, rng)[0]) for _ in range(draws)]
    reference = [cycle_counts(reference_rejection_sample(n, d, ref_rng)[0]) for _ in range(draws)]
    for k in (0, 1):
        assert same_distribution_pvalue([c[k] for c in ours], [c[k] for c in reference]) > 0.001


@pytest.mark.parametrize("d", [8, 10])
def test_sampler_reaches_d8_and_d10_at_n1000(d):
    g, restarts = sample_simple_regular(1000, d, make_rng(d))
    assert (g.n, g.d) == (1000, d) and restarts < 100
    assert RegularGraph.from_edges(1000, g.edges()) == g
