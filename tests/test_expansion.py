import math
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import specgap
from specgap import expansion
from specgap.constants import eval_constant
from specgap.expansion import (
    _LN_GUARD,
    _growth_scan_exact,
    _misses,
    _precondition_holds,
    _sample_subset,
    _seers_table,
    _single_ball_masks,
    _threshold_ints,
    ExpanParams,
    cheeger_growth_check,
    congestion_certificate,
    congestion_check_exact,
    fit_growth_alpha,
    growth_check_exact,
    growth_check_sampled,
    spectral_sufficient_check,
)
from specgap.graphs import (
    bfs_distances,
    circular_ladder,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    load_edge_list,
    petersen_graph,
)
from specgap.logspace import LogScalar
from specgap.rand import as_rng, make_rng
from specgap.sampling import sample_simple_regular
from specgap.spectral import cheeger_exact


TINY_ALPHA = LogScalar.from_ln(-1e9)


def _growth_requirement(alpha, d, l, size, n):
    """Scalar part-A requirement: ('cap', None) or ('value', required_ln)."""
    t = alpha.ln + l * math.log(d - 1) + math.log(size)
    if t >= math.log(0.75 * n):
        return "cap", None
    return "value", t


def _oracle_ball_masks(g):
    """single[l, v] = bitmask of B({v}, l), from one plain BFS per vertex and
    an (n+1) x n x n comparison cube."""
    n = g.n
    dists = np.vstack([bfs_distances(g, [v]) for v in range(n)])
    within = dists[None, :, :] <= np.arange(n + 1)[:, None, None]
    return (within.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))).astype(np.uint32)


def test_single_ball_masks_match_distance_oracle():
    cases = [
        petersen_graph(),
        sample_simple_regular(20, 3, make_rng(4))[0],
        disjoint_union(complete_graph(4), petersen_graph()),
    ]
    for g in cases:
        got = _single_ball_masks(g)
        assert got.dtype == np.uint32 and got.shape == (g.n + 1, g.n)
        assert np.array_equal(got, _oracle_ball_masks(g))


def _oracle_misses(alpha, d, l, size, b, n):
    kind, t = _growth_requirement(alpha, d, l, size, n)
    return 4 * b < 3 * n if kind == "cap" else math.log(b) < t - _LN_GUARD


def brute_growth_check(g, alpha_ln):
    """Independent oracle: direct subset/level enumeration with plain BFS."""
    n, d = g.n, g.d
    for mask in range(1, 1 << n):
        s = {v for v in range(n) if (mask >> v) & 1}
        for l in range(1, n + 1):
            b = int(np.count_nonzero(bfs_distances(g, s) <= l))
            t = alpha_ln + l * math.log(d - 1) + math.log(len(s))
            required_cap = t >= math.log(0.75 * n)
            if required_cap:
                if 4 * b < 3 * n:
                    return (tuple(sorted(s)), l)
            elif math.log(b) < t - 1e-12:
                return (tuple(sorted(s)), l)
    return None


def test_growth_k4_alpha1_passes():
    assert growth_check_exact(complete_graph(4), 1.0).status == "pass"


def test_growth_petersen_matches_brute_force():
    g = petersen_graph()
    for alpha in (1.0, 0.5, 0.125):
        verdict = growth_check_exact(g, alpha)
        brute = brute_growth_check(g, math.log(alpha))
        assert (verdict.status == "pass") == (brute is None)
        if brute is not None:
            assert verdict.witness["l"] == brute[1]


def test_growth_tiny_alpha_always_passes():
    for g in (petersen_graph(), disjoint_union(complete_graph(4), complete_graph(4))):
        assert growth_check_exact(g, TINY_ALPHA).status == "pass"


def test_growth_size_cutoff():
    g, _ = sample_simple_regular(30, 3, make_rng(1))
    with pytest.raises(ValueError, match="sampled"):
        growth_check_exact(g, 1.0)


def test_growth_sampled_disconnected_fails():
    g = disjoint_union(complete_graph(4), complete_graph(4))
    verdict = growth_check_sampled(g, 1.0, trials=200, rng=make_rng(3))
    assert verdict.status == "fail"
    # witness re-validates: the ball size really is below the requirement
    w = verdict.witness
    b = int(np.count_nonzero(bfs_distances(g, w["S"]) <= w["l"]))
    assert b == w["ball_size"]
    req = w["required"]
    if req == "3n/4":
        assert 4 * b < 3 * g.n
    else:
        assert b < req


def test_growth_sampled_zero_trials_and_agreement():
    g = complete_graph(4)
    # "not falsified" after no sample at all would be a verdict without a check
    for trials in (0, -5):
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            growth_check_sampled(g, 1.0, trials, make_rng(0))
    assert growth_check_sampled(g, 1.0, 100, make_rng(0)).status == "not_falsified"


def test_growth_sampled_trials_is_an_integer():
    # trials goes through operator.index: a bool counts as 1 and is reported
    # as 1, and a float is refused
    g = complete_graph(4)
    verdict = growth_check_sampled(g, 1.0, True, make_rng(0))
    assert verdict.details == {"trials": 1} and type(verdict.details["trials"]) is int
    assert verdict == growth_check_sampled(g, 1.0, 1, make_rng(0))
    with pytest.raises(TypeError):
        growth_check_sampled(g, 1.0, 2.0, make_rng(0))


def test_growth_sampled_refuses_a_bool_seed():
    # bool is an int subclass, but True is no seed
    with pytest.raises(TypeError, match="int seed or numpy Generator"):
        growth_check_sampled(complete_graph(4), 0.5, 3, True)
    assert as_rng(np.int64(1)).random() == make_rng(1).random()


def test_growth_sampled_pinned_witnesses():
    # one seed per kind of sample: a singleton, a random subset and a ball
    g = circular_ladder(30)
    pinned = {
        0: ((1,), 5, 20, 32.0),
        4: ((0, 31, 34), 3, 20, 24.0),
        10: ((7, 8, 9, 10, 11, 12, 13, 36, 37, 38, 39, 40, 41, 42, 43, 44), 1, 20, 32.0),
    }
    for seed, (subset, l, size, required) in pinned.items():
        verdict = growth_check_sampled(g, 1.0, 10, make_rng(seed))
        assert (verdict.status, verdict.mode) == ("fail", "sampled")
        w = verdict.witness
        assert (w["S"], w["l"], w["ball_size"]) == (subset, l, size)
        assert all(type(v) is int for v in w["S"])
        assert w["required"] == pytest.approx(required, rel=1e-12)


def reference_growth_check_sampled(g, alpha, trials, rng):
    """The sampled falsifier with the radius scan over every l in 1..n."""
    rng = make_rng(rng)
    n, d = g.n, g.d
    for _ in range(trials):
        subset = _sample_subset(g, rng)
        dd = bfs_distances(g, subset)
        counts = np.zeros(n + 1, dtype=np.int64)
        for x in dd:
            if x != float("inf") and x <= n:
                counts[int(x)] += 1
        sizes = np.cumsum(counts)
        for l in range(1, n + 1):
            kind, t = _growth_requirement(alpha, d, l, len(subset), n)
            bsize = int(sizes[l])
            ok = (4 * bsize >= 3 * n) if kind == "cap" else (
                math.log(bsize) >= t - _LN_GUARD
            )
            if not ok:
                return "fail", {
                    "S": tuple(sorted(subset)),
                    "l": l,
                    "ball_size": bsize,
                    "required": "3n/4" if kind == "cap" else math.exp(t),
                }
    return "not_falsified", None


def test_growth_sampled_matches_full_radius_scan():
    graphs = [
        sample_simple_regular(60, 3, make_rng(40))[0],
        sample_simple_regular(200, 4, make_rng(41))[0],
        circular_ladder(30),
        disjoint_union(petersen_graph(), circular_ladder(5)),
    ]
    statuses = set()
    for g in graphs:
        for alpha in (0.05, 0.3, 1.0):
            for seed in range(4):
                verdict = growth_check_sampled(g, alpha, 25, make_rng(seed))
                status, witness = reference_growth_check_sampled(
                    g, LogScalar.from_float(alpha), 25, seed
                )
                assert (verdict.status, verdict.witness) == (status, witness)
                statuses.add(status)
    assert statuses == {"fail", "not_falsified"}


def test_exact_scan_order_and_min_size():
    """The shared exhaustive scan against a loop over (l, |S|, bitmask), at
    every min_size."""
    failures = set()
    for g in (
        petersen_graph(),
        circular_ladder(6),
        complete_bipartite(3, 3),
        disjoint_union(complete_graph(4), complete_graph(4)),
    ):
        n, d = g.n, g.d
        ball_sizes = {}  # mask -> [|B(S, l)| for l in 0..n]
        for mask in range(1, 1 << n):
            dd = bfs_distances(g, [v for v in range(n) if (mask >> v) & 1])
            ball_sizes[mask] = [int(np.count_nonzero(dd <= l)) for l in range(n + 1)]
        order = sorted(ball_sizes, key=lambda m: (m.bit_count(), m))
        for alpha in (1.0, 0.5, 0.2):
            alpha = LogScalar.from_float(alpha)
            for min_size in range(1, n + 1):
                expected = None
                for l in range(1, n + 1):
                    for mask in order:
                        size = mask.bit_count()
                        if size < min_size:
                            continue
                        b = ball_sizes[mask][l]
                        kind, t = _growth_requirement(alpha, d, l, size, n)
                        if kind == "cap" and 4 * b < 3 * n:
                            expected = (l, mask, b, "3n/4")
                        elif kind == "value" and math.log(b) < t - _LN_GUARD:
                            expected = (l, mask, b, math.exp(t))
                        if expected:
                            break
                    if expected:
                        break
                assert _growth_scan_exact(g, alpha, min_size) == expected
                failures.add(expected and (expected[0], expected[1].bit_count()))
    # passes, and failures at several radii and subset sizes
    assert None in failures and len(failures) > 4


def test_misses_matches_scalar_oracle():
    """The broadcasting part-A predicate against the scalar requirement on
    every (l, |S|, b) with n <= 24; alpha = 1 at d = 3 gives exact ties."""
    alphas = [LogScalar.from_float(a) for a in (1.0, 0.5, 0.2)] + [TINY_ALPHA]
    ties = 0
    for d in (3, 4, 6):
        for n in range(d + 1, 25):
            grid = np.arange(1, n + 1)
            for alpha in alphas:
                got = _misses(alpha, d, grid[:, None, None], grid[:, None], grid, n)
                assert got.shape == (n, n, n) and got.dtype == bool
                for size in range(1, n + 1):
                    # the sampled scan's shape: every radius against one |S|
                    radii = _misses(alpha, d, grid, size, grid, n)
                    for l in range(1, n + 1):
                        expected = [_oracle_misses(alpha, d, l, size, b, n) for b in grid]
                        assert got[l - 1, size - 1].tolist() == expected
                        assert radii[l - 1] == expected[l - 1]
                        tie = 2**l * size  # alpha (d-1)^l |S| at alpha = 1, d = 3
                        if alpha.ln == 0 and d == 3 and 4 * tie < 3 * n:
                            assert got[l - 1, size - 1, tie - 2 : tie].tolist() == [True, False]
                            ties += 1
    assert ties > 0


def test_fit_alpha_maximality():
    for g in (complete_graph(4), petersen_graph(), complete_bipartite(3, 3)):
        astar = fit_growth_alpha(g)
        assert astar <= LogScalar.from_float(1.0)
        assert growth_check_exact(g, astar).status == "pass"
        bumped = LogScalar.from_ln(astar.ln + 1e-9)
        if bumped <= LogScalar.from_float(1.0):
            assert growth_check_exact(g, bumped).status == "fail"


def brute_fit_alpha(g):
    """Independent oracle: min of |B(S, l)| / ((d-1)^l |S|) over every
    nonempty S and every l whose ball stays below 3n/4, capped at 1."""
    n, d = g.n, g.d
    best = 0.0
    for mask in range(1, 1 << n):
        s = {v for v in range(n) if (mask >> v) & 1}
        for l in range(1, n + 1):
            b = int(np.count_nonzero(bfs_distances(g, s) <= l))
            if 4 * b >= 3 * n:
                break  # balls only grow, so no later l constrains alpha
            best = min(best, math.log(b) - l * math.log(d - 1) - math.log(len(s)))
    return best


def test_fit_alpha_matches_brute_force():
    graphs = [
        complete_graph(4),
        petersen_graph(),
        complete_bipartite(3, 3),
        circular_ladder(5),
        circular_ladder(6),  # n = 12 reaches balls of exactly 3n/4
        disjoint_union(complete_graph(4), complete_graph(4)),
        sample_simple_regular(10, 3, make_rng(50))[0],
        sample_simple_regular(10, 4, make_rng(51))[0],
    ]
    for g in graphs:
        assert fit_growth_alpha(g).ln == pytest.approx(brute_fit_alpha(g), rel=1e-12, abs=1e-15)


def test_fit_alpha_k4_value():
    # K4 balls: |B(S, l)| = 4 >= 3n/4 = 3 always, so nothing constrains alpha
    assert fit_growth_alpha(complete_graph(4)) == LogScalar.from_float(1.0)


def test_fit_alpha_monotone_relation():
    g = petersen_graph()
    astar = fit_growth_alpha(g)
    smaller = LogScalar.from_ln(astar.ln - 0.5)
    assert growth_check_exact(g, smaller).status == "pass"


# -- part B -----------------------------------------------------------------------


def reference_congestion_exact(g, params):
    """Part B over every (S, l) by a loop over subset bitmasks, with edge and
    vertex visibility sets as Python int bitmasks."""
    n, d = g.n, g.d
    edges = g.edges()
    scales = []
    for l in range(1, n + 1):
        ceil_thr, floor_thr = _threshold_ints(params, d, l, max_count=max(n, len(edges)))
        if ceil_thr is None or ceil_thr > n:
            scales.append({"l": l, "mode": "empty-T", "checked": "all S"})
            continue
        allowed = [s for s in range(1, n + 1) if _precondition_holds(params.alpha, d, l, s, n)]
        if not allowed:
            scales.append({"l": l, "mode": "precondition-empty", "checked": "no S"})
            continue
        edge_masks = [
            sum(1 << int(v) for v in np.flatnonzero(bfs_distances(g, [u, w]) <= l - 1))
            for u, w in edges
        ]
        vertex_edge_masks = [
            sum(1 << i for i, em in enumerate(edge_masks) if (em >> v) & 1) for v in range(n)
        ]
        checked = 0
        for mask in range(1, 1 << n):
            if not (max(1, ceil_thr) <= mask.bit_count() <= allowed[-1]):
                continue
            checked += 1
            t_mask = 0
            for i, em in enumerate(edge_masks):
                if (em & mask).bit_count() >= ceil_thr:
                    t_mask |= 1 << i
            if t_mask and not any(
                (mask >> v) & 1 and (vertex_edge_masks[v] & t_mask).bit_count() <= floor_thr
                for v in range(n)
            ):
                witness = {"S": tuple(v for v in range(n) if (mask >> v) & 1), "l": l}
                return "fail", witness, tuple(scales)
        scales.append({"l": l, "mode": "scanned", "checked": checked})
    return "pass", None, tuple(scales)


def _seers(g, l):
    """Per edge, in g.edges() order, the vertices within l - 1 of an endpoint."""
    return np.array([np.count_nonzero(bfs_distances(g, [u, w]) <= l - 1) for u, w in g.edges()])


def _scale_kind(g, params, scale):
    """How the seers bound settles a scanned scale: "decided" when no
    candidate subset or no edge with enough seers is left, "partly" when
    some edges are dropped and the rest scanned, "undecided" when none is."""
    ceil_thr, _ = _threshold_ints(params, g.d, scale["l"], max(g.n, g.num_edges()))
    kept = np.count_nonzero(_seers(g, scale["l"]) >= ceil_thr)
    if not (kept and scale["checked"]):
        return "decided"
    return "partly" if kept < g.num_edges() else "undecided"


def test_congestion_exact_matches_loop_reference():
    graphs = [
        complete_graph(4),
        complete_graph(6),
        petersen_graph(),
        circular_ladder(5),
        circular_ladder(6),
        complete_bipartite(3, 3),
        disjoint_union(complete_graph(4), complete_graph(4)),
        sample_simple_regular(12, 3, make_rng(60))[0],
        sample_simple_regular(12, 4, make_rng(61))[0],
    ]
    params = [
        ExpanParams(alpha=a, eps=e, L=L)
        for a, e, L in (
            (1.0, 0.2, 1.0),
            (0.5, 0.2, 1.0),
            (0.25, 0.2, 2.0),
            (0.05, 1.0, 1.0),
            (0.1, 0.5, 1.5),
        )
    ]
    cases = [(g, p) for g in graphs for p in params]
    # sampled graphs over a grid of L and eps, at the fitted alpha and at
    # alpha = 0.1, which widens the size windows: the grid meets scales the
    # seers bound decides, partly decides and leaves to the scan
    for i, (n, d) in enumerate([(12, 3), (12, 4), (14, 3), (14, 4), (10, 5)]):
        g = sample_simple_regular(n, d, make_rng(70 + i))[0]
        for alpha in (fit_growth_alpha(g), 0.1):
            for L in (1, 1.3, 2):
                cases += [(g, ExpanParams(alpha=alpha, eps=e, L=L)) for e in (0.05, 0.5, 1)]
    statuses, kinds = set(), set()
    for g, p in cases:
        verdict = congestion_check_exact(g, p)
        status, witness, scales = reference_congestion_exact(g, p)
        assert (verdict.status, verdict.witness, verdict.details["scales"]) == (
            status,
            witness,
            scales,
        )
        statuses.add(status)
        kinds.update(_scale_kind(g, p, sc) for sc in scales if sc["mode"] == "scanned")
    assert statuses == {"pass", "fail"}
    assert kinds == {"decided", "partly", "undecided"}


def test_congestion_exact_seers_bound_builds_no_mask_block(monkeypatch):
    # at the pinned bench parameters on a (14, 4) graph, l = 1 has 2 seers
    # per edge against a ceiling of 6 and l >= 2 is empty-T: every scale is
    # decided without a mask block, which a zero block size would refuse
    g = sample_simple_regular(14, 4, make_rng(74))[0]
    p = ExpanParams(alpha=fit_growth_alpha(g), eps=0.2, L=2.0)
    monkeypatch.setattr(expansion, "_MASK_CHUNK", 0)
    verdict = congestion_check_exact(g, p)
    reference = reference_congestion_exact(g, p)
    assert (verdict.status, verdict.witness, verdict.details["scales"]) == reference
    scale = verdict.details["scales"][0]
    assert scale["mode"] == "scanned" and scale["checked"] > 0


@pytest.mark.parametrize(
    "seed, L, status, l",
    [(60, 1.5, "pass", 2), (62, 1.3, "fail", 2)],
)
def test_congestion_exact_scans_the_edges_it_keeps(seed, L, status, l):
    # at scale l some edges of a (10, 3) graph have too few seers for T and
    # are dropped, the others are scanned; the verdict is the loop
    # reference's, failing or not
    g = sample_simple_regular(10, 3, make_rng(seed))[0]
    p = ExpanParams(alpha=0.1, eps=0.05, L=L)
    ceil_thr, _ = _threshold_ints(p, 3, l, g.num_edges())
    assert 0 < np.count_nonzero(_seers(g, l) >= ceil_thr) < g.num_edges()
    verdict = congestion_check_exact(g, p)
    reference = reference_congestion_exact(g, p)
    assert (verdict.status, verdict.witness, verdict.details["scales"]) == reference
    assert verdict.status == status
    if status == "pass":
        assert verdict.details["scales"][l - 1]["checked"] > 0
    else:
        assert verdict.witness["l"] == l


def test_congestion_exact_beyond_64_edges():
    # K_12 has 66 edges, so popular-edge sets span two 64-bit words
    g = complete_graph(12)
    for p in (ExpanParams(alpha=0.05, eps=1.0, L=1.0), ExpanParams(alpha=0.01, eps=0.2, L=1.0)):
        verdict = congestion_check_exact(g, p)
        status, witness, scales = reference_congestion_exact(g, p)
        assert (verdict.status, verdict.witness, verdict.details["scales"]) == (
            status,
            witness,
            scales,
        )


def test_congestion_exact_k4_huge_L():
    g = complete_graph(4)
    params = ExpanParams(alpha=1.0, eps=0.2, L=1000.0)
    verdict = congestion_check_exact(g, params)
    assert verdict.status == "pass"
    assert any(s["mode"] == "empty-T" for s in verdict.details["scales"])


@pytest.mark.parametrize("entries", [1, 100, None])
def test_certificate_seers_match_the_oracle(monkeypatch, entries):
    # one source per block (entries 1) and a few per block (100 // 30 = 3)
    # sum blocks whose sweeps end at different levels; None keeps the default
    if entries is not None:
        monkeypatch.setattr(specgap.graphs, "_CHUNK_ENTRIES", entries)
    graphs = [
        petersen_graph(),
        circular_ladder(6),
        complete_bipartite(3, 3),
        disjoint_union(complete_graph(4), petersen_graph()),
        sample_simple_regular(30, 3, make_rng(30))[0],
    ]
    for g in graphs:
        dists = np.array([bfs_distances(g, [v]) for v in range(g.n)])
        diameter = int(dists[np.isfinite(dists)].max())
        table = _seers_table(g)
        assert table.shape == (diameter + 1, g.num_edges())
        for l in range(1, diameter + 2):
            np.testing.assert_array_equal(table[l - 1], _seers(g, l))


def _certificate_L_B(g, eps):
    params = ExpanParams(alpha=1.0, eps=eps, L=1.0)
    return congestion_certificate(g, params).details["L_B_ln"]


def test_certificate_agrees_with_the_exact_scan(monkeypatch):
    # a pass means no scale of the exact scan keeps an edge, so the scan
    # passes without a mask block, which a zero block size would refuse; the
    # certificate passes just above L_B and not just below it
    monkeypatch.setattr(expansion, "_MASK_CHUNK", 0)
    statuses = set()
    for i, (n, d) in enumerate([(10, 3), (12, 3), (12, 4), (14, 3), (16, 3), (10, 5), (14, 4)]):
        g = sample_simple_regular(n, d, make_rng(80 + i))[0]
        for alpha in (fit_growth_alpha(g), 0.1):
            for eps in (0.05, 0.2, 0.5, 1.0):
                L_B_ln = _certificate_L_B(g, eps)
                above = LogScalar.from_ln(max(L_B_ln, 0) + math.log1p(1e-6))
                for L in (1.0, 1.3, 2.0, 4.0, above):
                    p = ExpanParams(alpha=alpha, eps=eps, L=L)
                    verdict = congestion_certificate(g, p)
                    assert verdict.mode == "sufficient"
                    assert verdict.details["L_B_ln"] == L_B_ln
                    assert verdict.status == "pass" or L is not above
                    statuses.add(verdict.status)
                    if verdict.status == "pass":
                        assert congestion_check_exact(g, p).status == "pass"
                below = L_B_ln + math.log1p(-1e-6)
                if below >= 0:
                    p = ExpanParams(alpha=alpha, eps=eps, L=LogScalar.from_ln(below))
                    assert congestion_certificate(g, p).status == "inconclusive"
    assert statuses == {"pass", "inconclusive"}


@pytest.mark.parametrize(
    "name, L_B, l",
    [
        ("small_n16_d3", 2.058, 3),
        ("small_n14_d4", 1.020, 2),
        ("paper_n1000_d6", 0.561, 3),
        ("sparse_n5000_d3", 5.095, 10),
        ("sparse_n5000_d4", 1.482, 6),
    ],
)
def test_certificate_on_the_stored_graphs(name, L_B, l):
    data = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data"
    g = load_edge_list((data / f"{name}.edges").read_text())
    verdict = congestion_certificate(g, ExpanParams(alpha=1.0, eps=0.2, L=1.0))
    assert round(math.exp(verdict.details["L_B_ln"]), 3) == L_B
    assert (verdict.details["l"], verdict.details["eps"]) == (l, 0.2)
    assert verdict.status == ("pass" if L_B < 1 else "inconclusive")


def test_certificate_is_below_one_at_degree_six_and_up():
    # the tree count 2((d-1)^l - 1)/(d-2) bounds every edge's seers, so at
    # eps = 0.2 every 6-regular graph below 3.8e11 vertices has L_B < 1
    for i, (n, d) in enumerate([(60, 6), (400, 6), (100, 8), (300, 8)]):
        g = sample_simple_regular(n, d, make_rng(90 + i))[0]
        assert _certificate_L_B(g, 0.2) < 0


@pytest.mark.parametrize(
    "make, spectral",
    [
        (lambda: complete_bipartite(3, 3), "inconclusive"),
        (lambda: sample_simple_regular(20, 3, make_rng(20))[0], "inconclusive"),
        (lambda: sample_simple_regular(20, 4, make_rng(21))[0], "inconclusive"),
        (lambda: sample_simple_regular(200, 6, make_rng(77))[0], "pass"),
    ],
    ids=["K33", "n20-d3", "n20-d4", "n200-d6"],
)
def test_certificate_passes_at_the_paper_parameters(make, spectral):
    # at ExpanParams.paper(d), ln L is about 1e11 (ln d)^2, so no ceiling is
    # reachable and part B holds on every graph, whatever its spectrum
    g = make()
    assert congestion_certificate(g, ExpanParams.paper(g.d)).status == "pass"
    assert spectral_sufficient_check(g).status == spectral


def test_certificate_memory_at_n5000():
    """The sweep keeps one block of bit rows, of _CHUNK_ENTRIES // n sources
    per vertex, and a (D + 1, m) table: on a (5000, 4) draw the traced peak
    stays under 48 MiB."""
    g, _ = sample_simple_regular(5000, 4, make_rng(5))
    params = ExpanParams(alpha=1e-3, eps=0.2, L=1.0)
    tracemalloc.start()
    try:
        verdict = congestion_certificate(g, params)
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert verdict.status == "inconclusive"
    assert peak_mib <= 48


def test_spectral_sufficient_k33_inconclusive():
    verdict = spectral_sufficient_check(complete_bipartite(3, 3))
    assert verdict.status == "inconclusive"
    assert verdict.details["lam"] == pytest.approx(3.0)


def test_spectral_sufficient_random_d6():
    g, _ = sample_simple_regular(200, 6, make_rng(77))
    verdict = spectral_sufficient_check(g)
    # random 6-regular graphs pass the 2.1 sqrt 5 gate with high probability
    assert verdict.status == "pass"
    assert verdict.details["alpha_ln"] == pytest.approx(-1e11 * math.log(6) ** 2)
    assert verdict.details["eps"] == 0.2


def test_cheeger_growth_formulas():
    rep = cheeger_growth_check(complete_graph(4), 0.5)
    assert rep["l_star"] == 254
    assert rep["gamma_ln"] == pytest.approx(254 * math.log(1.0016 / 2.0), rel=1e-12)
    assert rep["hypothesis_ok"]  # h = 2 >= 0.0144
    assert rep["conclusion_ok"]


def test_cheeger_growth_at_a_subnormal_delta():
    # 3 / (4 delta) overflows for delta below about 4.2e-309, so l* is taken
    # in log space
    data = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data"
    g = load_edge_list((data / "small_n14_d4.edges").read_text())
    rep = cheeger_growth_check(g, 1e-310)
    assert rep["l_star"] == 446_303
    assert rep["gamma_ln"] == pytest.approx(446_303 * math.log(1.0016 / 3.0), rel=1e-12)
    assert rep["hypothesis_ok"] and rep["conclusion_ok"]
    assert cheeger_growth_check(g, 0.3)["l_star"] == 574


def test_cheeger_growth_whole_vertex_set():
    # A = [n] has |B| = n >= 3n/4 at every level
    rep = cheeger_growth_check(petersen_graph(), 0.7)
    assert rep["conclusion_ok"]


def test_cheeger_growth_validation():
    with pytest.raises(ValueError, match="delta"):
        cheeger_growth_check(complete_graph(4), 0.9)
    g, _ = sample_simple_regular(30, 3, make_rng(4))
    with pytest.raises(ValueError, match="exact Cheeger"):
        cheeger_growth_check(g, 0.5)


def test_exact_limit_is_24():
    # every exhaustive subset scan refuses past the limit with one message,
    # which names the limit, n and what to use instead
    g, _ = sample_simple_regular(25, 4, make_rng(25))
    params = ExpanParams(alpha=0.5, eps=0.2, L=2.0)
    for scan, instead in (
        (lambda: growth_check_exact(g, 0.5), "growth_check_sampled"),
        (lambda: fit_growth_alpha(g), "growth_check_sampled"),
        (lambda: congestion_check_exact(g, params), "congestion_certificate"),
        (lambda: cheeger_exact(g), "cheeger_upper"),
        (lambda: cheeger_growth_check(g, 0.3), "cheeger_upper"),
    ):
        with pytest.raises(ValueError, match=rf"n <= 24 \(got n=25\); .*{instead}"):
            scan()


def test_exhaustive_checks_at_n24_bounded_memory():
    """At the exact limit, the Cheeger growth conclusion is exhaustive, and
    growth_check_exact and congestion_check_exact pass at the fitted alpha,
    in under 512 MiB."""
    pytest.importorskip("resource")
    code = textwrap.dedent(
        """
        import resource
        from specgap.expansion import (
            ExpanParams,
            cheeger_growth_check,
            congestion_check_exact,
            fit_growth_alpha,
            growth_check_exact,
        )
        from specgap.rand import make_rng
        from specgap.sampling import sample_simple_regular

        g, _ = sample_simple_regular(24, 3, make_rng(24))
        report = cheeger_growth_check(g, 0.3)
        assert report["conclusion_ok"] and report["mode"] == "exhaustive", report
        alpha = fit_growth_alpha(g)
        assert growth_check_exact(g, alpha).status == "pass"
        params = ExpanParams(alpha=alpha, eps=0.2, L=2.0)
        assert congestion_check_exact(g, params).status == "pass"
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert peak_mib < 512, peak_mib
        """
    )
    src = os.path.dirname(os.path.dirname(specgap.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


def test_params_validation():
    with pytest.raises(ValueError, match="alpha"):
        ExpanParams(alpha=1.5, eps=0.2, L=1.0)
    with pytest.raises(ValueError, match="eps"):
        ExpanParams(alpha=1.0, eps=0.0, L=1.0)
    with pytest.raises(ValueError, match="L"):
        ExpanParams(alpha=1.0, eps=0.2, L=0.5)
    # an infinite L would make every part-B threshold unreachable, so part B
    # would pass vacuously
    for L in (math.inf, LogScalar.from_ln(math.inf)):
        with pytest.raises(ValueError, match="L must be >= 1 and finite"):
            ExpanParams(alpha=0.5, eps=0.2, L=L)
    p = ExpanParams.paper(6)
    assert p.eps == 0.2
    assert p.alpha.ln == pytest.approx(-1e11 * math.log(6) ** 2)
    assert math.exp((p.L * p.alpha).ln) == pytest.approx(24.0, rel=1e-3)
