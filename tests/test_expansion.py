import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import specgap
from specgap.constants import eval_constant
from specgap.expansion import (
    _LN_GUARD,
    _growth_scan_exact,
    _misses,
    _precondition_holds,
    _sample_subset,
    _single_ball_masks,
    _threshold_ints,
    ExpanParams,
    ExpanPreconditionError,
    cheeger_growth_check,
    congestion_check_exact,
    congestion_check_instance,
    fit_growth_alpha,
    growth_check_exact,
    growth_check_sampled,
    popular_edge_bound_check,
    spectral_sufficient_check,
)
from specgap.graphs import (
    bfs_distances,
    circular_ladder,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    distance_rows,
    petersen_graph,
)
from specgap.logspace import LogScalar
from specgap.rand import make_rng
from specgap.sampling import sample_simple_regular


TINY_ALPHA = LogScalar.from_ln(-1e9)


def _growth_requirement(alpha, d, l, size, n):
    """Scalar part-A requirement: ('cap', None) or ('value', required_ln)."""
    t = alpha.ln + l * math.log(d - 1) + math.log(size)
    if t >= math.log(0.75 * n):
        return "cap", None
    return "value", t


def _oracle_ball_masks(g):
    """single[l, v] = bitmask of B({v}, l), from float distance rows and an
    (n+1) x n x n comparison cube."""
    n = g.n
    dists = np.vstack(list(distance_rows(g)))
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


def test_congestion_instance_huge_L_empty_T():
    g = petersen_graph()
    params = ExpanParams(alpha=1.0, eps=0.2, L=g.n * g.d)
    v = congestion_check_instance(g, {0}, 1, params)
    assert v.status == "pass"
    assert v.witness["T_size"] == 0


def test_congestion_instance_petersen_enumeration():
    g = petersen_graph()
    params = ExpanParams(alpha=1.0, eps=0.2, L=1.0)
    verdict = congestion_check_instance(g, {1}, 1, params)
    # independent enumeration: threshold = (d-1-eps)^1 = 1.8, so T = edges
    # seen by >= 2 vertices of S={1}: impossible, T is empty -> pass
    assert verdict.status == "pass"
    assert verdict.witness["T_size"] == 0


def test_congestion_instance_relabel_invariance():
    g = petersen_graph()
    params = ExpanParams(alpha=0.5, eps=0.2, L=1.0)
    v1 = congestion_check_instance(g, {0, 1}, 2, params)
    # relabel via the automorphism rotating the outer/inner cycles
    perm = {i: (i + 1) % 5 for i in range(5)}
    perm.update({5 + i: 5 + (i + 1) % 5 for i in range(5)})
    s2 = {perm[0], perm[1]}
    v2 = congestion_check_instance(g, s2, 2, params)
    assert v1.status == v2.status


def test_congestion_instance_precondition():
    g = petersen_graph()
    params = ExpanParams(alpha=1.0, eps=0.2, L=1.0)
    with pytest.raises(ExpanPreconditionError):
        congestion_check_instance(g, set(range(10)), 3, params)


def test_congestion_instance_memory_at_n5000():
    """The |S| x m visibility is counted block by block and kept as one
    packed bitset per vertex of S: at |S| = n = 5000 (m = 10^4 edges) the
    traced peak stays under 128 MiB, of which the distance rows are most."""
    g, _ = sample_simple_regular(5000, 4, make_rng(5))
    params = ExpanParams(alpha=1e-3, eps=0.2, L=1.0)
    tracemalloc.start()
    try:
        verdict = congestion_check_instance(g, range(g.n), 1, params)
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert verdict.status == "pass"
    assert peak_mib <= 128


def reference_congestion_instance(g, s, l, params):
    """Part B for one (S, l) by loops over edges and vertices of S."""
    subset = sorted(set(s))
    edges = g.edges()
    ceil_thr, floor_thr = _threshold_ints(params, g.d, l, max(g.n, len(edges)))
    if ceil_thr is None or ceil_thr > len(subset):
        return "pass", {"v": subset[0], "T_size": 0, "l": l}, ()
    dists = {v: bfs_distances(g, [v]) for v in subset}

    def sees(v, e):
        return min(dists[v][e[0]], dists[v][e[1]]) <= l - 1

    t_edges = [e for e in edges if sum(sees(v, e) for v in subset) >= ceil_thr]
    for v in subset:
        count = sum(sees(v, e) for e in t_edges)
        if count <= floor_thr:
            return "pass", {"v": v, "T_size": len(t_edges), "l": l, "count": count}, tuple(t_edges)
    return "fail", {"S": tuple(subset), "l": l}, tuple(t_edges)


def test_congestion_instance_matches_loop_reference():
    rng = make_rng(12)
    graphs = [
        petersen_graph(),
        circular_ladder(6),
        complete_bipartite(3, 3),
        disjoint_union(complete_graph(4), complete_graph(4)),
        sample_simple_regular(30, 3, make_rng(30))[0],
    ]
    params = [
        ExpanParams(alpha=a, eps=e, L=L)
        for a, e, L in ((1.0, 0.2, 1.0), (0.25, 0.2, 1.0), (0.05, 1.0, 1.0), (0.05, 0.2, 2.0))
    ]
    statuses = set()
    for g in graphs:
        for p in params:
            for l in (1, 2, 3):
                for size in (1, 2, 3, 5, g.n // 3):
                    s = rng.choice(g.n, size=size, replace=False).tolist()
                    try:
                        v = congestion_check_instance(g, s, l, p)
                    except ExpanPreconditionError:
                        continue
                    status, witness, t_edges = reference_congestion_instance(g, s, l, p)
                    assert (v.status, v.witness, v.details["T"]) == (status, witness, t_edges)
                    statuses.add((status, len(t_edges) > 0))
    assert statuses == {("pass", False), ("pass", True), ("fail", True)}


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
    statuses = set()
    for g in graphs:
        for p in params:
            verdict = congestion_check_exact(g, p)
            status, witness, scales = reference_congestion_exact(g, p)
            assert (verdict.status, verdict.witness, verdict.details["scales"]) == (
                status,
                witness,
                scales,
            )
            statuses.add(status)
    assert statuses == {"pass", "fail"}


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


def test_congestion_exact_agrees_with_instances():
    g = complete_graph(4)
    params = ExpanParams(alpha=1.0, eps=1.0, L=1.0)
    verdict = congestion_check_exact(g, params)
    if verdict.status == "fail":
        w = verdict.witness
        inst = congestion_check_instance(g, set(w["S"]), w["l"], params)
        assert inst.status == "fail"
    else:
        # spot-check instances against the quantified claim
        for mask in range(1, 16):
            s = {v for v in range(4) if (mask >> v) & 1}
            try:
                assert congestion_check_instance(g, s, 1, params).status == "pass"
            except ExpanPreconditionError:
                pass


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


def test_popular_edge_bound_check():
    g = petersen_graph()
    params = ExpanParams(alpha=1.0, eps=0.2, L=1.0)
    rep = popular_edge_bound_check(g, {0, 1, 2}, 1, params)
    assert rep["ok"]
    # empty T trivially satisfies the bound
    params2 = ExpanParams(alpha=1.0, eps=0.2, L=500.0)
    rep2 = popular_edge_bound_check(g, {0}, 1, params2)
    assert rep2["T_size"] == 0 and rep2["ok"]


def test_popular_edge_monotone_in_L():
    g = petersen_graph()
    sizes = []
    for L in (1.0, 2.0, 4.0):
        params = ExpanParams(alpha=0.25, eps=0.2, L=L)
        rep = popular_edge_bound_check(g, set(range(5)), 2, params)
        sizes.append(rep["T_size"])
    assert sizes == sorted(sizes, reverse=True)


def test_cheeger_growth_formulas():
    rep = cheeger_growth_check(complete_graph(4), 0.5)
    assert rep["l_star"] == 254
    assert rep["gamma_ln"] == pytest.approx(254 * math.log(1.0016 / 2.0), rel=1e-12)
    assert rep["hypothesis_ok"]  # h = 2 >= 0.0144
    assert rep["conclusion_ok"]


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
    g, _ = sample_simple_regular(25, 4, make_rng(25))
    params = ExpanParams(alpha=0.5, eps=0.2, L=2.0)
    with pytest.raises(ValueError, match="n <= 24"):
        growth_check_exact(g, 0.5)
    with pytest.raises(ValueError, match="n <= 24"):
        fit_growth_alpha(g)
    with pytest.raises(ValueError, match="n <= 24.*congestion_check_instance"):
        congestion_check_exact(g, params)


def test_exhaustive_checks_at_n24_bounded_memory():
    """At the exact limit, the Cheeger growth conclusion is exhaustive and
    growth_check_exact passes at the fitted alpha, in under 512 MiB."""
    pytest.importorskip("resource")
    code = textwrap.dedent(
        """
        import resource
        from specgap.expansion import cheeger_growth_check, fit_growth_alpha, growth_check_exact
        from specgap.rand import make_rng
        from specgap.sampling import sample_simple_regular

        g, _ = sample_simple_regular(24, 3, make_rng(24))
        report = cheeger_growth_check(g, 0.3)
        assert report["conclusion_ok"] and report["mode"] == "exhaustive", report
        assert growth_check_exact(g, fit_growth_alpha(g)).status == "pass"
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
    p = ExpanParams.paper(6)
    assert p.eps == 0.2
    assert p.alpha.ln == pytest.approx(-1e11 * math.log(6) ** 2)
    assert (p.L * p.alpha).to_float() == pytest.approx(24.0, rel=1e-3)
