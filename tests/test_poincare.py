import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import specgap.graphs as graphs
from specgap.graphs import (
    bfs_distances,
    circular_ladder,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    petersen_graph,
)
import specgap.poincare as poincare
import specgap.spectral as spectral
from specgap.norms import BlockNorm, Lq, _powers, lift_l1
from specgap.poincare import (
    gamma_scalar_l2_exact,
    gamma_search,
    poincare_ratio,
    uc_experiment,
)
from specgap.rand import as_rng, make_rng
from specgap.sampling import sample_simple_regular


def test_ratio_k4_hand_value():
    g = complete_graph(4)
    rep = poincare_ratio(g, [1.0, 1.0, -1.0, -1.0], Lq(2), 2)
    assert rep.numerator == pytest.approx(2.0)
    assert rep.denominator == pytest.approx(8.0 / 3.0)
    assert rep.ratio == pytest.approx(0.75)


def test_ratio_indicator_field():
    g = petersen_graph()
    f = np.zeros(10)
    f[0] = 1.0
    f -= f.mean()
    rep = poincare_ratio(g, f, Lq(2), 2)
    assert rep.ratio > 0


def test_ratio_duplicated_column_homogeneity():
    g = complete_graph(4)
    f1 = np.array([0.5, 1.5, -1.0, -1.0])
    rep1 = poincare_ratio(g, f1, Lq(1), 1)
    f2 = np.stack([f1, f1], axis=1)
    rep2 = poincare_ratio(g, f2, Lq(1), 1)
    # doubling the column doubles both sides, the ratio is unchanged
    assert rep2.numerator == pytest.approx(2 * rep1.numerator)
    assert rep2.denominator == pytest.approx(2 * rep1.denominator)
    assert rep2.ratio == pytest.approx(rep1.ratio)


def test_ratio_translation_and_scaling_invariance():
    g = petersen_graph()
    rng = make_rng(3)
    f = rng.normal(size=(10, 3))
    base = poincare_ratio(g, f, Lq(2), 2)
    shifted = poincare_ratio(g, f + np.array([5.0, -2.0, 0.25]), Lq(2), 2)
    scaled = poincare_ratio(g, 3.5 * f, Lq(2), 2)
    assert shifted.ratio == pytest.approx(base.ratio, rel=1e-12)
    assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)


def _ordered_pair_sum(x, nm, p):
    """Reference: ||x_v - x_w||^p over every ordered pair, in row chunks.
    A p-th power past the double range is inf, as in the kernels."""
    n = x.shape[0]
    total = 0.0
    chunk = max(1, (1 << 22) // max(n * x.shape[1], 1))
    for start in range(0, n, chunk):
        block = x[start : start + chunk]
        diffs = block[:, None, :] - x[None, :, :]
        with np.errstate(over="ignore"):
            vals = nm.eval_many(diffs.reshape(-1, x.shape[1])) ** p
        total += float(vals.sum())
    return total


def reference_column_pair_sums(x, q):
    """The blocked gap loop, O(n^2 k): per column, max(gap, 0)^q over the
    upper triangle of the sorted column in blocks of rows.  Kept as the
    oracle of the split sums that replaced it at integer q."""
    n = x.shape[0]
    s = np.ascontiguousarray(np.sort(x, axis=0).T)
    total = np.zeros(x.shape[1])
    rows = poincare._triangle_rows(n, x.shape[1])
    for start in range(0, n, rows):
        gaps = s[:, None, start:] - s[:, start : start + rows, None]
        np.maximum(gaps, 0.0, out=gaps)
        total += _powers(gaps, q).sum(axis=(1, 2))
    return total


PAIR_SUM_CASES = (
    [(Lq(q), q) for q in (1, 1.5, 2, 3, 4, 32)]
    + [(Lq(q), p) for q, p in ((1, 2), (1.5, 1), (2, 1), (3, 2), (4, 1.5), (32, 4))]
    + [(Lq(math.inf), 1), (Lq(math.inf), 3)]
    + [(lift_l1(Lq(q), 2, 2), q) for q in (1, 2, 3)]
    + [(lift_l1(Lq(3), 2, 2), 2), (lift_l1(Lq(math.inf), 2, 2), 2)]
    + [(lift_l1(Lq(4), 2, 2), 4), (lift_l1(Lq(4), 2, 2), 2)]
    + [(Lq(q), q) for q in (7, 64, 4.0, 4.5)]  # 4.0: the float; 4.5: the blocked loop
)


def _pair_sum_fields():
    rng = make_rng(17)
    ties = rng.integers(-2, 3, size=(37, 4)).astype(float)  # many tied entries
    ties[:, 2] = 1.5  # one column tied throughout
    fields = {
        "normal_n37": rng.normal(size=(37, 4)),
        "ties_n37": ties,
        "normal_n150": rng.normal(size=(150, 4)) * 2.0,
        "ties_n150": rng.integers(-3, 4, size=(150, 4)).astype(float),
    }
    for n in (1, 2, 31, 32, 33):  # around the leaf run of the split sums
        fields[f"normal_n{n}"] = rng.normal(size=(n, 4))
    fields["normal_n33"][:, 1] = -0.75  # a column of identical values
    outlier = np.full((70, 4), 2.0)  # a tied cluster, one row 1e6 away
    outlier[:, 3] = rng.integers(-1, 2, size=70)
    outlier[5] += [1e6, -1e6, 0.0, 1e6]
    fields["outlier_n70"] = outlier
    return fields


@pytest.mark.parametrize("rows", [8, 64])
@pytest.mark.parametrize("nm, p", PAIR_SUM_CASES)
def test_pair_sum_matches_ordered_pair_reference(monkeypatch, nm, p, rows):
    # rows = 8 puts several partial blocks on n = 37; 150 is no multiple of 64
    monkeypatch.setattr(poincare, "_TRIANGLE_ROWS", rows)
    for name, x in _pair_sum_fields().items():
        want = _ordered_pair_sum(x, nm, p)
        assert poincare._pair_sum(x, nm, p) == pytest.approx(want, rel=1e-9), name
        if isinstance(nm, Lq) and p == nm.q:
            got = poincare._column_pair_sums(x, p)
            np.testing.assert_allclose(got, reference_column_pair_sums(x, p), rtol=1e-12, err_msg=name)


@pytest.mark.parametrize("chunk", [1, 200, 5000])
def test_column_pair_sums_in_small_slices(monkeypatch, chunk):
    # every power or gap table stays within _CHUNK_ENTRIES, or one leaf run
    x = make_rng(18).normal(size=(300, 3))
    want = {q: poincare._column_pair_sums(x, q) for q in (3, 8, 32, 4.5)}
    sizes = []
    for name in ("_gap_powers", "_pivot_powers"):

        def spy(*args, table=getattr(poincare, name)):
            out = table(*args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(poincare, name, spy)
    monkeypatch.setattr(poincare, "_CHUNK_ENTRIES", chunk)
    for q, w in want.items():
        np.testing.assert_allclose(poincare._column_pair_sums(x, q), w, rtol=1e-12, err_msg=str(q))
    assert max(sizes) <= max(chunk, 3 * poincare._LEAF_RUN**2)


@pytest.mark.parametrize("nm", [Lq(1), Lq(2), Lq(3.5), Lq(32), Lq(3, dim=4)])
def test_pair_sum_separable_case_never_evaluates_the_norm(monkeypatch, nm):
    x = _pair_sum_fields()["ties_n37"]
    want = _ordered_pair_sum(x, nm, nm.q)

    def no_eval(*args, **kwargs):
        raise AssertionError("separable pair sum evaluated the norm")

    monkeypatch.setattr(type(nm), "eval_many", no_eval)
    monkeypatch.setattr(type(nm), "eval_pow", no_eval)
    assert poincare._pair_sum(x, nm, nm.q) == pytest.approx(want, rel=1e-9)


def test_edge_sum_matches_edge_list():
    g, _ = sample_simple_regular(40, 4, make_rng(6))
    x = make_rng(7).normal(size=(40, 4))
    for nm, p in PAIR_SUM_CASES:
        want = sum(float(nm.eval_many(x[u] - x[v]) ** p) for u, v in g.edges())
        assert poincare._edge_sum(x, g, nm, p) == pytest.approx(want, rel=1e-9)


RATIO_GRAPHS = [
    petersen_graph(),
    circular_ladder(6),
    sample_simple_regular(14, 4, make_rng(1))[0],
]
RATIO_CASES = [
    (Lq(1), 1),
    (Lq(2), 2),
    (Lq(3), 3),
    (Lq(32), 32),
    (Lq(2), 1),
    (Lq(math.inf), 2),
    (BlockNorm(Lq(3), ((Lq(4), 1), (Lq(1), 3))), 4),
    (lift_l1(Lq(4), 2, 2), 4),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ratio_invariant_under_translation_and_positive_scaling(data):
    g = data.draw(st.sampled_from(RATIO_GRAPHS))
    nm, p = data.draw(st.sampled_from(RATIO_CASES))
    # integer entries and shifts keep every difference exact under translation
    row = st.lists(st.integers(-20, 20), min_size=4, max_size=4)
    f = np.array(data.draw(st.lists(row, min_size=g.n, max_size=g.n)), dtype=float)
    assume(np.any(f != f[0]))
    shift = np.array(data.draw(st.lists(st.integers(-1000, 1000), min_size=4, max_size=4)))
    c = data.draw(st.floats(min_value=1e-3, max_value=1e3))
    base = poincare_ratio(g, f, nm, p).ratio
    assert poincare_ratio(g, f + shift, nm, p).ratio == pytest.approx(base, rel=1e-9)
    assert poincare_ratio(g, c * f, nm, p).ratio == pytest.approx(base, rel=1e-9)


def test_ratio_rejects_field_wider_than_the_norm():
    g = petersen_graph()
    f = make_rng(0).normal(size=(g.n, 2))
    for p in (2.0, 3.0):  # p = q skips eval_pow in the pair sum, not the edge sum
        with pytest.raises(ValueError, match="Lq of dimension 3 got vectors of width 2"):
            poincare_ratio(g, f, Lq(2, dim=3), p)
    assert poincare_ratio(g, f, Lq(2, dim=2), 2.0).ratio > 0


def test_ratio_rejects_constant_field():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="constant"):
        poincare_ratio(g, np.ones(4), Lq(2), 2)


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
def test_ratio_rejects_p_outside_one_to_inf(p):
    field = np.arange(4.0)
    with pytest.raises(ValueError, match="1 <= p < inf"):
        poincare_ratio(complete_graph(4), field, Lq(2), p)


def test_ratio_of_tiny_or_offset_fields_is_not_constant():
    # the ratio is invariant under scaling and shifting, so a field that
    # differs from a constant by 1e-9 v_2, or sits at 1e6 + 1e-3 v_2, still
    # gives the Petersen graph's d / (d - lambda2) = 1.5
    g = petersen_graph()
    v2 = gamma_scalar_l2_exact(g).extremizer
    for field in (1e-9 * v2, 1e6 + 1e-3 * v2):
        assert poincare_ratio(g, field, Lq(2), 2).ratio == pytest.approx(1.5, rel=1e-6)


def test_ratio_refuses_sums_outside_double_range():
    g = petersen_graph()
    field = make_rng(0).standard_normal((10, 2))
    base = {p: poincare_ratio(g, field, Lq(p), p).ratio for p in (1, 2)}
    for scale, nm, p in [
        (1e160, Lq(2), 2),
        (1e160, lift_l1(Lq(4), 1, 2), 4),
        (1e160, Lq(3), 3),
        (1e160, Lq(math.inf), 2),
        (1e-300, Lq(2), 2),
        (1e-300, lift_l1(Lq(4), 1, 2), 4),
        (1e-300, Lq(3), 3),
        (1e-300, Lq(math.inf), 2),
    ]:
        with pytest.raises(ValueError, match="p-th-power sums.*rescale the field"):
            poincare_ratio(g, scale * field, nm, p)
    for scale in (1e160, 1e-300):
        assert poincare_ratio(g, scale * field, Lq(1), 1).ratio == pytest.approx(base[1], rel=1e-12)
    # subnormal squares lose digits but stay in range
    assert poincare_ratio(g, 1e-160 * field, Lq(2), 2).ratio == pytest.approx(base[2], rel=0.1)
    # integer q >= 3; n = 100 is past the leaf run, so the split sums run
    big = sample_simple_regular(100, 3, make_rng(8))[0]
    wide = make_rng(1).standard_normal((100, 2))
    for h, f in ((g, field), (big, wide)):
        for q in (4, 32):
            # the last two have finite entries whose differences overflow
            for bad in (1e150 * f, 1e-150 * f, 1.7e308 * np.tanh(f), 1.7e308 * np.sign(f)):
                with pytest.raises(ValueError, match="p-th-power sums.*rescale the field"):
                    poincare_ratio(h, bad, Lq(q), q)
        # near either end of the range every digit stays
        for scale, q in [(1e70, 4), (1e-70, 4), (1e8, 32), (1e-8, 32)]:
            want = poincare_ratio(h, f, Lq(q), q).ratio
            assert poincare_ratio(h, scale * f, Lq(q), q).ratio == pytest.approx(want, rel=1e-12)


def test_scalar_closed_form_named_graphs():
    r4 = gamma_scalar_l2_exact(complete_graph(4))
    assert r4.gamma == pytest.approx(0.75)
    rp = gamma_scalar_l2_exact(petersen_graph())
    assert rp.gamma == pytest.approx(1.5)
    rk33 = gamma_scalar_l2_exact(complete_bipartite(3, 3))
    assert rk33.gamma == pytest.approx(1.0)


def test_scalar_closed_form_matches_eigenvector_ratio():
    g = petersen_graph()
    res = gamma_scalar_l2_exact(g)
    rep = poincare_ratio(g, res.extremizer, Lq(2), 2)
    assert rep.ratio == pytest.approx(res.gamma, rel=1e-9)


def test_scalar_closed_form_disconnected():
    # two components: lambda2 = d exactly, with the eigenvector +-1 on each
    g = disjoint_union(complete_graph(4), complete_graph(4))
    res = gamma_scalar_l2_exact(g)
    assert (res.gamma, res.lambda2, res.extremizer) == (math.inf, 3.0, None)
    assert type(res.lambda2) is float


def test_scalar_closed_form_iterative_above_dense_limit(monkeypatch):
    g, _ = sample_simple_regular(400, 3, make_rng(8))
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 400)
    dense = gamma_scalar_l2_exact(g)
    assert spectral.eigen_summary(g).mode == "dense"
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 100)

    def no_dense(*args, **kwargs):
        raise AssertionError("dense eigensolve above DENSE_LIMIT")

    monkeypatch.setattr(np.linalg, "eigh", no_dense)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_dense)
    fresh, _ = sample_simple_regular(400, 3, make_rng(8))
    it = gamma_scalar_l2_exact(fresh)
    assert it.lambda2 == pytest.approx(dense.lambda2, abs=1e-7)
    assert it.gamma == pytest.approx(dense.gamma, rel=1e-7)
    assert abs(float(it.extremizer @ dense.extremizer)) == pytest.approx(1.0, abs=1e-6)
    rep = poincare_ratio(fresh, it.extremizer, Lq(2), 2)
    assert rep.ratio == pytest.approx(it.gamma, rel=1e-7)


def test_gamma_search_matches_eigen_oracle():
    g = petersen_graph()
    rep = gamma_search(g, Lq(2), 2, k=1, budget=100_000, rng=7)
    assert rep.ratio >= 1.5 - 1e-6
    assert rep.ratio <= 1.5 + 1e-6


def test_gamma_search_monotone_and_budgeted():
    g = complete_graph(4)
    r1 = gamma_search(g, Lq(2), 2, k=1, budget=400, rng=3)
    r2 = gamma_search(g, Lq(2), 2, k=1, budget=40_000, rng=3)
    assert r2.ratio >= r1.ratio - 1e-12
    assert r1.evaluations <= 400


def test_gamma_search_never_exceeds_its_budget():
    # four candidates per move, so a move that would overrun the budget is not made
    g = petersen_graph()
    for budget in range(1, 21):
        rep = gamma_search(g, Lq(2), 2, k=1, budget=budget, rng=make_rng(budget))
        assert rep.evaluations <= budget and rep.evaluations % 4 == 0, budget
        assert rep.evaluations >= budget - 3, budget  # every move that fits is made


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
def test_gamma_search_rejects_p_outside_one_to_inf(p):
    with pytest.raises(ValueError, match="1 <= p < inf"):
        gamma_search(complete_graph(4), Lq(2), p, k=1, budget=40, rng=0)


def test_gamma_search_rejects_empty_fields():
    with pytest.raises(ValueError, match="k must be >= 1"):
        gamma_search(complete_graph(4), Lq(2), 2, k=0, budget=40, rng=0)


def test_gamma_search_reports_its_fields_ratio():
    g = petersen_graph()
    rep = gamma_search(g, Lq(3), 1.5, k=2, budget=400, rng=5)
    again = poincare_ratio(g, rep.field, Lq(3), 1.5)
    assert (rep.numerator, rep.denominator, rep.ratio, rep.p) == (
        again.numerator,
        again.denominator,
        again.ratio,
        again.p,
    )
    assert 0 < rep.evaluations <= 400 and again.evaluations == 0


def reference_gamma_search(g, norm, p, k, budget, rng):
    """The row-major search with four eval_pow calls per move, kept as the
    oracle of the coordinate-major table that replaced it."""
    poincare._check_p(p)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if budget <= 0:
        raise ValueError("budget must be positive")
    rng = as_rng(rng)
    n = g.n
    nbr = g.adj
    probes = 4
    best_ratio, best_field = -math.inf, None
    evals = 0
    per_restart = max(1, budget // poincare._SEARCH_RESTARTS)

    def full_parts(F):
        return poincare._pair_sum(F, norm, p), poincare._edge_sum(F, g, norm, p)

    scale = g.num_edges() / float(n * n)
    for r in range(poincare._SEARCH_RESTARTS):
        F = rng.normal(size=(n, k))
        num, den = full_parts(F)
        if den <= 0:
            continue
        if num / den * scale > best_ratio:
            best_ratio, best_field = num / den * scale, F.copy()
        step, fails = 1.0, 0
        budget_end = min(budget, (r + 1) * per_restart)
        while evals < budget_end and evals + probes <= budget:
            v = int(rng.integers(n))
            dirs = rng.normal(size=(probes, k))
            ts = step * np.array([1.0, 0.3, 3.0, 0.1])
            cands = F[v] + dirs * ts[:, None]
            diffs = cands[:, None, :] - F[None, :, :]
            nn = norm.eval_pow(diffs.reshape(-1, k), p).reshape(probes, n)
            nn[:, v] = 0.0
            old_pair = float(np.sum(norm.eval_pow(F[v] - F, p)))
            cnum = num - 2 * old_pair + 2 * nn.sum(axis=1)
            edge_old = float(np.sum(norm.eval_pow(F[v] - F[nbr[v]], p)))
            ediffs = cands[:, None, :] - F[nbr[v]][None, :, :]
            dd = norm.eval_pow(ediffs.reshape(-1, k), p).reshape(probes, -1)
            cden = den - edge_old + dd.sum(axis=1)
            evals += probes
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(cden > 0, cnum / cden, -math.inf)
            i = int(np.argmax(ratios))
            if ratios[i] > (num / den) * (1 + 1e-12):
                F = F.copy()
                F[v] = cands[i]
                num, den = float(cnum[i]), float(cden[i])
                fails = 0
                if num / den * scale > best_ratio:
                    best_ratio, best_field = num / den * scale, F.copy()
            else:
                fails += 1
                if fails > 2 * n:
                    step *= 0.5
                    fails = 0
                    if step < 1e-9:
                        break
    return replace(poincare_ratio(g, best_field, norm, p), evaluations=evals)


SEARCH_CASES = [
    (Lq(1), 1, 2),
    (Lq(2), 2, 1),
    (Lq(4), 4, 2),
    (Lq(32), 32, 2),
    (Lq(3), 1.5, 2),  # p != q: the root-then-power path
    (Lq(math.inf), 2, 2),
    (BlockNorm(Lq(3), ((Lq(1), 1), (Lq(2), 1))), 3, 2),
    (lift_l1(Lq(4), 2, 2), 4, 4),
]


@pytest.fixture(scope="module")
def search_graphs():
    sampled, _ = sample_simple_regular(60, 4, make_rng(21))
    return {"petersen": petersen_graph(), "sampled_60_4": sampled}


@pytest.mark.parametrize("graph", ["petersen", "sampled_60_4"])
@pytest.mark.parametrize("nm, p, k", SEARCH_CASES)
def test_gamma_search_matches_row_major_reference(search_graphs, graph, nm, p, k):
    g = search_graphs[graph]
    got = gamma_search(g, nm, p, k, budget=400, rng=make_rng(31))
    want = reference_gamma_search(g, nm, p, k, budget=400, rng=make_rng(31))
    assert got.evaluations == want.evaluations
    assert got.ratio == pytest.approx(want.ratio, rel=1e-12)
    np.testing.assert_allclose(got.field, want.field, rtol=1e-12, atol=0)


@pytest.mark.parametrize("q", [4, 32])
def test_gamma_search_path_independent_of_pair_sum_kernel(monkeypatch, q):
    # the split sums and the blocked gap loop differ in the last digits only,
    # which moves no decision of the search
    g = sample_simple_regular(300, 6, make_rng(23))[0]
    got = gamma_search(g, Lq(q), q, k=2, budget=400, rng=make_rng(33))
    monkeypatch.setattr(poincare, "_column_pair_sums", reference_column_pair_sums)
    want = gamma_search(g, Lq(q), q, k=2, budget=400, rng=make_rng(33))
    assert got.evaluations == want.evaluations
    np.testing.assert_array_equal(got.field, want.field)
    assert got.ratio == pytest.approx(want.ratio, rel=1e-12)


# gamma_search on G(300, 6) at budget 400 for the benchmark's seven (norm, p, k)
# triples, one seed each: evaluations, ratio and the field's sum, as given by
# the row-major norm evaluations that the coordinate-major kernels replaced
PINNED_SEARCHES = [
    (Lq(1), 1, 2, 1.0378850327411204, 26.529756250355163),
    (Lq(2), 2, 2, 1.0652423700558091, -7.272944871192481),
    (Lq(4), 4, 2, 1.3568333731746511, 12.34020050859322),
    (Lq(8), 8, 2, 3.2414839233859407, -8.30889233900349),
    (Lq(16), 16, 2, 44.78813040954662, -2.8192039226098586),
    (Lq(32), 32, 2, 65048.90459137399, -23.34483760020059),
    (lift_l1(Lq(4), 2, 2), 4, 4, 1.3012184415264065, -27.033049260038133),
]


@pytest.fixture(scope="module")
def pinned_graph():
    return sample_simple_regular(300, 6, make_rng(23))[0]


@pytest.mark.parametrize("case", range(len(PINNED_SEARCHES)))
def test_gamma_search_matches_pinned_decisions(pinned_graph, case):
    nm, p, k, ratio, field_sum = PINNED_SEARCHES[case]
    rep = gamma_search(pinned_graph, nm, p, k, budget=400, rng=make_rng(34 + case))
    assert rep.evaluations == 400
    assert rep.ratio == pytest.approx(ratio, rel=1e-12)
    assert float(rep.field.sum()) == pytest.approx(field_sum, rel=1e-12)


@pytest.mark.parametrize("p", [900, 5000])
def test_gamma_search_names_p_when_no_start_is_in_range(p):
    # some pair and some edge of every normal start have a norm above 1, whose
    # p-th power overflows: both sums are inf, and no start has a ratio
    with pytest.raises(ValueError, match=f"at p = {p} every random start's p-th-power sums left the double range"):
        gamma_search(petersen_graph(), Lq(2), p, 2, 40, 0)


@pytest.mark.parametrize("seed", range(6))
def test_gamma_search_near_the_double_range_reports_a_rechecked_ratio(seed):
    # at p = 400 some random starts' pair sums overflow; such a start, or a
    # move to a ratio that is not finite, must never become the best field
    g = petersen_graph()
    try:
        rep = gamma_search(g, Lq(2), 400, 2, 4, seed)
    except ValueError as exc:
        assert "every random start" in str(exc)
        return
    assert math.isfinite(rep.ratio)
    assert rep.ratio == poincare_ratio(g, rep.field, Lq(2), 400).ratio


def test_gamma_search_names_both_widths_of_a_block_norm():
    g = petersen_graph()
    nm = lift_l1(Lq(4), 2, 2)
    with pytest.raises(ValueError, match="BlockNorm of dimension 4 got vectors of width 3"):
        gamma_search(g, nm, 4, k=3, budget=40, rng=0)
    with pytest.raises(ValueError, match="BlockNorm of dimension 4 got vectors of width 3"):
        poincare_ratio(g, make_rng(0).normal(size=(g.n, 3)), nm, 4)


def test_gamma_search_takes_integer_k_and_budget():
    g = petersen_graph()
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        gamma_search(g, Lq(2), 2, k=2.0, budget=40, rng=0)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        gamma_search(g, Lq(2), 2, k=2, budget=2.5, rng=0)
    want = gamma_search(g, Lq(2), 2, k=2, budget=40, rng=0)
    got = gamma_search(g, Lq(2), 2, k=np.int64(2), budget=np.int64(40), rng=0)
    assert (got.evaluations, got.ratio) == (want.evaluations, want.ratio)


def test_gamma_search_makes_one_norm_call_per_move(monkeypatch):
    # Lq(4) at p = 4 is separable, so the pair sums make no norm calls and
    # every kernel call is a move or a full edge sum
    g = sample_simple_regular(60, 4, make_rng(22))[0]
    calls = []
    kernel = Lq._pow_kernel

    def counted(self, a, p):
        calls.append(a.shape)
        return kernel(self, a, p)

    monkeypatch.setattr(Lq, "_pow_kernel", counted)
    rep = gamma_search(g, Lq(4), 4, k=2, budget=400, rng=make_rng(32))
    moves = rep.evaluations // 4  # four candidates per move
    edge_sums = poincare._SEARCH_RESTARTS + 1  # one per restart, one in the recheck
    assert rep.evaluations == 400
    assert len(calls) == moves + edge_sums
    assert calls.count((2, 5, g.n)) == moves  # the current row and four candidates


def test_gamma_search_k4_l1_matches_brute_force_grid():
    g = complete_graph(4)
    best = 0.0
    for f in product((-1.0, 0.0, 1.0), repeat=4):
        if len(set(f)) == 1:
            continue
        best = max(best, poincare_ratio(g, np.array(f), Lq(1), 1).ratio)
    rep = gamma_search(g, Lq(1), 1, k=1, budget=60_000, rng=11)
    assert rep.ratio >= best - 1e-6


def test_embedding_petersen():
    # The distance-row (Frechet) map is an isometry into l_inf and
    # non-contracting into l_2, so its l_2 distortion D obeys the Poincare
    # bound D^2 >= avg dist^2 / gamma, with gamma = 3 / (3 - 1) on Petersen.
    g = petersen_graph()
    field = np.vstack(list(graphs.distance_rows(g)))

    worst = 0.0
    for v in range(10):
        for w in range(v + 1, 10):
            d_g = bfs_distances(g, [v])[w]
            assert np.abs(field[v] - field[w]).max() == d_g
            d_f = float(np.linalg.norm(field[v] - field[w]))
            assert d_f >= d_g
            worst = max(worst, d_f / d_g)
    # per vertex: 3 vertices at distance 1 and 6 at distance 2
    avg_d2 = (field**2).mean()
    assert avg_d2 == pytest.approx(2.7)
    gamma = gamma_scalar_l2_exact(g).gamma
    assert gamma == pytest.approx(1.5)
    rep = poincare_ratio(g, field, Lq(2), 2)
    assert rep.numerator >= avg_d2 - 1e-12
    assert rep.denominator <= worst**2 + 1e-12
    assert rep.ratio <= gamma * (1 + 1e-12)
    assert worst >= math.sqrt(avg_d2 / gamma)


def test_embedding_gamma_lower_bound_inequality():
    # A non-contracting field with edge stretch D has ratio at least
    # avg dist / D at p = 1, and in l_2 at p = 2 the constant bounds D^2
    # below by avg dist^2 / gamma.
    g, _ = sample_simple_regular(64, 6, make_rng(2))
    field = np.vstack(list(graphs.distance_rows(g)))
    avg = uc_experiment([g])[0]["avg_distance"]
    stretch = max(float(np.linalg.norm(field[u] - field[v])) for u, v in g.edges())
    assert poincare_ratio(g, field, Lq(2), 1).ratio >= avg / stretch - 1e-9
    gamma = gamma_scalar_l2_exact(g).gamma
    assert poincare_ratio(g, field, Lq(2), 2).ratio <= gamma * (1 + 1e-9)
    assert stretch**2 >= (field**2).mean() / gamma


def test_average_distance_named_graphs():
    k4, pet = uc_experiment([complete_graph(4), petersen_graph()])
    assert k4["avg_distance_distinct"] == pytest.approx(1.0)
    assert pet["avg_distance"] == pytest.approx(1.5)
    assert pet["avg_distance_distinct"] == pytest.approx(15.0 / 9.0)


def _bfs_double_loop_average(g):
    rows = [bfs_distances(g, [v]) for v in range(g.n)]
    if any(x == math.inf for row in rows for x in row):
        return math.inf
    return sum(sum(row) for row in rows) / (g.n * g.n)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([(8, 3), (10, 3), (16, 3), (30, 3), (12, 4), (25 * 2, 4)]),
)
def test_average_distance_matches_bfs_double_loop(seed, size):
    g, _ = sample_simple_regular(*size, make_rng(seed))
    (row,) = uc_experiment([g])
    assert row["avg_distance"] == _bfs_double_loop_average(g)
    if row["avg_distance"] < math.inf:
        assert row["avg_distance_distinct"] == pytest.approx(row["avg_distance"] * g.n / (g.n - 1))


@pytest.mark.parametrize("block_entries", [1 << 22, 3 * 14])
def test_average_distance_disjoint_union_is_infinite(monkeypatch, block_entries):
    # 3 * 14 entries: the 14 distance rows come in blocks of three
    monkeypatch.setattr(graphs, "DISTANCE_CHUNK_ENTRIES", block_entries)
    g = disjoint_union(complete_graph(4), petersen_graph())
    (row,) = uc_experiment([g])
    assert (row["avg_distance"], row["avg_distance_distinct"]) == (math.inf, math.inf)


def test_uc_experiment_rows_and_monotone_trend():
    graphs = []
    for n in (16, 32, 64):
        g, _ = sample_simple_regular(n, 6, make_rng(n))
        graphs.append(g)
    rows = uc_experiment(graphs)
    assert [r["n"] for r in rows] == [16, 32, 64]
    avgs = [r["avg_distance"] for r in rows]
    assert avgs == sorted(avgs)
    for g, r in zip(graphs, rows):
        assert set(r) == {"n", "d", "avg_distance", "avg_distance_distinct"}
        assert r["avg_distance_distinct"] == pytest.approx(r["avg_distance"] * g.n / (g.n - 1))
