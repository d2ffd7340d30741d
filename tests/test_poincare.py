import math
from itertools import product

import numpy as np
import pytest

from specgap.graphs import (
    complete_bipartite,
    complete_graph,
    disjoint_union,
    petersen_graph,
)
import specgap.poincare as poincare
import specgap.spectral as spectral
from specgap.norms import Lq
from specgap.poincare import (
    average_pairwise_distance,
    bourgain_style_embedding,
    gamma_scalar_l2_exact,
    gamma_search,
    poincare_ratio,
    uc_experiment,
)
from specgap.rand import make_rng
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


def test_ratio_rejects_constant_field():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="constant"):
        poincare_ratio(g, np.ones(4), Lq(2), 2)


def test_scalar_closed_form_named_graphs():
    r4 = gamma_scalar_l2_exact(complete_graph(4))
    assert r4.gamma == pytest.approx(0.75)
    assert r4.halved_variant == pytest.approx(0.375)
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
    g = disjoint_union(complete_graph(4), complete_graph(4))
    assert gamma_scalar_l2_exact(g).gamma == math.inf


def test_scalar_closed_form_iterative_above_dense_limit(monkeypatch):
    g, _ = sample_simple_regular(400, 3, make_rng(8))
    dense = gamma_scalar_l2_exact(g)
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
    g = petersen_graph()
    rep = bourgain_style_embedding(g, q=2, rng=5)
    # expansion side holds after rescaling, exhaustively
    dist = {}
    from specgap.graphs import dist as gdist

    worst = 0.0
    for v in range(10):
        for w in range(v + 1, 10):
            d_g = gdist(g, v, w)
            d_f = float(np.linalg.norm(rep.field[v] - rep.field[w]))
            assert d_f >= d_g - 1e-9
            worst = max(worst, d_f / d_g)
    assert rep.distortion == pytest.approx(worst, rel=1e-9)
    assert rep.distortion <= 3.0


@pytest.mark.parametrize("seed", range(50))
def test_embedding_petersen_many_seeds(seed):
    g = petersen_graph()
    rep = bourgain_style_embedding(g, q=2, rng=seed)
    from specgap.graphs import dist as gdist

    worst = 0.0
    for v in range(10):
        for w in range(v + 1, 10):
            d_g = gdist(g, v, w)
            d_f = float(np.linalg.norm(rep.field[v] - rep.field[w]))
            assert d_f >= d_g - 1e-9
            worst = max(worst, d_f / d_g)
    assert rep.distortion == pytest.approx(worst, rel=1e-9)
    assert rep.distortion <= 3.0


@pytest.mark.parametrize("scales", [[0, 1, 2], [1, 2.5], [-1], ["2"]])
def test_embedding_rejects_bad_scale(scales):
    with pytest.raises(ValueError, match="scales must be integers >= 1"):
        bourgain_style_embedding(petersen_graph(), q=2, scales=scales, rng=0)


def test_embedding_rejects_empty_scales():
    with pytest.raises(ValueError, match="scales must not be empty"):
        bourgain_style_embedding(petersen_graph(), q=2, scales=[], rng=0)


@pytest.mark.parametrize("trials", [0, -3])
def test_embedding_rejects_bad_trials(trials):
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        bourgain_style_embedding(petersen_graph(), q=2, trials=trials, rng=0)


def test_embedding_gamma_lower_bound_inequality():
    g, _ = sample_simple_regular(64, 6, make_rng(2))
    rep = bourgain_style_embedding(g, q=2, rng=9)
    avg = average_pairwise_distance(g)["all_pairs"]
    edges = g.edges()
    stretch = max(
        float(np.linalg.norm(rep.field[u] - rep.field[v])) for u, v in edges
    )
    assert rep.ratio_report.ratio >= avg / stretch - 1e-9


def test_embedding_refuses_n_above_dense_limit(monkeypatch):
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)

    def no_distances(*args, **kwargs):
        raise AssertionError("distance table built before the size check")

    monkeypatch.setattr(poincare, "bfs_distances", no_distances)
    with pytest.raises(ValueError, match="DENSE_LIMIT = 8"):
        bourgain_style_embedding(petersen_graph(), q=2, rng=0)


def test_embedding_rejects_disconnected():
    g = disjoint_union(complete_graph(4), complete_graph(4))
    with pytest.raises(ValueError, match="connected"):
        bourgain_style_embedding(g, q=2, rng=0)


def test_average_distance_named_graphs():
    k4 = average_pairwise_distance(complete_graph(4))
    assert k4["distinct_pairs"] == pytest.approx(1.0)
    pet = average_pairwise_distance(petersen_graph())
    assert pet["all_pairs"] == pytest.approx(1.5)
    assert pet["distinct_pairs"] == pytest.approx(15.0 / 9.0)


def test_uc_experiment_rows_and_monotone_trend():
    graphs = []
    for n in (16, 32, 64):
        g, _ = sample_simple_regular(n, 6, make_rng(n))
        graphs.append(g)
    rows = uc_experiment(graphs)
    assert [r["n"] for r in rows] == [16, 32, 64]
    avgs = [r["avg_distance"] for r in rows]
    assert avgs == sorted(avgs)
    assert all(r["edge_average"] == 1.0 for r in rows)
    # with the typical parameterization the Gamma side is astronomically
    # large, so the first grid q already satisfies the chain
    assert all(r["q_lower_bound"] == 2 for r in rows)
