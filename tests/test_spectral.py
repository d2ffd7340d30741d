import math
from fractions import Fraction

import numpy as np
import pytest

import scipy.sparse.linalg as spla

import specgap.spectral as spectral
from specgap.expansion import spectral_sufficient_check
from specgap.graphs import (
    bfs_distances,
    circular_ladder,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    petersen_graph,
)
from specgap.poincare import gamma_scalar_l2_exact
from specgap.rand import make_rng
from specgap.sampling import sample_simple_regular
from specgap.spectral import (
    adjacency_matrix,
    cheeger_exact,
    cheeger_sandwich_check,
    cheeger_upper,
    eigen_summary,
    friedman_check,
    walk_sum_bound_check,
)


def test_k4_spectrum():
    s = eigen_summary(complete_graph(4))
    assert s.lambda1 == pytest.approx(3.0)
    assert s.lambda2 == pytest.approx(-1.0)
    assert s.lam == pytest.approx(1.0)
    assert np.allclose(s.eigenvalues, [-1, -1, -1, 3], atol=1e-9)


def test_petersen_spectrum():
    s = eigen_summary(petersen_graph())
    evals = np.array(s.eigenvalues)
    assert s.lambda2 == pytest.approx(1.0)
    assert s.lam == pytest.approx(2.0)
    assert np.sum(np.isclose(evals, 1.0, atol=1e-9)) == 5
    assert np.sum(np.isclose(evals, -2.0, atol=1e-9)) == 4


def test_k33_bipartite_lam_is_d():
    s = eigen_summary(complete_bipartite(3, 3))
    assert s.lam == pytest.approx(3.0)
    assert s.lambda2 == pytest.approx(0.0, abs=1e-9)


def test_spectrum_invariants_on_random_graphs():
    rng = make_rng(2)
    for seed in range(5):
        g, _ = sample_simple_regular(30, 3, make_rng(100 + seed))
        s = eigen_summary(g)
        evals = np.array(s.eigenvalues)
        assert abs(evals.sum()) <= 1e-6 * g.n  # traceless
        assert np.sum(evals**2) == pytest.approx(g.n * g.d, rel=1e-6)
        assert np.all(np.abs(evals) <= g.d + 1e-9)


def test_iterative_agrees_with_dense():
    g, _ = sample_simple_regular(400, 3, make_rng(8))
    dense = eigen_summary(g)
    import specgap.spectral as spectral

    old = spectral.DENSE_LIMIT
    spectral.DENSE_LIMIT = 100
    try:
        it = eigen_summary(g, tol=1e-8)
    finally:
        spectral.DENSE_LIMIT = old
    assert it.mode == "iterative"
    assert it.lambda2 == pytest.approx(dense.lambda2, abs=1e-7)
    assert it.lam == pytest.approx(dense.lam, abs=1e-7)


def test_cheeger_k4():
    res = cheeger_exact(complete_graph(4))
    assert res.value == Fraction(2)
    assert len(res.witness) == 2


def test_cheeger_petersen():
    res = cheeger_exact(petersen_graph())
    assert res.value == Fraction(1)
    assert len(res.witness) == 5


def test_cheeger_disconnected_zero():
    g = disjoint_union(complete_graph(4), complete_graph(4))
    res = cheeger_exact(g)
    assert res.value == 0


def test_cheeger_exact_size_cutoff_message():
    g, _ = sample_simple_regular(30, 3, make_rng(5))
    with pytest.raises(ValueError, match="cheeger_upper"):
        cheeger_exact(g)


def test_cheeger_upper_is_upper_bound():
    for seed in range(3):
        g, _ = sample_simple_regular(14, 3, make_rng(seed))
        exact = cheeger_exact(g)
        ub = cheeger_upper(g)
        assert ub.value >= exact.value
        assert not ub.exact


def test_cheeger_sandwich_named_graphs():
    r4 = cheeger_sandwich_check(complete_graph(4))
    assert r4["h"] == 2 and r4["ok"]
    assert r4["lower"] == pytest.approx(2.0)
    assert r4["upper"] == pytest.approx(math.sqrt(24.0))
    rp = cheeger_sandwich_check(petersen_graph())
    assert rp["h"] == 1 and rp["ok"]
    assert rp["upper"] == pytest.approx(math.sqrt(12.0))


def test_cheeger_sandwich_random_g12():
    for seed in range(10):
        g, _ = sample_simple_regular(12, 3, make_rng(200 + seed))
        assert cheeger_sandwich_check(g)["ok"]


def test_friedman_check_k33_and_k4():
    r = friedman_check(complete_bipartite(3, 3), slack=0.1)
    assert r.lam == pytest.approx(3.0)
    assert not r.passed  # 3 > 2 sqrt 2 + 0.1
    assert not r.passed_21  # 3 > 2.1 sqrt 2 ~ 2.970
    r4 = friedman_check(complete_graph(4))
    assert r4.passed_21  # 1 <= 2.1 sqrt 2


def test_walk_sum_bound_k4():
    g = complete_graph(4)
    y = np.array([1.0, -1.0, 0.0, 0.0]) / math.sqrt(2)
    rep = walk_sum_bound_check(g, y, 1)
    # A y = -y on mean-zero vectors of K4
    assert rep["value"] == pytest.approx(1.0)
    assert rep["bound"] == pytest.approx(4 * 4.41 * 2)
    assert rep["ok"]


def test_walk_sum_bound_petersen_eigenvector():
    g = petersen_graph()
    a = adjacency_matrix(g)
    vals, vecs = np.linalg.eigh(a)
    y = vecs[:, -2]  # eigenvalue 1, mean-zero by orthogonality to 1-vector
    rep = walk_sum_bound_check(g, y, 3)
    assert rep["ok"]
    assert rep["value"] == pytest.approx(9.0, rel=1e-9)  # (1+1+1)^2


def test_walk_sum_preconditions():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="unit"):
        walk_sum_bound_check(g, np.array([1.0, -1.0, 0.0, 0.0]), 1)
    with pytest.raises(ValueError, match="zero mean"):
        walk_sum_bound_check(g, np.array([1.0, 0, 0, 0]), 1)
    with pytest.raises(ValueError, match="2.1"):
        y = np.zeros(6)
        y[0], y[3] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        walk_sum_bound_check(complete_bipartite(3, 3), y, 1)


# -- cheeger_exact against the per-edge block scan --------------------------------


def reference_cheeger_exact(g):
    """The per-edge scan in blocks of 2^20 masks, kept as the oracle: exact
    integer cross-comparison, the smallest mask among the minimal ratios."""
    n = g.n
    best_cut, best_size, best_mask = None, None, None
    chunk = 1 << 20
    for start in range(1, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        sizes = np.bitwise_count(masks).astype(np.int64)
        ok = (sizes >= 1) & (sizes <= n // 2)
        if not np.any(ok):
            continue
        masks, sizes = masks[ok], sizes[ok]
        cut = np.zeros(len(masks), dtype=np.int64)
        for u, v in g.edges():
            cut += ((masks >> np.uint32(u)) ^ (masks >> np.uint32(v))) & np.uint32(1)
        i = int(np.argmin(cut / sizes))
        if best_cut is None or int(cut[i]) * best_size < best_cut * int(sizes[i]):
            best_cut, best_size, best_mask = int(cut[i]), int(sizes[i]), int(masks[i])
    witness = frozenset(v for v in range(n) if (best_mask >> v) & 1)
    return Fraction(best_cut, best_size), witness


def _exact_oracle_graphs():
    k4, petersen = complete_graph(4), petersen_graph()
    yield from (k4, complete_graph(7), complete_bipartite(3, 3), petersen)
    yield from (circular_ladder(5), circular_ladder(9), complete_graph(12))
    yield from (disjoint_union(k4, k4), disjoint_union(petersen, k4))
    yield disjoint_union(disjoint_union(k4, k4), disjoint_union(k4, k4))
    yield disjoint_union(petersen, circular_ladder(5))
    for n, d in [(12, 3), (12, 5), (14, 4), (16, 3), (16, 6), (18, 3), (20, 3), (20, 4)]:
        for seed in range(2):
            yield sample_simple_regular(n, d, make_rng(700 + seed))[0]


def test_cheeger_exact_matches_per_edge_scan():
    for g in _exact_oracle_graphs():
        value, witness = reference_cheeger_exact(g)
        res = cheeger_exact(g)
        assert res.value == value and res.witness == witness, (g.n, g.d)
        assert type(res.value) is Fraction and res.exact
        assert all(type(v) is int for v in res.witness)


# -- cheeger_upper against the per-step sweep -------------------------------------


def reference_cheeger_upper(g):
    """The per-step sweep: one Fraction and one frozenset per prefix.

    Dense graphs only: the eigh call is the one the library's spectrum makes,
    so both sweeps start from the same vector.
    """
    _, vecs = np.linalg.eigh(adjacency_matrix(g))
    order = np.argsort(vecs[:, -2])
    best = None
    in_s = set()
    cut = 0
    for idx in order[: g.n - 1]:
        v = int(idx)
        cut += sum(1 if w not in in_s else -1 for w in g.adj[v])
        in_s.add(v)
        if len(in_s) <= g.n // 2:
            cand = (Fraction(cut, len(in_s)), frozenset(in_s))
            if best is None or cand[0] < best[0]:
                best = cand
    for v in range(min(g.n, 32)):
        dd = bfs_distances(g, [v])
        order_b = sorted(range(g.n), key=lambda w: (dd[w], w))
        in_s = set()
        cut = 0
        for w in order_b:
            if dd[w] == float("inf"):
                break
            cut += sum(1 if x not in in_s else -1 for x in g.adj[w])
            in_s.add(w)
            if len(in_s) > g.n // 2:
                break
            cand = (Fraction(cut, len(in_s)), frozenset(in_s))
            if cand[0] < best[0]:
                best = cand
    return best


def _oracle_graphs():
    k4 = complete_graph(4)
    yield k4
    yield complete_graph(7)
    yield complete_bipartite(3, 3)
    yield petersen_graph()
    for m in (5, 9, 40):
        yield circular_ladder(m)
    # ties between prefix sizes and across sweeps
    yield disjoint_union(k4, k4)
    yield disjoint_union(disjoint_union(k4, k4), disjoint_union(k4, k4))
    yield disjoint_union(petersen_graph(), circular_ladder(6))
    for n, d in [(20, 3), (26, 3), (40, 3), (50, 4), (80, 3), (120, 3)]:
        for seed in range(3):
            yield sample_simple_regular(n, d, make_rng(900 + seed))[0]
    for i, (n, d) in enumerate([(250, 5), (500, 3), (500, 4)]):
        yield sample_simple_regular(n, d, make_rng(300 + i))[0]


def test_cheeger_upper_matches_per_step_sweep():
    for g in _oracle_graphs():
        value, witness = reference_cheeger_upper(g)
        res = cheeger_upper(g)
        assert res.value == value and res.witness == witness, (g.n, g.d)
        assert type(res.value) is Fraction and not res.exact
        assert all(type(v) is int for v in res.witness)


# -- one eigensolve per graph -----------------------------------------------------


@pytest.mark.parametrize("dense_limit", [spectral.DENSE_LIMIT, 100])
def test_certificates_share_one_eigensolve(monkeypatch, dense_limit):
    monkeypatch.setattr(spectral, "DENSE_LIMIT", dense_limit)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for mod, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (spla, "eigsh")):
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    g, _ = sample_simple_regular(200, 4, make_rng(11))
    summary = eigen_summary(g)
    solves = list(calls)
    assert solves == (["eigh"] if dense_limit >= g.n else ["eigsh", "eigsh"])
    assert summary.mode == ("dense" if dense_limit >= g.n else "iterative")

    y = make_rng(12).normal(size=g.n)
    y -= y.mean()
    y /= np.linalg.norm(y)
    assert friedman_check(g).passed_21
    assert spectral_sufficient_check(g).details["lam"] == summary.lam
    assert walk_sum_bound_check(g, y, 4)["ok"]
    assert cheeger_sandwich_check(g)["ok"]
    ub = cheeger_upper(g)
    l2 = gamma_scalar_l2_exact(g)
    assert calls == solves
    assert eigen_summary(g) is summary
    assert l2.lambda2 == summary.lambda2
    assert float(ub.value) >= summary.spectral_gap / 2 - 1e-9  # h_ub >= h


def test_spectrum_cache_hands_out_copies():
    g = petersen_graph()
    first = gamma_scalar_l2_exact(g).extremizer
    first[:] = 0.0
    again = gamma_scalar_l2_exact(g).extremizer
    assert np.linalg.norm(again) == pytest.approx(1.0)


def test_spectrum_cache_not_part_of_equality():
    g = petersen_graph()
    eigen_summary(g)
    fresh = petersen_graph()
    assert g == fresh and hash(g) == hash(fresh)
    assert "_spectra" not in repr(g)


def test_failed_solve_is_not_cached(monkeypatch):
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 100)
    g, _ = sample_simple_regular(200, 3, make_rng(13))
    with pytest.raises(RuntimeError, match="exceeds tol"):
        eigen_summary(g, tol=1e-300)
    assert ("iterative", 1e-300) not in (g._spectra or {})
    assert eigen_summary(g).mode == "iterative"
