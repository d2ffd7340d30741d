import dataclasses
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

import scipy.sparse.linalg as spla

import specgap.spectral as spectral
from specgap.expansion import spectral_sufficient_check
from specgap.graphs import (
    RegularGraph,
    bfs_distances,
    circular_ladder,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    load_edge_list,
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
    g = complete_graph(4)
    s = eigen_summary(g)
    assert s.lambda1 == pytest.approx(3.0)
    assert s.lambda2 == pytest.approx(-1.0)
    assert s.lam == pytest.approx(1.0)
    evals = np.linalg.eigvalsh(adjacency_matrix(g))
    assert np.allclose(evals, [-1, -1, -1, 3], atol=1e-9)


def test_petersen_spectrum():
    g = petersen_graph()
    s = eigen_summary(g)
    evals = np.linalg.eigvalsh(adjacency_matrix(g))
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
        evals = np.linalg.eigvalsh(adjacency_matrix(g))
        assert np.allclose([s.lambda_min, s.lambda2, s.lambda1], evals[[0, -2, -1]], atol=1e-9)
        assert abs(evals.sum()) <= 1e-6 * g.n  # traceless
        assert np.sum(evals**2) == pytest.approx(g.n * g.d, rel=1e-6)
        assert np.all(np.abs(evals) <= g.d + 1e-9)


def test_iterative_agrees_with_dense(monkeypatch):
    # random draws at three degrees, a bipartite graph of tiny gap (lambda_min
    # = -3), one of a 298-fold lambda_2 = 0, and a disconnected one (lambda_2 = d)
    graphs = {
        f"G(400, {d})": sample_simple_regular(400, d, make_rng(8))[0] for d in (3, 6, 10)
    }
    graphs["circular_ladder(200)"] = circular_ladder(200)
    graphs["K_150,150"] = complete_bipartite(150, 150)
    graphs["2 x G(150, 3)"] = _union(
        [sample_simple_regular(150, 3, make_rng(80 + i))[0] for i in range(2)]
    )
    for name, g in graphs.items():
        monkeypatch.setattr(spectral, "DENSE_LIMIT", g.n)
        dense = eigen_summary(g)
        monkeypatch.setattr(spectral, "DENSE_LIMIT", 100)
        it = eigen_summary(RegularGraph(g.n, g.d, g.adj))  # a fresh graph solves again
        assert (dense.mode, it.mode) == ("dense", "iterative"), name
        for field in ("lambda1", "lambda2", "lambda_min", "lam"):
            assert getattr(it, field) == pytest.approx(getattr(dense, field), abs=1e-7), (
                name,
                field,
            )
        assert dense.residual <= spectral.ARPACK_TOL and it.residual <= spectral.ARPACK_TOL, name
    assert eigen_summary(graphs["circular_ladder(200)"]).lambda_min == pytest.approx(-3)
    assert eigen_summary(graphs["2 x G(150, 3)"]).lambda2 == pytest.approx(3)


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
    r = friedman_check(complete_bipartite(3, 3))
    assert r.lam == pytest.approx(3.0)
    assert not r.passed  # 3 > 2 sqrt 2
    assert not r.passed_21  # 3 > 2.1 sqrt 2 ~ 2.970
    r4 = friedman_check(complete_graph(4))
    assert r4.passed_21  # 1 <= 2.1 sqrt 2


def test_gate_21_agrees_at_the_threshold():
    """friedman_check, spectral_sufficient_check and the walk-sum precondition
    decide lam(G) <= 2.1 sqrt(d-1) alike at the threshold and one ulp above."""
    g = complete_graph(7)  # d = 6
    y = np.array([1.0, -1.0, 0, 0, 0, 0, 0]) / math.sqrt(2)
    summary = eigen_summary(g)
    threshold = 2.1 * math.sqrt(5)
    for lam, passes in ((threshold, True), (np.nextafter(threshold, np.inf), False)):
        object.__setattr__(g, "_summary", dataclasses.replace(summary, lam=float(lam)))
        assert friedman_check(g).passed_21 is passes
        verdict = spectral_sufficient_check(g)
        assert (verdict.status == "pass") is passes
        assert verdict.details["threshold"] == friedman_check(g).bound_21
        try:
            walk_sum_bound_check(g, y, 2)
            accepted = True
        except ValueError as exc:
            assert "2.1" in str(exc)
            accepted = False
        assert accepted is passes


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


def test_walk_sum_refuses_l_past_the_double_range():
    g = petersen_graph()
    y = np.linalg.eigh(adjacency_matrix(g))[1][:, -2]
    assert walk_sum_bound_check(g, y, 325)["ok"]  # 4 * 8.82^325 ~ 7.6e307
    for l in (326, 400):
        with pytest.raises(ValueError, match="need l <= 325 at d=3"):
            walk_sum_bound_check(g, y, l)


def test_walk_sum_projects_away_the_tolerated_mean():
    # the shift keeps sum(y) = 2e-10 inside the 1e-9 n tolerance, but A
    # multiplies that ones-component by d = 10 per step: unprojected, the walk
    # overflowed to inf at l = 192 and reported the bound violated
    g, _ = sample_simple_regular(200, 10, 1)
    y0 = np.random.default_rng(0).normal(size=200)
    y0 -= y0.mean()
    y0 /= np.linalg.norm(y0)
    y = y0 + 2e-10 / 200
    rep = walk_sum_bound_check(g, y, 192)
    assert rep["ok"] and 0 < rep["value"] <= rep["bound"]
    assert rep["value"] == pytest.approx(walk_sum_bound_check(g, y0, 192)["value"], rel=1e-6)
    # at small l the projection changes nothing visible: dense oracle on y itself
    a = adjacency_matrix(g)
    z, acc = y.copy(), np.zeros(200)
    for _ in range(8):
        z = a @ z
        acc += z
    assert walk_sum_bound_check(g, y, 8)["value"] == pytest.approx(acc @ acc, rel=1e-9)


def test_walk_sum_preconditions():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="unit"):
        walk_sum_bound_check(g, np.array([1.0, -1.0, 0.0, 0.0]), 1)
    with pytest.raises(ValueError, match="zero mean"):
        walk_sum_bound_check(g, np.array([1.0, 0, 0, 0]), 1)
    k33 = complete_bipartite(3, 3)
    y = np.zeros(6)
    y[0], y[3] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    # K_{3,3} fails the gate, but l = 0 is refused first, before any eigensolve
    with pytest.raises(ValueError, match="l must be >= 1"):
        walk_sum_bound_check(k33, y, 0)
    assert k33._summary is None
    with pytest.raises(ValueError, match="2.1"):
        walk_sum_bound_check(k33, y, 1)


@pytest.mark.parametrize("l", [1.5, 2.0])
def test_walk_sum_refuses_a_float_l_before_any_solve(l):
    k33 = complete_bipartite(3, 3)
    y = np.zeros(6)
    y[0], y[3] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    with pytest.raises(TypeError):
        walk_sum_bound_check(k33, y, l)
    assert k33._summary is None


def test_walk_sum_reads_a_bool_l_as_an_int():
    g = complete_graph(4)
    y = np.array([1.0, -1.0, 0.0, 0.0]) / math.sqrt(2)
    rep = walk_sum_bound_check(g, y, True)
    assert rep == walk_sum_bound_check(g, y, 1) and type(rep["l"]) is int


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

    It sweeps the library's own lambda_2 vector: K4, the Petersen graph and
    the disjoint unions have a repeated lambda_2, so no independent solve
    would give the same vector.  The sweep arithmetic is checked exactly.
    """
    order = np.argsort(eigen_summary(g).vector)
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


def test_sweep_orders_match_bfs_argsort():
    # after the eigenvector order, seed v's order is the stable argsort of its
    # BFS distances with the unreachable vertices dropped, for v < min(n, 32)
    cases = [
        petersen_graph(),
        disjoint_union(petersen_graph(), circular_ladder(6)),
        sample_simple_regular(200, 4, make_rng(200))[0],
    ]
    for g in cases:
        eigen_order, *orders = spectral._sweep_orders(g)
        assert np.array_equal(eigen_order, np.argsort(eigen_summary(g).vector))
        assert len(orders) == min(g.n, 32)
        for v, order in enumerate(orders):
            dd = bfs_distances(g, [v])
            want = np.argsort(dd, kind="stable")[: np.count_nonzero(np.isfinite(dd))]
            assert np.array_equal(order, want), (g.n, v)


# -- the dense lambda_2 vector -----------------------------------------------------


def assert_lambda2_vector_contract(g, summary):
    """Unit, mean-zero, certified residual, first largest entry positive."""
    v = summary.vector
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert abs(v.sum()) <= 1e-12 * g.n
    residual = np.linalg.norm(v[g.adj].sum(axis=1) - summary.lambda2 * v)  # no n x n A
    assert residual <= spectral.ARPACK_TOL, (g.n, g.d)
    i = int(np.argmax(np.abs(v)))
    assert v[i] > 0 and np.all(np.abs(v[:i]) < v[i])


def test_dense_lambda2_vector_is_certified(monkeypatch):
    """The contract in both modes; the dense vectors also against the
    iterative mode's solve of the same graph."""
    modes = set()
    for g in _oracle_graphs():
        summary = eigen_summary(g)
        v = summary.vector
        assert summary.mode == ("dense" if g.n <= spectral.DENSE_LIMIT else "iterative")
        modes.add(summary.mode)
        assert_lambda2_vector_contract(g, summary)
        if summary.mode == "iterative":
            continue
        with monkeypatch.context() as m:
            m.setattr(spectral, "DENSE_LIMIT", 0)
            it = eigen_summary(RegularGraph(g.n, g.d, g.adj))  # a fresh graph solves again
        ref = it.vector
        assert it.lambda2 == pytest.approx(summary.lambda2, abs=1e-7), (g.n, g.d)
        # one mean-zero vector in lambda_2's eigenspace when no eigenvalue
        # below lambda_2 is within 1e-6 of it: then the iterative vector is the
        # same, up to sign; a repeated lambda_2 leaves only the contract
        others = np.linalg.eigvalsh(adjacency_matrix(g))[:-2]
        if others.size == 0 or others.max() < summary.lambda2 - 1e-6:
            assert min(np.abs(v - ref).max(), np.abs(v + ref).max()) <= 1e-8, (g.n, g.d)
    assert modes == {"dense", "iterative"}


def test_dense_lambda2_vector_keeps_the_stored_cheeger_witnesses():
    # the sign rule reproduces the vector that pinned these references; the
    # file is read, never written
    data = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data"
    refs = json.loads((data / "references.json").read_text())
    for name, value in (("small_n16_d3", Fraction(1, 2)), ("small_n14_d4", Fraction(8, 7))):
        g = load_edge_list((data / f"{name}.edges").read_text())
        pinned = refs[f"{name}/cheeger_upper"]
        res = cheeger_upper(g)
        assert res.value == value == Fraction(pinned["value"])
        assert res.witness == frozenset(pinned["witness"])


def test_dense_failed_solve_is_not_cached(monkeypatch):
    g = petersen_graph()

    eigh = np.linalg.eigh

    def off_by_1e_6(a):
        vals, vecs = eigh(a)
        return vals + 1e-6, vecs

    monkeypatch.setattr(np.linalg, "eigh", off_by_1e_6)
    with pytest.raises(RuntimeError, match="exceeds tol"):
        eigen_summary(g)
    assert g._summary is None
    monkeypatch.undo()
    assert eigen_summary(g).mode == "dense"


# -- one eigensolve per graph -----------------------------------------------------


@pytest.mark.parametrize("n", [spectral.DENSE_LIMIT, spectral.DENSE_LIMIT + 1])
def test_certificates_share_one_eigensolve(monkeypatch, n):
    """One solve per graph, dense up to DENSE_LIMIT and one ARPACK run at both
    ends of the spectrum above it."""
    calls = []
    eigsh_kwargs = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            if name == "eigsh":
                eigsh_kwargs.append(kwargs)
            return fn(*args, **kwargs)

        return wrapper

    for mod, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (spla, "eigsh")):
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    g, _ = sample_simple_regular(n, 4, make_rng(11))
    summary = eigen_summary(g)
    solves = list(calls)
    dense = n <= spectral.DENSE_LIMIT
    assert solves == (["eigh"] if dense else ["eigsh"])
    assert all((kw["k"], kw["which"]) == (3, "BE") for kw in eigsh_kwargs)
    assert summary.mode == ("dense" if dense else "iterative")

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
    assert float(ub.value) >= (g.d - summary.lambda2) / 2 - 1e-9  # h_ub >= h


def test_spectrum_cache_hands_out_copies():
    g = petersen_graph()
    vector = eigen_summary(g).vector
    assert not vector.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        vector[0] = 0.0
    first = gamma_scalar_l2_exact(g).extremizer
    assert first.flags.writeable and not np.shares_memory(first, vector)
    first[:] = 0.0
    again = gamma_scalar_l2_exact(g).extremizer
    assert np.linalg.norm(again) == pytest.approx(1.0)


def test_spectrum_cache_not_part_of_equality():
    g = petersen_graph()
    summary = eigen_summary(g)
    fresh = petersen_graph()
    assert g == fresh and hash(g) == hash(fresh)
    assert "_summary" not in repr(g)
    assert "vector" not in repr(summary)
    assert summary == dataclasses.replace(summary, vector=-summary.vector)


def test_spectrum_belongs_to_one_graph_object():
    # a solved graph's spectrum goes neither through replace nor through the
    # constructor: the new graph solves its own
    g, h = petersen_graph(), circular_ladder(5)
    eigen_summary(g)
    gamma_scalar_l2_exact(g)
    h2 = dataclasses.replace(g, adj=h.adj)
    assert h2 == h and h2._summary is None
    assert eigen_summary(h2) == eigen_summary(h)
    assert gamma_scalar_l2_exact(h2).gamma == gamma_scalar_l2_exact(h).gamma
    assert gamma_scalar_l2_exact(h2).gamma != gamma_scalar_l2_exact(g).gamma
    with pytest.raises(TypeError):
        RegularGraph(g.n, g.d, g.adj, g._summary)
    with pytest.raises(TypeError):
        RegularGraph(g.n, g.d, g.adj, _summary=g._summary)


def test_failed_solve_is_not_cached(monkeypatch):
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 100)
    g, _ = sample_simple_regular(200, 3, make_rng(13))
    eigsh = spla.eigsh

    def off_by_1e_6(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        return vals + 1e-6, vecs

    monkeypatch.setattr(spla, "eigsh", off_by_1e_6)
    with pytest.raises(RuntimeError, match="exceeds tol"):
        eigen_summary(g)
    assert g._summary is None
    monkeypatch.setattr(spla, "eigsh", eigsh)
    assert eigen_summary(g).mode == "iterative"


# -- the iterative lambda_2 vector --------------------------------------------------


def _union(components):
    g = components[0]
    for c in components[1:]:
        g = disjoint_union(g, c)
    return g


@pytest.mark.parametrize(
    "components",
    [
        [sample_simple_regular(300, 3, make_rng(60 + i))[0] for i in range(2)],
        [sample_simple_regular(60, 3, make_rng(70 + i))[0] for i in range(5)],
        [complete_graph(4)] * 100,
    ],
    ids=["2", "5", "100"],
)
def test_iterative_vector_on_disconnected_graph_is_mean_zero(components):
    # ARPACK's two top Ritz vectors span part of the lambda = d eigenspace in
    # an arbitrary basis; the vector handed out is the one orthogonal to ones
    g = _union(components)
    assert g.n > spectral.DENSE_LIMIT
    summary = eigen_summary(g)
    assert summary.mode == "iterative"
    assert summary.lambda1 == pytest.approx(g.d, abs=1e-8)
    assert summary.lambda2 == pytest.approx(g.d, abs=1e-8)
    assert_lambda2_vector_contract(g, summary)


@pytest.mark.parametrize("n, d", [(2000, 64), (1000, 100)])
def test_iterative_solve_certifies_large_degree(n, d):
    # a random circulant on Z_n: offsets +-s for d/2 seeded s < n/2.  Its
    # eigenvalues are sum_s cos(2 pi j s / n); at these degrees a tolerance
    # fixed at ARPACK_TOL / 10 stopped with residuals of 1.8e-8 and 1.4e-8
    half = np.random.default_rng(0).choice(np.arange(1, n // 2), d // 2, replace=False)
    offsets = np.concatenate([half, -half])
    g = RegularGraph(n, d, np.sort((np.arange(n)[:, None] + offsets) % n, axis=1))
    closed = np.cos(2 * np.pi * np.outer(np.arange(1, n), offsets) / n).sum(axis=1)
    summary = eigen_summary(g)
    assert summary.mode == "iterative"
    assert summary.lambda2 == pytest.approx(closed.max(), abs=1e-9)
    assert summary.lambda_min == pytest.approx(closed.min(), abs=1e-9)
    assert summary.residual <= spectral.ARPACK_TOL
    assert_lambda2_vector_contract(g, summary)


def test_iterative_solve_is_repeatable():
    # ARPACK starts from the fixed-seed vector, not from a random state that
    # the whole process shares, so two solves of one graph agree bitwise
    data = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data"
    text = (data / "sparse_n5000_d3.edges").read_text()
    first, second = load_edge_list(text), load_edge_list(text)
    s1, s2 = eigen_summary(first), eigen_summary(second)
    assert s1.mode == "iterative"
    assert s1 == s2
    assert np.array_equal(s1.vector, s2.vector)
    assert_lambda2_vector_contract(first, s1)
