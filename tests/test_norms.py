import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specgap.norms import (
    BlockNorm,
    Lq,
    OverlapFamily,
    WeightedLq,
    almost_disjoint_lower_bound_check,
    cotype_constant_exact,
    cotype_constant_mc,
    lift_l1,
    norm_from_json,
    norm_to_json,
    q_concavity_constant,
    restricted_cotype_check,
    restricted_cotype_constant,
    sign_patterns,
)
from specgap.rand import make_rng

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def test_eval_basics():
    assert Lq(2)((3.0, 4.0)) == pytest.approx(5.0)
    assert Lq(math.inf)((1.0, -2.0)) == pytest.approx(2.0)
    assert Lq(1)((1.0, -2.0, 0.5)) == pytest.approx(3.5)
    nm = BlockNorm(Lq(1), ((Lq(2), 2), (Lq(2), 2)))
    assert nm((3.0, 4.0, 0.0, 1.0)) == pytest.approx(6.0)
    assert WeightedLq(1, (2.0, 3.0))((1.0, -1.0)) == pytest.approx(5.0)


def test_eval_validation():
    with pytest.raises(ValueError, match="dimension"):
        Lq(2, dim=3)((1.0, 2.0))
    with pytest.raises(ValueError, match="positive"):
        WeightedLq(2, (1.0, 0.0))
    with pytest.raises(ValueError, match="q must be"):
        Lq(0.5)


def test_lq_large_entries_do_not_overflow():
    # 1e10 ** 32 overflows a double; the norm itself is 1e10
    assert Lq(32)([1e10, 1.0]) == pytest.approx(1e10, rel=1e-12)
    assert WeightedLq(32, (1.0, 2.0))([1e10, 1.0]) == pytest.approx(1e10, rel=1e-12)
    assert WeightedLq(32, (2.0, 1.0))([1e10, 1.0]) == pytest.approx(2e10, rel=1e-12)


def test_lq_small_entries_do_not_underflow():
    # 1e-6 ** 64 underflows to 0; the norm itself is 1e-6
    assert Lq(64)([1e-6, 0.0]) == pytest.approx(1e-6, rel=1e-12)
    assert Lq(64)([1e-6, 1e-6]) == pytest.approx(1e-6 * 2 ** (1 / 64), rel=1e-12)
    assert WeightedLq(64, (3.0, 1.0))([1e-6, 0.0]) == pytest.approx(3e-6, rel=1e-12)


def test_lq_rescale_leaves_other_rows_alone():
    rows = np.array([[1e10, 1.0], [3.0, 4.0], [0.0, 0.0], [1e-6, 0.0], [-2.0, 1.0]])
    direct = (np.abs(rows[[1, 4]]) ** 3).sum(axis=1) ** (1 / 3)
    for q in (32, 64):
        out = Lq(q).eval_many(rows)
        assert out[0] == pytest.approx(1e10, rel=1e-12)
        assert out[2] == 0.0
        assert out[3] == pytest.approx(1e-6, rel=1e-12)
    assert np.array_equal(Lq(3).eval_many(rows)[[1, 4]], direct)
    stacked = Lq(32).eval_many(np.stack([rows, rows]))
    assert stacked.shape == (2, 5)
    assert stacked[1, 0] == pytest.approx(1e10, rel=1e-12)


def test_eval_pow_on_extreme_rows():
    big, small = np.array([[1e10, 1.0]]), np.array([[1e-6, 0.0]])
    for nm in (Lq(32), WeightedLq(32, (1.0, 1.0)), lift_l1(Lq(32), 2, 1)):
        assert nm.eval_pow(big, 1)[0] == pytest.approx(1e10, rel=1e-12)
        assert nm.eval_pow(big, 2)[0] == pytest.approx(1e20, rel=1e-12)
        assert nm.eval_pow(big / 10, 32)[0] == pytest.approx(1e288, rel=1e-12)
        # ||y||^32 = 1e320 is above the largest double: inf is its rounding
        assert nm.eval_pow(big, 32)[0] == math.inf
    for nm in (Lq(64), WeightedLq(64, (1.0, 1.0)), lift_l1(Lq(64), 2, 1)):
        assert nm.eval_pow(small, 1)[0] == pytest.approx(1e-6, rel=1e-12)
        assert nm.eval_pow(small, 2)[0] == pytest.approx(1e-12, rel=1e-12)
        assert nm.eval_pow(small * 1e2, 64)[0] == pytest.approx(1e-256, rel=1e-12)
        # ||y||^64 = 1e-384 is below the smallest double: 0 is its rounding
        assert nm.eval_pow(small, 64)[0] == 0.0


@pytest.mark.parametrize(
    "nm",
    [Lq(1), Lq(2), Lq(3.5), Lq(math.inf), WeightedLq(3, (0.5, 2.0, 1.0, 4.0)),
     lift_l1(Lq(4), 2, 2), BlockNorm(Lq(math.inf), ((Lq(2), 2), (Lq(1), 2)))],
)
@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 4.0])
def test_eval_pow_matches_eval_many_power(nm, p):
    ys = make_rng(4).normal(size=(50, 4)) * 3.0
    assert nm.eval_pow(ys, p) == pytest.approx(nm.eval_many(ys) ** p, rel=1e-12)


def test_json_roundtrip():
    norms = [
        Lq(2),
        Lq(math.inf, dim=4),
        WeightedLq(1, (0.5, 2.0)),
        lift_l1(Lq(2, dim=3), 3, 4),
    ]
    for nm in norms:
        blob = json.dumps(norm_to_json(nm))
        nm2 = norm_from_json(blob)
        y = np.arange(1, (nm.dim or 2) + 1, dtype=float)
        assert nm2(y) == pytest.approx(nm(y))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**6 - 1), st.data())
def test_sign_flip_invariance(mask, data):
    nm = data.draw(
        st.sampled_from(
            [Lq(1), Lq(2), Lq(4), Lq(math.inf), WeightedLq(2, (1.0, 2.0, 0.5, 1.5, 3.0, 1.0))]
        )
    )
    y = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=6,
                max_size=6,
            )
        )
    )
    signs = np.array([(-1.0 if (mask >> i) & 1 else 1.0) for i in range(6)])
    assert nm(signs * y) == pytest.approx(nm(y), rel=1e-12, abs=1e-12)


@settings(max_examples=60)
@given(st.data())
def test_positive_cone_monotonicity(data):
    nm = data.draw(
        st.sampled_from([Lq(1), Lq(3), Lq(math.inf), BlockNorm(Lq(2), ((Lq(1), 2), (Lq(4), 2)))])
    )
    y = np.array(
        data.draw(
            st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), min_size=4, max_size=4)
        )
    )
    bump = np.array(
        data.draw(
            st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), min_size=4, max_size=4)
        )
    )
    assert nm(y + bump) >= nm(y) - 1e-9


def test_cotype_euclidean_orthonormal():
    # parallelogram identity: C = 1 for {e1, e2} under l2
    assert cotype_constant_exact(Lq(2), [E1, E2], 2) == pytest.approx(1.0)


def test_cotype_sup_norm():
    # all four sign patterns give norm 1; sum of norms^2 = 2
    assert cotype_constant_exact(Lq(math.inf), [E1, E2], 2) == pytest.approx(
        math.sqrt(2)
    )


def test_cotype_l1_raw_below_one():
    raw = cotype_constant_exact(Lq(1), [E1, E2], 2)
    assert raw == pytest.approx(1 / math.sqrt(2))


def test_cotype_scale_invariance():
    rng = make_rng(5)
    fam = rng.normal(size=(4, 3))
    c1 = cotype_constant_exact(Lq(2), fam, 2)
    c2 = cotype_constant_exact(Lq(2), 7.5 * fam, 2)
    assert c1 == pytest.approx(c2, rel=1e-12)


def test_cotype_budget_and_mc():
    big = np.eye(25)
    with pytest.raises(ValueError, match="cotype_constant_mc"):
        cotype_constant_exact(Lq(2), big, 2)
    est = cotype_constant_mc(Lq(2), np.eye(4), 2, trials=4000, rng=make_rng(1))
    assert not est["exact"]
    assert est["estimate"] == pytest.approx(1.0, abs=0.15)


def test_restricted_cotype_singletons_hold():
    fam = np.array([[2.0, 0.0], [0.0, 3.0]])
    res = restricted_cotype_check(Lq(2), fam, 2, C=1.0)
    assert res["ok"] and res["exact"]


def test_restricted_cotype_refuses_above_limit():
    # 2^17 subfamilies is past the exact limit; there is no sampled fallback
    with pytest.raises(ValueError, match="m <= 16"):
        restricted_cotype_check(Lq(2), np.eye(17), 2, C=1.0)


def test_restricted_cotype_orthonormal_family():
    res = restricted_cotype_check(Lq(2), np.eye(4), 2, C=1.0)
    assert res["ok"]


def test_restricted_cotype_duplicate_vector_oracle_verdict():
    # {e1, e1} under sup norm: the sign enumeration gives E|r1 + r2|^2 = 2
    # against rhs = 2 at C = 1, so the inequality holds with equality
    fam = np.array([[1.0, 0.0], [1.0, 0.0]])
    res = restricted_cotype_check(Lq(math.inf), fam, 2, C=1.0)
    assert res["ok"]
    assert restricted_cotype_constant(Lq(math.inf), fam, 2) == pytest.approx(1.0)


def test_restricted_cotype_orthogonal_sup_family_fails_at_c1():
    # orthogonal directions under the sup norm have cotype constant sqrt(m)
    fam3 = np.eye(3)
    cstar3 = restricted_cotype_constant(Lq(math.inf), fam3, 2)
    assert cstar3 == pytest.approx(math.sqrt(3))
    res3 = restricted_cotype_check(Lq(math.inf), fam3, 2, C=1.0)
    assert not res3["ok"]
    assert res3["witness"] is not None
    # the witness subset really violates the inequality
    idx = list(res3["witness"])
    sums = sign_patterns(len(idx)) @ fam3[idx]
    expectation = float(np.mean(Lq(math.inf).eval_many(sums) ** 2))
    assert expectation < len(idx)


def test_restricted_constant_dominates_full_family_constant():
    rng = make_rng(9)
    fam = np.abs(rng.normal(size=(5, 3)))
    full = cotype_constant_exact(Lq(math.inf), fam, 2)
    restricted = restricted_cotype_constant(Lq(math.inf), fam, 2)
    assert restricted >= full - 1e-12


def test_overlap_family_validation():
    with pytest.raises(ValueError, match="above delta"):
        OverlapFamily((1.0, 1.0), (frozenset({0}), frozenset({0})), delta=0.25)
    fam = OverlapFamily((1.0, 1.0), (frozenset({0}), frozenset({1})), delta=0.5)
    assert fam.projections().shape == (2, 2)


def test_almost_disjoint_bound_simple():
    # x = (1,1,1,1), J_i = {i}, delta = 1/4, l1 norm, q = 2, C = 1:
    # 16 >= 4 * 2^-9
    fam = OverlapFamily(
        (1.0, 1.0, 1.0, 1.0),
        tuple(frozenset({i}) for i in range(4)),
        delta=0.25,
    )
    rep = almost_disjoint_lower_bound_check(Lq(1), fam, 2, C=1.0)
    assert rep["ok"]
    assert rep["value_q"] == pytest.approx(16.0)
    assert rep["bound"] == pytest.approx(4.0 / 512.0)
    assert all(rep["preconditions"].values())


def test_almost_disjoint_bound_degenerate_delta():
    fam = OverlapFamily(
        (1.0, 1.0),
        (frozenset({0, 1}), frozenset({0, 1})),
        delta=1.0,
    )
    rep = almost_disjoint_lower_bound_check(Lq(2), fam, 2, C=1.0)
    assert rep["ok"]


def test_almost_disjoint_randomized_suite():
    rng = make_rng(31)
    for _ in range(25):
        k, m = 12, 8
        # distinct singleton supports keep every coordinate in <= 1 = delta*m sets
        picks = rng.choice(k, size=m, replace=False)
        sets = tuple(frozenset({int(j)}) for j in picks)
        x = 1.0 + np.abs(rng.normal(size=k))
        fam = OverlapFamily(tuple(x), sets, delta=1.0 / 8.0)
        rep = almost_disjoint_lower_bound_check(Lq(2), fam, 2, C=1.0)
        assert rep["ok"]


def test_q_concavity():
    assert q_concavity_constant(Lq(2), np.eye(3), 2) == pytest.approx(1.0)
    assert q_concavity_constant(Lq(math.inf), [E1, E2], 2) == pytest.approx(
        math.sqrt(2)
    )
    assert q_concavity_constant(Lq(4), [[1.0, 2.0, 0.5]], 4) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="finite"):
        q_concavity_constant(Lq(2), np.eye(2), math.inf)


def test_q_concavity_lqq_always_one():
    rng = make_rng(12)
    for q in (1.0, 2.0, 3.0):
        fam = rng.normal(size=(5, 4))
        assert q_concavity_constant(Lq(q), fam, q) == pytest.approx(1.0)


def test_sign_patterns_shape():
    sp = sign_patterns(3)
    assert sp.shape == (8, 3)
    assert set(np.unique(sp)) == {-1.0, 1.0}
