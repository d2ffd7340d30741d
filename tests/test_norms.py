import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import specgap.norms as norms
from specgap.norms import (
    BlockNorm,
    Lq,
    cotype_constant_exact,
    lift_l1,
    q_concavity_constant,
    restricted_cotype_check,
    sign_patterns,
)
from specgap.graphs import complete_graph
from specgap.rand import make_rng
from specgap.spectral import walk_sum_bound_check

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def test_eval_basics():
    assert Lq(2)((3.0, 4.0)) == pytest.approx(5.0)
    assert Lq(math.inf)((1.0, -2.0)) == pytest.approx(2.0)
    assert Lq(1)((1.0, -2.0, 0.5)) == pytest.approx(3.5)
    nm = BlockNorm(Lq(1), ((Lq(2), 2), (Lq(2), 2)))
    assert nm((3.0, 4.0, 0.0, 1.0)) == pytest.approx(6.0)


def test_eval_validation():
    with pytest.raises(ValueError, match="dimension"):
        Lq(2, dim=3)((1.0, 2.0))
    with pytest.raises(ValueError, match="q must be"):
        Lq(0.5)


def test_lq_batch_methods_check_dim():
    nm = Lq(2, dim=3)
    msg = "Lq of dimension 3 got vectors of width 5"
    with pytest.raises(ValueError, match=msg):
        nm.eval_many(np.ones((1, 5)))
    for p in (2, 3):  # the power-sum path and the root-then-power path
        with pytest.raises(ValueError, match=msg):
            nm.eval_pow(np.ones((4, 2, 5)), p)
    assert nm.eval_many(np.ones((2, 3))) == pytest.approx([math.sqrt(3)] * 2)
    assert nm.eval_pow(np.ones((2, 3)), 2) == pytest.approx([3.0, 3.0])
    assert Lq(2).eval_many(np.ones((1, 5))) == pytest.approx([math.sqrt(5)])
    # BlockNorm hands each inner Lq its own block's width
    block = BlockNorm(Lq(1), ((Lq(2, dim=2), 2), (Lq(1, dim=1), 1)))
    assert block.eval_pow(np.array([[3.0, 4.0, -2.0]]), 1) == pytest.approx([7.0])


def test_dimensions_must_be_positive_integers():
    # each is refused by name, not by a wrong dim or a numpy reduction error
    with pytest.raises(ValueError, match="block dimension must be a positive integer, got -1"):
        BlockNorm(Lq(1), ((Lq(1), 3), (Lq(1), -1)))
    with pytest.raises(ValueError, match="block dimension must be a positive integer, got 0"):
        BlockNorm(Lq(1), ((Lq(2), 0), (Lq(1), 2)))
    with pytest.raises(ValueError, match="at least one block"):
        BlockNorm(Lq(1), ())
    for dim in (0, -3):
        with pytest.raises(ValueError, match=f"Lq dim must be a positive integer, got {dim}"):
            Lq(2, dim=dim)
    with pytest.raises(TypeError):
        Lq(2, dim=2.5)
    nm = BlockNorm(Lq(1), ((Lq(2, dim=np.int64(2)), np.int64(2)), (Lq(1), 1)))
    assert nm.dim == 3 and type(nm.inner[0][1]) is int and type(nm.inner[0][0].dim) is int
    assert nm((3.0, 4.0, -2.0)) == pytest.approx(7.0)


def test_lq_large_entries_do_not_overflow():
    # 1e10 ** 32 overflows a double; the norm itself is 1e10
    assert Lq(32)([1e10, 1.0]) == pytest.approx(1e10, rel=1e-12)
    assert Lq(32)([1.0, -2e10]) == pytest.approx(2e10, rel=1e-12)


def test_lq_small_entries_do_not_underflow():
    # 1e-6 ** 64 underflows to 0; the norm itself is 1e-6
    assert Lq(64)([1e-6, 0.0]) == pytest.approx(1e-6, rel=1e-12)
    assert Lq(64)([1e-6, 1e-6]) == pytest.approx(1e-6 * 2 ** (1 / 64), rel=1e-12)
    assert Lq(64)([0.0, -3e-6]) == pytest.approx(3e-6, rel=1e-12)


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
    for nm in (Lq(32), lift_l1(Lq(32), 2, 1)):
        assert nm.eval_pow(big, 1)[0] == pytest.approx(1e10, rel=1e-12)
        assert nm.eval_pow(big, 2)[0] == pytest.approx(1e20, rel=1e-12)
        assert nm.eval_pow(big / 10, 32)[0] == pytest.approx(1e288, rel=1e-12)
        # ||y||^32 = 1e320 is above the largest double: inf is its rounding
        assert nm.eval_pow(big, 32)[0] == math.inf
    for nm in (Lq(64), lift_l1(Lq(64), 2, 1)):
        assert nm.eval_pow(small, 1)[0] == pytest.approx(1e-6, rel=1e-12)
        assert nm.eval_pow(small, 2)[0] == pytest.approx(1e-12, rel=1e-12)
        assert nm.eval_pow(small * 1e2, 64)[0] == pytest.approx(1e-256, rel=1e-12)
        # ||y||^64 = 1e-384 is below the smallest double: 0 is its rounding
        assert nm.eval_pow(small, 64)[0] == 0.0


def test_powers_match_pow_at_integer_q():
    a = make_rng(8).uniform(0, 10, size=10_000)
    a[0] = 0.0
    for q in range(1, 65):
        want = a**q
        assert np.all(np.abs(norms._powers(a, q) - want) <= 1e-13 * want), q
        assert np.all(np.abs(norms._powers(a, float(q)) - want) <= 1e-13 * want), q


@pytest.mark.parametrize("q", [1.5, 2.5])
def test_powers_at_fractional_q_are_pow(q):
    a = make_rng(9).uniform(0, 10, size=10_000)
    assert norms._powers(a, q).tobytes() == (a**q).tobytes()


@pytest.mark.parametrize("q", [2, 3, 5, 7, 16, 31, 32, 33, 64, 2.5])
def test_power_sums_overflow_and_underflow_where_pow_does(q):
    # every decade of the double range, subnormals and the largest double included
    a = np.concatenate([[0.0, 5e-324], np.logspace(-323, 308, 20_000), [1.7e308]])
    with np.errstate(over="ignore", under="ignore"):
        want = a**q
    got = Lq(q).eval_pow(a[:, None], q)  # a RuntimeWarning here fails the test
    assert np.array_equal(got == math.inf, want == math.inf)
    assert np.array_equal(got == 0.0, want == 0.0)


def test_powers_return_a_new_array_in_the_input_layout():
    a = make_rng(10).uniform(0, 10, size=(3, 50, 2)).transpose(1, 2, 0)
    for q in (1, 2, 4, 5):
        out = norms._powers(a, q)
        assert not np.shares_memory(out, a)
        assert out.strides == np.empty_like(a).strides
        assert np.allclose(out, a**q, rtol=1e-13, atol=0)
    out = norms._powers(a, 1)
    out[...] = -1.0
    assert (a >= 0).all()


@pytest.mark.parametrize(
    "nm",
    [Lq(1), Lq(2), Lq(3.5), Lq(math.inf), BlockNorm(Lq(3), ((Lq(2), 1), (Lq(4), 3))),
     lift_l1(Lq(4), 2, 2), BlockNorm(Lq(math.inf), ((Lq(2), 2), (Lq(1), 2)))],
)
@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 4.0])
def test_eval_pow_matches_eval_many_power(nm, p):
    ys = make_rng(4).normal(size=(50, 4)) * 3.0
    assert nm.eval_pow(ys, p) == pytest.approx(nm.eval_many(ys) ** p, rel=1e-12)


@pytest.mark.parametrize(
    "nm", [Lq(32), Lq(64), lift_l1(Lq(32), 2, 1), lift_l1(Lq(64), 2, 1)]
)
@pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
def test_eval_pow_off_q_matches_eval_many_power_on_rescued_rows(nm, p):
    # [1e10, 1] overflows the power sum at q = 32 and 64, [1e-6, 0] and
    # [1e-6, 1e-6] underflow it at q = 64: those rows take the rescue
    rows = np.array([[1e10, 1.0], [3.0, -4.0], [0.0, 0.0], [1e-6, 0.0], [1e-6, 1e-6], [-2.0, 1.0]])
    ys = np.stack([rows, rows[::-1]])
    assert nm.eval_pow(ys, p) == pytest.approx(nm.eval_many(ys) ** p, rel=1e-12)


def _oracle_norm(nm, y) -> float:
    """||y|| for one row, in plain Python floats: each Lq value as m times
    the q-norm of y / m, m the largest |entry|, each BlockNorm from its
    blocks' values."""
    if isinstance(nm, BlockNorm):
        vals, start = [], 0
        for inner, bd in nm.inner:
            vals.append(_oracle_norm(inner, y[start : start + bd]))
            start += bd
        return _oracle_norm(nm.outer, vals)
    mags = [abs(float(t)) for t in y]
    m = max(mags)
    if m == 0 or math.isinf(nm.q):
        return m
    return m * math.fsum((t / m) ** nm.q for t in mags) ** (1 / nm.q)


def _oracle_pow(nm, ys, p) -> np.ndarray:
    """||y||^p for each row (last axis) of ys, one row at a time."""
    ys = np.asarray(ys, dtype=float)
    flat = ys.reshape(-1, ys.shape[-1])
    with np.errstate(over="ignore", under="ignore"):
        vals = np.array([_oracle_norm(nm, row) for row in flat]) ** p
    return vals.reshape(ys.shape[:-1])


NESTED = BlockNorm(Lq(math.inf), ((BlockNorm(Lq(2), ((Lq(1), 1), (Lq(4), 1))), 2), (Lq(1.5), 1)))
KERNEL_NORMS = [  # (norm, k): every k in {1, 2, 3, 5} and a block norm in a block norm
    (Lq(1), 1), (Lq(2), 2), (Lq(3), 3), (Lq(3.5), 5), (Lq(32), 2), (Lq(math.inf), 3),
    (Lq(4, dim=5), 5), (lift_l1(Lq(4), 1, 2), 2),
    (BlockNorm(Lq(3), ((Lq(2), 1), (Lq(math.inf), 2), (Lq(1), 2))), 5), (NESTED, 3),
]


@pytest.mark.parametrize("lead", [(), (7,), (3, 4)], ids=["scalar", "rows", "grid"])
@pytest.mark.parametrize("nm, k", KERNEL_NORMS)
def test_kernel_and_adapters_match_per_row_oracle(nm, k, lead):
    # rows at 1, 1e200 and 1e-200, at p = q (finite q) and at p != q; every
    # p-th power lies in the normal range or leaves the double range entirely
    ys = make_rng(k + len(lead)).normal(size=lead + (k,))
    ys *= np.resize([1.0, 1e200, 1e-200], lead + (1,))
    ps = [1.0, 1.5, 2.0, 3.0] + ([nm.q] if isinstance(nm, Lq) and not math.isinf(nm.q) else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in ps:
            want = _oracle_pow(nm, ys, p)
            got = {"eval_pow": nm.eval_pow(ys, p)}
            if p == 1:
                got["eval_many"] = nm.eval_many(ys)
            if lead:  # the kernel needs one axis after the coordinates
                a = np.array(np.moveaxis(ys, -1, 0), order="C")
                got["kernel"] = nm._pow_kernel(a, p)
            elif p == 1:
                got["call"] = np.array(nm(ys))
            for name, out in got.items():
                assert np.shape(out) == lead, (name, p)
                np.testing.assert_allclose(out, want, rtol=1e-12, atol=0, err_msg=f"{name} p={p}")


def test_block_norm_names_both_widths():
    # the whole width is checked before any block is cut from it
    nm = lift_l1(Lq(4), 2, 2)
    msg = "BlockNorm of dimension 4 got vectors of width 3"
    for call in (lambda y: nm.eval_pow(y, 4), nm.eval_many, lambda y: nm.eval_pow(y, 1.5)):
        with pytest.raises(ValueError, match=msg):
            call(np.ones((5, 3)))
    with pytest.raises(ValueError, match="BlockNorm of dimension 3 got vectors of width 4"):
        NESTED.eval_pow(np.ones((2, 4)), 2)
    with pytest.raises(ValueError, match="BlockNorm of dimension 2 got vectors of width 3"):
        NESTED.inner[0][0]._pow_kernel(np.ones((3, 2)), 1.0)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**6 - 1), st.data())
def test_sign_flip_invariance(mask, data):
    nm = data.draw(
        st.sampled_from(
            [Lq(1), Lq(2), Lq(4), Lq(math.inf), lift_l1(Lq(3), 3, 2)]
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


@pytest.mark.parametrize(
    "nm",
    [Lq(3), lift_l1(Lq(4), 2, 2), BlockNorm(Lq(1), ((Lq(2), 2), (Lq(math.inf), 2)))],
    ids=["Lq", "lift_l1", "BlockNorm"],
)
@pytest.mark.parametrize("m", [1, 4, 7])
def test_cotype_exact_half_signs_match_full_enumeration(nm, m):
    # reference: all 2^m sign rows, (sum_i ||x_i||^q / mean_j ||sum_j||^q)^(1/q)
    x = make_rng(m).normal(size=(m, 4))
    q = 4.0
    sums = sign_patterns(m) @ x
    full = (np.sum(nm.eval_many(x) ** q) / np.mean(nm.eval_many(sums) ** q)) ** (1 / q)
    assert cotype_constant_exact(nm, x, q) == pytest.approx(full, rel=1e-12)


def test_cotype_budget_and_mc():
    # past the exact limit the constant refuses, and offers no Monte Carlo
    # mean in its place: such a mean bounds the constant on neither side
    with pytest.raises(ValueError, match=r"m <= 20 \(got m=25\); there is no sampled estimate"):
        cotype_constant_exact(Lq(2), np.eye(25), 2)


def restricted_cotype_constant(nm, vectors, q):
    """Best C valid across all subfamilies, read off the subset table of
    ``norms._subfamily_moments`` (R / E is scale-free).  Subfamilies of zero
    vectors constrain nothing and are skipped; a family of zero vectors only
    is refused."""
    E, R, _ = norms._subfamily_moments(nm, norms._as_matrix(vectors), q)
    live = R > 0
    if not live.any():
        raise ValueError("family of zero vectors has no cotype constant")
    return float(np.max(R[live] / E[live])) ** (1.0 / q)


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


def loop_restricted_cotype_check(nm, x, q, C):
    """The per-subset loop, kept as the oracle: one sign enumeration per
    subfamily, stopping at the first failure in bitmask order."""
    m = x.shape[0]
    norms_q = nm.eval_many(x) ** q
    inv_cq = C ** (-q)
    worst = math.inf
    for mask in range(1, 1 << m):
        idx = [i for i in range(m) if (mask >> i) & 1]
        sums = sign_patterns(len(idx)) @ x[idx]
        expectation = float(np.mean(nm.eval_many(sums) ** q))
        rhs = inv_cq * float(np.sum(norms_q[idx]))
        slack = expectation - rhs
        worst = min(worst, slack)
        if not expectation >= rhs * (1 - 1e-12):
            return {"ok": False, "exact": True, "witness": tuple(idx), "slack": slack}
    return {"ok": True, "exact": True, "witness": None, "slack": worst}


def loop_restricted_cotype_constant(nm, x, q):
    m = x.shape[0]
    return max(
        cotype_constant_exact(nm, x[[i for i in range(m) if (mask >> i) & 1]], q)
        for mask in range(1, 1 << m)
    )


def _oracle_families():
    """(norm, family) over m = 1..9 and k = 1..5, with duplicate rows and
    row scales from 1e-3 to 1e3."""
    rng = make_rng(77)
    for case in range(45):
        m, k = 1 + case % 9, 1 + case % 5
        x = rng.normal(size=(m, k)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
        if m > 2 and case % 3 == 0:
            x[m - 1] = x[0]  # a duplicate vector
        cut = k // 2 or 1
        inner = ((Lq(2), cut), (Lq(1), k - cut)) if k > 1 else ((Lq(2), 1),)
        yield [
            Lq(1), Lq(2), Lq(3.5), Lq(math.inf),
            Lq(3, dim=k),
            BlockNorm(Lq(math.inf) if k > 1 else Lq(3), inner),
        ][case % 6], x


def test_restricted_cotype_matches_per_subset_loop(monkeypatch):
    for nm, x in _oracle_families():
        for q in (2.0, 3.0):
            max_r = float(np.sum(nm.eval_many(x) ** q))
            checks = {C: loop_restricted_cotype_check(nm, x, q, C) for C in (1.0, 1.1, 1.5, 3.0)}
            constant = loop_restricted_cotype_constant(nm, x, q)
            for block in (norms._CHUNK_ENTRIES, 256):  # 256: several blocks per size
                with monkeypatch.context() as mp:
                    mp.setattr(norms, "_CHUNK_ENTRIES", block)
                    for C, want in checks.items():
                        got = restricted_cotype_check(nm, x, q, C)
                        assert (got["ok"], got["witness"]) == (want["ok"], want["witness"])
                        assert got["exact"] and type(got["slack"]) is float
                        assert got["slack"] == pytest.approx(
                            want["slack"], rel=0, abs=1e-12 * max_r
                        ), (nm, x, q, C)
                    assert restricted_cotype_constant(nm, x, q) == pytest.approx(
                        constant, rel=1e-9
                    )


def test_restricted_constant_skips_zero_subfamilies():
    # the subfamily {(0, 0)} constrains nothing; {e1} and {e1, 0} give C = 1
    fam = [[1.0, 0.0], [0.0, 0.0]]
    assert restricted_cotype_constant(Lq(2), fam, 2) == pytest.approx(1.0)
    assert restricted_cotype_check(Lq(2), fam, 2, C=1.0)["ok"]
    with pytest.raises(ValueError, match="zero vectors"):
        restricted_cotype_constant(Lq(2), np.zeros((3, 2)), 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: restricted_cotype_check(Lq(2), x, 2, C=1.0),
        lambda x: restricted_cotype_constant(Lq(2), x, 2),
        lambda x: cotype_constant_exact(Lq(2), x, 2),
        lambda x: q_concavity_constant(Lq(2), x, 2),
    ],
    ids=["restricted_check", "restricted_constant", "cotype_exact", "concavity"],
)
def test_families_must_be_nonempty_and_finite(call):
    with pytest.raises(ValueError, match="empty"):
        call(np.zeros((0, 2)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            call([[1.0, 0.0], [bad, 1.0]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cotype_constant_exact(Lq(2), np.eye(3), math.nan), "q must be >= 2"),
        (lambda: restricted_cotype_check(Lq(2), np.eye(3), 2, C=math.nan), "C must be >= 1"),
        (lambda: restricted_cotype_check(Lq(2), np.eye(3), math.nan, C=1.0), "q must be >= 2"),
        (lambda: walk_sum_bound_check(complete_graph(4), np.full(4, math.nan), 3), "y entries must be finite"),
    ],
    ids=["cotype q", "restricted C", "restricted q", "walk sum y"],
)
def test_nan_parameters_are_refused(call, message):
    # a guard written as q < 2 or C < 1 lets NaN through, into a NaN result
    with pytest.raises(ValueError, match=message):
        call()


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


# -- extreme magnitudes ----------------------------------------------------------


def test_constants_at_extreme_magnitudes():
    big, small = [[1e200, 0.0], [0.0, 1.0]], [[1e-200, 0.0], [0.0, 1e-200]]
    assert q_concavity_constant(Lq(2), big, 64) == 1.0
    assert q_concavity_constant(Lq(2), small, 64) == 1.0
    # Lq(2) at q = 2: every E_r ||sum r_i x_i||^2 equals sum ||x_i||^2
    assert cotype_constant_exact(Lq(2), big, 2) == pytest.approx(1.0, rel=1e-15)
    assert restricted_cotype_constant(Lq(2), big, 2) == pytest.approx(1.0, rel=1e-15)
    assert restricted_cotype_check(Lq(2), big, 2, 1.0) == {
        "ok": True, "exact": True, "witness": None, "slack": 0.0
    }
    # the least slack is the subfamily {(0, 1)}'s 1 - 2^-2, 1e400 below the others
    assert restricted_cotype_check(Lq(2), big, 2, 2.0)["slack"] == 0.75
    assert cotype_constant_exact(Lq(2), small, 64) == pytest.approx(2 ** (1 / 64 - 1 / 2))


def test_restricted_check_reads_each_subfamily_at_its_own_scale():
    # sup norm, q = 2, C = 1: {e2, e3} fails (E = 1 < R = 2) although its
    # moments are 1e-400 of those of the subfamilies holding 1e200 e1
    fam = [[1e200, 0, 0], [0, 1, 0], [0, 0, 1]]
    got = restricted_cotype_check(Lq(math.inf), fam, 2, 1.0)
    assert (got["ok"], got["witness"], got["slack"]) == (False, (1, 2), -1.0)


def test_restricted_check_slack_outside_double_range_raises():
    # the least slack is (1 - 2^-2) * 1e400
    with pytest.raises(OverflowError, match="outside the double range"):
        restricted_cotype_check(Lq(2), [[1e200, 0.0], [0.0, 1e200]], 2, 2.0)
    # here it is 1e-400 (1 - 2^-2)
    with pytest.raises(OverflowError, match="outside the double range"):
        restricted_cotype_check(Lq(2), [[1e-200, 0.0], [0.0, 1e-200]], 2, 2.0)


def test_restricted_cotype_refuses_infinite_q():
    # q = inf used to reach 0 * inf in the table (a RuntimeWarning), then an
    # OverflowError that blamed the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="q must be >= 2"):
            restricted_cotype_check(Lq(2), np.eye(3), math.inf, 2.0)
        with pytest.raises(ValueError, match="q must be >= 2"):
            restricted_cotype_constant(Lq(math.inf), np.eye(3), math.inf)


def test_restricted_cotype_at_a_huge_q_raises_overflow_not_a_warning():
    # ||x_i||^5000 overflows and its scale 2^(-5000 t) underflows, and their
    # product used to warn "invalid value encountered in multiply" first
    x = np.random.default_rng(0).normal(size=(12, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="leave the double range"):
            restricted_cotype_check(Lq(2), x, 5000, 2.0)


def test_subfamily_moments_out_of_range_raise():
    # 2^-2000 (the unit vectors scaled to 1/2, to the power 2000) underflows
    with pytest.raises(OverflowError, match="leave the double range"):
        restricted_cotype_constant(Lq(2), np.eye(2), 2000)


def _families():
    entry = st.one_of(
        st.just(0.0),
        st.floats(1e-6, 1e6).flatmap(lambda v: st.sampled_from([v, -v])),
    )
    return st.integers(1, 6).flatmap(
        lambda m: st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m
            )
        )
    )


def _norm_for(k, data):
    cut = k // 2 or 1
    return data.draw(
        st.sampled_from(
            [
                Lq(2),
                Lq(3.5),
                Lq(math.inf),
                Lq(3, dim=k),
                BlockNorm(Lq(4), ((Lq(2), cut), (Lq(1), k - cut)) if k > 1 else ((Lq(1), 1),)),
            ]
        )
    )


@settings(max_examples=80, deadline=None)
@given(_families(), st.sampled_from([2, 3, 4, 64]), st.integers(-900, 900), st.data())
def test_constants_unchanged_by_power_of_two_scaling(family, q, k, data):
    x = np.array(family)
    assume(np.any(x))  # a family of zero vectors has no constant
    nm = _norm_for(x.shape[1], data)
    y = np.ldexp(x, k)  # exact: no entry leaves the normal range

    def same(a, b):
        assert b == pytest.approx(a, rel=1e-12)

    same(cotype_constant_exact(nm, x, q), cotype_constant_exact(nm, y, q))
    same(restricted_cotype_constant(nm, x, q), restricted_cotype_constant(nm, y, q))
    same(q_concavity_constant(nm, x, q), q_concavity_constant(nm, y, q))
    # the slack is q-homogeneous: read it off the family scaled to a largest
    # entry in [1/2, 1), where it lies inside the double range
    top = int(np.frexp(np.abs(x).max())[1])
    for C in (1.0, 1.5):
        try:
            base = restricted_cotype_check(nm, np.ldexp(x, -top), q, C)
        except OverflowError:  # a subfamily far below the largest entry, at large q
            continue
        if 0 < abs(base["slack"]) < np.finfo(float).tiny:
            continue  # a subnormal slack carries too few bits to predict from
        for fam, shift in ((x, top), (y, top + k)):
            try:
                want = math.ldexp(base["slack"], q * shift)
            except OverflowError:
                want = math.inf
            if base["slack"] != 0 and want in (0.0, math.inf):
                with pytest.raises(OverflowError, match="outside the double range"):
                    restricted_cotype_check(nm, fam, q, C)
                continue
            got = restricted_cotype_check(nm, fam, q, C)
            assert (got["ok"], got["witness"]) == (base["ok"], base["witness"])
            assert got["slack"] == pytest.approx(want, rel=1e-12, abs=0)
