import math

import numpy as np
import pytest

from specgap.constants import (
    CONSTANT_IDS,
    L0_VALUE,
    baseline_comparison,
    PAPER_EPS,
    eval_constant,
    identity_checks,
    partial_a_sum,
)
from specgap.logspace import LogScalar


def test_alpha_growth_rate_log_value():
    a6 = eval_constant("alpha_d", d=6)
    assert a6.ln == pytest.approx(-1e11 * math.log(6) ** 2)
    # -3.210402e11 to full precision; 1e-4 relative absorbs rounding of the
    # quoted 6-digit value
    assert a6.ln == pytest.approx(-3.2104e11, rel=1e-4)
    # far below float range but still a positive quantity
    assert a6.sign == 1 and math.exp(a6.ln) == 0.0


def test_L_d_is_24_over_alpha():
    # |ln alpha| ~ 3.2e11 has ulp ~ 6e-5, so the log-domain cancellation
    # leaves ~1e-4 absolute error in the log: compare accordingly
    ld = eval_constant("L_d", d=6)
    a6 = eval_constant("alpha_d", d=6)
    assert math.exp((ld * a6).ln) == pytest.approx(24.0, rel=1e-3)


def test_ltilde_direct_value():
    lt = eval_constant("Ltilde", d=3, L=1.0, alpha=1.0, eps=1.0)
    assert math.exp(lt.ln) == pytest.approx(2 * 60.0**8, rel=1e-12)
    assert math.exp(lt.ln) == pytest.approx(3.359232e14)


def test_gamma_log_value():
    g = eval_constant("Gamma", q=2, C=1, K=1, d=3, alpha=1.0, eps=1.0, L=1.0)
    assert g.ln == pytest.approx(125 * math.log(2) + 25 * math.log(3), rel=1e-12)
    assert g.ln == pytest.approx(114.11, abs=0.01)


def test_gamma_q_homogeneity():
    kw = dict(C=1, K=1, d=3, alpha=1.0, eps=1.0, L=1.0)
    for q in (2.0, 3.0, 7.5):
        g1 = eval_constant("Gamma", q=q, **kw)
        g2 = eval_constant("Gamma", q=2 * q, **kw)
        assert g2.ln - g1.ln == pytest.approx(10 * math.log(2), rel=1e-12)


def test_L0_and_eta_and_K():
    assert L0_VALUE == 46_666_667
    assert L0_VALUE == math.floor((7 / 15) * 1e8) + 1
    eta = eval_constant("eta", d=3)
    expected = -(2 * math.log(12) + 3 + (2 * L0_VALUE + 2) * math.log(2))
    assert eta.ln == pytest.approx(expected, rel=1e-12)
    k6 = eval_constant("K", d=6)
    assert k6 >= LogScalar.from_float(3500.0)
    # K's leading factor needs d - 2.1 sqrt(d-1) > 0: fine for all d >= 3
    assert eval_constant("K", d=3).sign == 1


def bigint_ln(name: str, *, q=None, C=None, K=None, d=None, L=None) -> float:
    """Independent big-integer evaluation path for integer-exponent cases.

    Only valid at alpha = eps = 1 and integer q, C, K, d, L; used to
    cross-check the log path.
    """
    if name == "Gamma":
        val = 2**115 * q**10 * C**2 * K**3 * d**25 * L**8
    elif name == "Pi":
        val = 2**113 * q**10 * C**2 * d**24 * L**8
    elif name == "Ltilde":
        val = 2 * (20 * d * L) ** 8
    else:
        raise ValueError(f"no big-integer path for {name}")
    return math.log(val)


def test_bigint_cross_check():
    # independent big-integer evaluation path matches the log path
    for name, kw in [
        ("Gamma", dict(q=2, C=1, K=1, d=3, L=1)),
        ("Gamma", dict(q=3, C=20, K=2, d=6, L=5)),
        ("Pi", dict(q=2, C=1, d=3, L=1)),
        ("Pi", dict(q=5, C=20, d=10, L=7)),
        ("Ltilde", dict(d=3, L=1)),
        ("Ltilde", dict(d=6, L=11)),
    ]:
        via_int = bigint_ln(name, **kw)
        via_log = eval_constant(name, alpha=1.0, eps=1.0, **kw).ln
        assert via_log == pytest.approx(via_int, rel=1e-12)


def test_monotonicities():
    kw = dict(q=2, C=1, K=1, d=6, eps=0.5, L=2.0)
    g_small_alpha = eval_constant("Gamma", alpha=0.1, **kw)
    g_big_alpha = eval_constant("Gamma", alpha=0.9, **kw)
    assert g_small_alpha > g_big_alpha  # decreasing in alpha
    kw2 = dict(C=1, K=1, d=6, alpha=0.5, eps=0.5, L=2.0)
    assert eval_constant("Gamma", q=4, **kw2) > eval_constant("Gamma", q=2, **kw2)


def test_paper_parameterization_strings():
    # the paper's alpha and L are the constants alpha_d and L_d, not strings
    with pytest.raises(TypeError, match="LogScalar"):
        eval_constant("Pi", q=2, C=1, d=6, alpha="paper", eps=0.2, L=1.0)
    with pytest.raises(TypeError, match="LogScalar"):
        eval_constant("Pi", q=2, C=1, d=6, alpha=1.0, eps=0.2, L="paper")
    alpha, L = eval_constant("alpha_d", d=6), eval_constant("L_d", d=6)
    pi = eval_constant("Pi", q=2, C=1, d=6, alpha=alpha, eps=PAPER_EPS, L=L)
    # dominated by alpha^-14 L^8 = alpha^-22 (up to the 24^8 etc. factors)
    assert pi.ln > 1e12
    assert PAPER_EPS == 0.2
    assert L.ln == math.log(24.0) - alpha.ln


def test_identity_report():
    rep = identity_checks()
    # the recombination direction holds...
    assert rep.upper_bound_holds
    # ...but exact equality does not: at q=2 the deficit is the universal
    # constant 2^72/10^18, i.e. ln-deviation ~ 8.46 / |ln Pi|
    assert not rep.equality_holds
    assert rep.max_equality_deviation > 1e-3
    q2 = [r for r in rep.grid if r["q"] == 2]
    for r in q2:
        assert r["ln_Pi"] - r["ln_4_over_cprime"] == pytest.approx(
            72 * math.log(2) - 18 * math.log(10), rel=1e-9
        )
    assert rep.k_above_3500
    assert rep.a_sum_ok
    assert abs(1.0 - rep.a_partial_sum) <= 2e-6


def test_partial_a_sum_tail():
    # tail of sum 6/pi^2 i^-2 beyond N is ~ (6/pi^2)/N
    s = partial_a_sum(10**6)
    assert 1 - s == pytest.approx((6 / math.pi**2) * 1e-6, rel=1e-2)


def _partial_a_sum_three_arrays(n_terms):
    """The former partial_a_sum: squares and reciprocals in new arrays."""
    idx = np.arange(n_terms, 0, -1, dtype=np.float64)
    return float((6.0 / math.pi**2) * np.sum(1.0 / (idx * idx)))


@pytest.mark.parametrize("n_terms", [0, 1, 2, 10**3, 10**6, np.int64(10**3)])
def test_partial_a_sum_in_place_is_bit_identical(n_terms):
    assert partial_a_sum(n_terms) == _partial_a_sum_three_arrays(n_terms)


def test_partial_a_sum_pinned_value():
    assert partial_a_sum(10**6) == 0.9999993920732021


@pytest.mark.parametrize(
    "n_terms, error, match",
    [
        (2.5, TypeError, "integer"),
        ("3", TypeError, "integer"),
        (True, TypeError, "not a bool"),
        (False, TypeError, "not a bool"),
        (-3, ValueError, "n_terms must be an integer >= 0, got -3"),
    ],
)
def test_partial_a_sum_refuses_a_non_count(n_terms, error, match):
    with pytest.raises(error, match=match):
        partial_a_sum(n_terms)


def test_chat_cprime_composition():
    kw = dict(q=2, C=1, d=3, alpha=1.0, eps=1.0, L=1.0)
    lt = eval_constant("Ltilde", d=3, alpha=1.0, eps=1.0, L=1.0)
    ch = eval_constant("chat", **kw)
    assert ch.ln == pytest.approx(
        -(15 * math.log(2) + 3 * math.log(3) + lt.ln / 2), rel=1e-12
    )
    cp = eval_constant("cprime", **kw)
    assert cp.ln == pytest.approx(2 * ch.ln + 10 * math.log(1 / 60), rel=1e-12)


def test_baseline_comparison_shape():
    rows = baseline_comparison((2, 4, 8), d=6, lambda2=2 * math.sqrt(5))
    assert [r["q"] for r in rows] == [2, 4, 8]
    # the homeomorphism-route logs are affine (slope >> 0) in q, the
    # expansion-route log grows like 10 ln q
    for r1, r2 in zip(rows, rows[1:]):
        assert r2["ln_os_i"] > r1["ln_os_i"]
        assert r2["ln_gamma"] - r1["ln_gamma"] == pytest.approx(
            10 * math.log(2), rel=1e-9
        )
    assert all(r["ln_os_i"] > r["ln_gamma"] for r in rows)


def test_unknown_constant_and_missing_params():
    with pytest.raises(ValueError, match="unknown"):
        eval_constant("Bogus")
    with pytest.raises(ValueError, match="missing"):
        eval_constant("Gamma", q=2)


# One valid value per parameter of eval_constant.
VALID = dict(q=2, C=1.5, K=2, d=6, alpha=0.5, eps=0.2, L=3.0, lambda2=2 * math.sqrt(5))


def test_every_constant_reads_exactly_its_parameters():
    needs = {}
    for name in CONSTANT_IDS:
        value = eval_constant(name, **VALID)
        assert isinstance(value, LogScalar) and math.isfinite(value.ln), name
    for name in CONSTANT_IDS:
        needed = []
        for k in VALID:
            try:
                eval_constant(name, **{j: v for j, v in VALID.items() if j != k})
            except ValueError as e:
                assert str(e) == f"{name} is missing parameter(s): {k}"
                needed.append(k)
        # an unneeded parameter is never read, so any value of it is fine
        unneeded = [k for k in VALID if k not in needed]
        assert eval_constant(name, **{**VALID, **{k: "unread" for k in unneeded}}) == eval_constant(
            name, **VALID
        )
        needs[name] = needed
    assert needs["Gamma"] == ["q", "C", "K", "d", "alpha", "eps", "L"]
    assert needs["OS_bound_ii"] == ["q", "d", "lambda2"]
    assert needs["alpha_d"] == needs["eta"] == ["d"]


def test_integer_parameters_accept_numpy_integers():
    assert eval_constant("K", d=np.int64(6)) == eval_constant("K", d=6)


GAMMA = dict(q=1, C=1, K=1, d=3, alpha=1, eps=1, L=1)


@pytest.mark.parametrize(
    "name, kw, param",
    [
        ("Gamma", dict(GAMMA, q=math.inf), "q"),
        ("Gamma", dict(GAMMA, alpha=0), "alpha"),
        ("Gamma", dict(GAMMA, eps=math.inf), "eps"),
        ("Gamma", dict(GAMMA, L=0), "L"),
        ("eta", dict(d=math.inf), "d"),
        ("c", dict(d=math.inf, alpha=1), "d"),
        ("alpha_d", dict(d=math.inf), "d"),
        ("Gamma", dict(GAMMA, q=0), "q"),
        ("Gamma", dict(GAMMA, q=-2), "q"),
        ("Gamma", dict(GAMMA, eps=0), "eps"),
        ("eta", dict(d=1), "d"),
        ("c", dict(d=1, alpha=1), "d"),
        ("K", dict(d=1), "d"),
        ("eta", dict(d=2), "d"),
        ("c", dict(d=2, alpha=1), "d"),
        ("Gamma", dict(GAMMA, C=0), "C"),
        ("Gamma", dict(GAMMA, K=math.nan), "K"),
        ("OS_bound_ii", dict(q=2, d=3, lambda2=math.nan), "lambda2"),
        ("OS_bound_ii", dict(q=2, d=3, lambda2=3.0), "lambda2"),
    ],
)
def test_invalid_parameter_is_named(name, kw, param):
    with pytest.raises(ValueError, match=rf"^{param} must be"):
        eval_constant(name, **kw)


@pytest.mark.parametrize(
    "name, kw",
    [
        ("OS_bound_i", dict(q=1e306, C=1, d=3, lambda2=0.0)),
        ("Gamma", dict(GAMMA, alpha=LogScalar.from_ln(-1.3e307))),
    ],
)
def test_a_log_outside_the_double_range_raises(name, kw):
    # valid, finite parameters whose closed form overflows: no silent exp(inf)
    with pytest.raises(OverflowError, match=rf"^the log of {name} "):
        eval_constant(name, **kw)


def test_non_real_parameter_is_named():
    with pytest.raises(TypeError, match=r"^q must be finite and > 0: must be real number"):
        eval_constant("Gamma", **dict(GAMMA, q="2"))
