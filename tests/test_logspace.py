import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from specgap.constants import eval_constant
from specgap.expansion import ExpanParams
from specgap.logspace import LogScalar, as_logscalar, log_sum


def test_basic_roundtrip():
    # exp(log(x)) carries relative error ~ |ln x| * eps, so 1e-12 at 1e300
    for x in (1.0, -2.5, 0.0, 1e300, -1e-300, 3.14159):
        ls = LogScalar.from_float(x)
        assert ls.to_float() == pytest.approx(x, rel=1e-12)


def test_as_logscalar_accepts_real_numbers_only():
    ls = LogScalar.from_ln(-1e9)
    assert as_logscalar(ls) is ls
    for x in (np.int64(6), np.int32(6), np.float64(6.0), np.float32(6.0), Fraction(12, 2), 6, 6.0):
        assert as_logscalar(x) == LogScalar.from_float(6.0)
    assert as_logscalar(np.float64(-0.25)) == LogScalar.from_float(-0.25)
    assert as_logscalar(np.int64(0)).is_zero()
    for bad in ("0.5", None, [1.0], 1j):
        with pytest.raises(TypeError, match="LogScalar"):
            as_logscalar(bad)
    # the three former coercion sites share it
    assert LogScalar.one() * np.int64(3) == LogScalar.from_float(3.0)
    assert ExpanParams(alpha=np.float64(0.5), eps=0.2, L=np.int64(2)).L == LogScalar.from_float(2.0)
    with pytest.raises(TypeError, match="LogScalar"):
        ExpanParams(alpha="0.5", eps=0.2, L=1.0)
    kw = dict(d=6, eps=0.2)
    assert eval_constant("Ltilde", alpha=np.float64(0.5), L=np.int64(24), **kw) == eval_constant(
        "Ltilde", alpha=0.5, L=24, **kw
    )


def test_zero_pairing_enforced():
    with pytest.raises(ValueError):
        LogScalar(0, 1.0)
    with pytest.raises(ValueError):
        LogScalar(1, float("-inf"))


def test_out_of_float_range_values():
    huge = LogScalar.from_ln(1e12)
    tiny = LogScalar.from_ln(-1e12)
    assert huge.to_float() == float("inf")
    assert tiny.to_float() == 0.0
    assert tiny.sign == 1 and not tiny.is_zero()
    assert (huge * tiny).ln == pytest.approx(0.0)


def test_mul_div_pow():
    a = LogScalar.from_float(3.0)
    b = LogScalar.from_float(-7.0)
    assert (a * b).to_float() == pytest.approx(-21.0)
    assert (a / b).to_float() == pytest.approx(-3.0 / 7.0)
    assert (b**2).to_float() == pytest.approx(49.0)
    assert (b**3).to_float() == pytest.approx(-343.0)
    with pytest.raises(ValueError):
        b**0.5
    assert (LogScalar.zero() ** 3).is_zero()
    assert (a**0).to_float() == pytest.approx(1.0)


def test_signed_addition():
    a = LogScalar.from_float(5.0)
    b = LogScalar.from_float(-3.0)
    assert (a + b).to_float() == pytest.approx(2.0)
    assert (b + a).to_float() == pytest.approx(2.0)
    assert (a - a).is_zero()
    assert (a + LogScalar.zero()).to_float() == pytest.approx(5.0)
    # additions dominated by one term stay stable
    big = LogScalar.from_ln(1000.0)
    assert (big + a).ln == pytest.approx(1000.0, abs=1e-12)


def test_comparisons_total_order():
    vals = [-4.0, -0.5, 0.0, 0.25, 3.0]
    scalars = [LogScalar.from_float(v) for v in vals]
    for i, x in enumerate(scalars):
        for j, y in enumerate(scalars):
            assert (x < y) == (vals[i] < vals[j])
            assert (x >= y) == (vals[i] >= vals[j])
            assert (x == y) == (vals[i] == vals[j])


def test_log_sum_matches_float_sum():
    xs = [0.5, -0.25, 3.0, -1.5, 2.25]
    total = log_sum(LogScalar.from_float(x) for x in xs)
    assert total.to_float() == pytest.approx(sum(xs), rel=1e-12)


@given(
    st.integers(min_value=-400, max_value=400),
    st.integers(min_value=-400, max_value=400),
)
def test_mul_div_cancels_exactly_on_integer_logs(la, lb):
    # integer log-magnitudes add and subtract without rounding
    a = LogScalar.from_ln(float(la))
    b = LogScalar.from_ln(float(lb))
    assert ((a * b) / b) == a


@given(
    st.floats(min_value=-700, max_value=700, allow_nan=False),
    st.floats(min_value=-700, max_value=700, allow_nan=False),
)
def test_mul_div_cancels_to_relative_tolerance(la, lb):
    a = LogScalar.from_ln(la)
    b = LogScalar.from_ln(lb)
    assert ((a * b) / b).close_to(a, rel=1e-12)


@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_addition_commutes_and_is_monotone(la, lb):
    a = LogScalar.from_ln(la)
    b = LogScalar.from_ln(lb)
    assert (a + b) == (b + a)
    assert (a + b) >= a  # both positive
