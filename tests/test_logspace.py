import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from specgap.constants import eval_constant
from specgap.expansion import ExpanParams
from specgap.logspace import LogScalar, as_logscalar


def test_basic_roundtrip():
    # exp(log(x)) carries relative error ~ |ln x| * eps, so 1e-12 at 1e300
    for x in (1.0, 2.5, 0.0, 1e300, 1e-300, 3.14159):
        ls = LogScalar.from_float(x)
        assert math.exp(ls.ln) == pytest.approx(x, rel=1e-12)
    for x in (-2.5, -1e-300, -math.inf, math.nan):
        with pytest.raises(ValueError, match=">= 0"):
            LogScalar.from_float(x)


def test_as_logscalar_accepts_real_numbers_only():
    ls = LogScalar.from_ln(-1e9)
    assert as_logscalar(ls) is ls
    for x in (np.int64(6), np.int32(6), np.float64(6.0), np.float32(6.0), Fraction(12, 2), 6, 6.0):
        assert as_logscalar(x) == LogScalar.from_float(6.0)
    assert as_logscalar(np.float64(0.25)) == LogScalar.from_float(0.25)
    assert as_logscalar(np.int64(0)) == LogScalar.zero()
    for neg in (np.float64(-0.25), -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match=">= 0"):
            as_logscalar(neg)
    for bad in ("0.5", None, [1.0], 1j):
        with pytest.raises(TypeError, match="LogScalar"):
            as_logscalar(bad)
    # the three former coercion sites share it
    assert LogScalar.from_float(1.0) * np.int64(3) == LogScalar.from_float(3.0)
    assert ExpanParams(alpha=np.float64(0.5), eps=0.2, L=np.int64(2)).L == LogScalar.from_float(2.0)
    with pytest.raises(TypeError, match="LogScalar"):
        ExpanParams(alpha="0.5", eps=0.2, L=1.0)
    with pytest.raises(ValueError, match=">= 0"):
        ExpanParams(alpha=-0.5, eps=0.2, L=1.0)
    kw = dict(d=6, eps=0.2)
    assert eval_constant("Ltilde", alpha=np.float64(0.5), L=np.int64(24), **kw) == eval_constant(
        "Ltilde", alpha=0.5, L=24, **kw
    )


def test_zero_pairing_enforced():
    # the sign is derived from ln: 0 exactly at ln = -inf
    assert LogScalar(float("-inf")).sign == 0 and LogScalar(float("-inf")) == LogScalar.zero()
    assert LogScalar(-1e300).sign == 1 and LogScalar(1.0).sign == 1
    with pytest.raises(ValueError, match="NaN"):
        LogScalar(math.nan)
    # the constructor takes the log alone; there is no sign to pass
    with pytest.raises(TypeError):
        LogScalar(-1, 1.0)
    with pytest.raises(TypeError):
        LogScalar(ln=1.0, sign=1)


def test_out_of_float_range_values():
    huge = LogScalar.from_ln(1e12)
    tiny = LogScalar.from_ln(-1e12)
    assert tiny.sign == 1 and tiny > LogScalar.zero()
    assert (huge * tiny).ln == pytest.approx(0.0)


def test_mul_div_pow():
    a = LogScalar.from_float(3.0)
    b = LogScalar.from_float(7.0)
    assert math.exp((a * b).ln) == pytest.approx(21.0)
    assert math.exp((a / b).ln) == pytest.approx(3.0 / 7.0)
    assert a * LogScalar.zero() == LogScalar.zero()
    assert LogScalar.zero() / b == LogScalar.zero()
    with pytest.raises(ZeroDivisionError):
        a / 0
    with pytest.raises(ZeroDivisionError):
        LogScalar.zero() / 0
    for neg in (-7.0, -1, np.float64(-2.0)):
        with pytest.raises(ValueError, match=">= 0"):
            a * neg
        with pytest.raises(ValueError, match=">= 0"):
            a / neg
    # the package only multiplies, divides and compares: no powers or sums
    for op in (lambda: b**2, lambda: a + b, lambda: a - b, lambda: 2 * a):
        with pytest.raises(TypeError):
            op()


def test_comparisons_total_order():
    vals = [0.0, 0.25, 3.0, 4.0]
    scalars = [LogScalar.from_float(v) for v in vals]
    for i, x in enumerate(scalars):
        for j, y in enumerate(scalars):
            assert (x < y) == (vals[i] < vals[j])
            assert (x >= y) == (vals[i] >= vals[j])
            assert (x == y) == (vals[i] == vals[j])
            assert (x == y) == (hash(x) == hash(y))
    # a LogScalar equals no negative number and is not ordered against one
    assert scalars[0] != -1.0 and scalars[2] != -3.0
    with pytest.raises(ValueError, match=">= 0"):
        scalars[0] < -1.0


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
    back = (a * b) / b
    assert back.sign == 1 and math.isclose(back.ln, a.ln, rel_tol=1e-12, abs_tol=1e-12)


# Values whose products and quotients stay normal doubles: exp(ln a + ln b)
# then carries a relative error of about |ln a + ln b| * 2^-52.
nonnegative = st.one_of(st.just(0.0), st.floats(min_value=1e-150, max_value=1e150))


@given(nonnegative, nonnegative)
def test_agrees_with_float_arithmetic(a, b):
    x, y = LogScalar.from_float(a), LogScalar.from_float(b)
    assert math.exp((x * y).ln) == pytest.approx(a * b, rel=1e-12)
    if b > 0:
        assert math.exp((x / y).ln) == pytest.approx(a / b, rel=1e-12)
    if a == b:
        assert x == y and not x < y and x <= y and x >= y
    elif abs(a - b) > 1e-12 * max(a, b):
        # log is monotone; values closer than its rounding may share a log
        assert (x < y) == (a < b) and (x > y) == (a > b) and x != y
