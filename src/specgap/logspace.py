"""Sign + log-magnitude scalars.

Several of the constants this package evaluates (ball-growth rates like
d^(-1e11 ln d), popularity cutoffs of the form 24/alpha, the giant products
they feed into) are far outside double-precision range, so every threshold
comparison in the package is carried out on a ``LogScalar``: a sign in
{-1, 0, +1} together with the natural log of the magnitude.  Multiplication,
division and powers are exact log-domain additions; addition goes through a
stable signed log-sum-exp.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = ["LogScalar", "as_logscalar", "log_sum"]

_NEG_INF = float("-inf")


def as_logscalar(x) -> "LogScalar":
    """``x`` itself if it is a LogScalar; any real number (numpy scalars and
    ``Fraction`` included) through ``LogScalar.from_float``.

    Raises TypeError for anything else, strings included.
    """
    if isinstance(x, LogScalar):
        return x
    if isinstance(x, numbers.Real):
        return LogScalar.from_float(float(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as LogScalar")


@dataclass(frozen=True)
class LogScalar:
    """A real number stored as (sign, ln |value|).

    ``sign == 0`` iff ``ln == -inf``.  Instances are immutable and hashable.
    """

    sign: int
    ln: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign}")
        if (self.sign == 0) != (self.ln == _NEG_INF):
            raise ValueError("sign 0 must pair with ln = -inf and vice versa")
        if math.isnan(self.ln):
            raise ValueError("ln must not be NaN")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LogScalar":
        return LogScalar(0, _NEG_INF)

    @staticmethod
    def one() -> "LogScalar":
        return LogScalar(1, 0.0)

    @staticmethod
    def from_float(x: float) -> "LogScalar":
        if x == 0:
            return LogScalar.zero()
        if math.isnan(x):
            raise ValueError("cannot represent NaN")
        return LogScalar(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_ln(ln: float, sign: int = 1) -> "LogScalar":
        """Value with natural-log magnitude ``ln`` (may exceed float range)."""
        if ln == _NEG_INF:
            return LogScalar.zero()
        return LogScalar(sign, float(ln))

    # -- conversions -------------------------------------------------------

    def to_float(self) -> float:
        """Collapse to a float; overflows to +-inf, underflows to 0."""
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.ln)
        except OverflowError:
            mag = float("inf")
        return self.sign * mag

    @property
    def log10(self) -> float:
        return self.ln / math.log(10.0)

    def is_zero(self) -> bool:
        return self.sign == 0

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other) -> "LogScalar":
        o = as_logscalar(other)
        if self.sign == 0 or o.sign == 0:
            return LogScalar.zero()
        return LogScalar(self.sign * o.sign, self.ln + o.ln)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LogScalar":
        o = as_logscalar(other)
        if o.sign == 0:
            raise ZeroDivisionError("LogScalar division by zero")
        if self.sign == 0:
            return LogScalar.zero()
        return LogScalar(self.sign * o.sign, self.ln - o.ln)

    def __rtruediv__(self, other) -> "LogScalar":
        return as_logscalar(other) / self

    def __pow__(self, p) -> "LogScalar":
        if isinstance(p, LogScalar):
            p = p.to_float()
        if self.sign == 0:
            if p > 0:
                return LogScalar.zero()
            if p == 0:
                return LogScalar.one()
            raise ZeroDivisionError("0 ** negative")
        if self.sign < 0:
            if not float(p).is_integer():
                raise ValueError("negative base needs an integer exponent")
            sign = -1 if int(p) % 2 else 1
        else:
            sign = 1
        return LogScalar(sign, self.ln * p)

    def __neg__(self) -> "LogScalar":
        if self.sign == 0:
            return self
        return LogScalar(-self.sign, self.ln)

    def __abs__(self) -> "LogScalar":
        return self if self.sign >= 0 else -self

    def __add__(self, other) -> "LogScalar":
        o = as_logscalar(other)
        if self.sign == 0:
            return o
        if o.sign == 0:
            return self
        if self.sign == o.sign:
            # log-sum-exp of two magnitudes
            hi, lo = (self.ln, o.ln) if self.ln >= o.ln else (o.ln, self.ln)
            return LogScalar(self.sign, hi + math.log1p(math.exp(lo - hi)))
        # opposite signs: cancellation
        if self.ln == o.ln:
            return LogScalar.zero()
        big, small = (self, o) if self.ln > o.ln else (o, self)
        ln = big.ln + math.log1p(-math.exp(small.ln - big.ln))
        return LogScalar(big.sign, ln)

    __radd__ = __add__

    def __sub__(self, other) -> "LogScalar":
        return self + (-as_logscalar(other))

    def __rsub__(self, other) -> "LogScalar":
        return as_logscalar(other) + (-self)

    # -- comparisons -------------------------------------------------------

    def _cmp(self, other) -> int:
        o = as_logscalar(other)
        if self.sign != o.sign:
            return -1 if self.sign < o.sign else 1
        if self.sign == 0:
            return 0
        if self.ln == o.ln:
            return 0
        bigger_mag = self.ln > o.ln
        if self.sign > 0:
            return 1 if bigger_mag else -1
        return -1 if bigger_mag else 1

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        try:
            o = as_logscalar(other)
        except TypeError:
            return NotImplemented
        return self.sign == o.sign and self.ln == o.ln

    def __hash__(self):
        return hash((self.sign, self.ln))

    def close_to(self, other, rel: float = 1e-9) -> bool:
        """Same sign and log-magnitudes within ``rel`` relative tolerance."""
        o = as_logscalar(other)
        if self.sign != o.sign:
            return False
        if self.sign == 0:
            return True
        return math.isclose(self.ln, o.ln, rel_tol=rel, abs_tol=rel)

    # -- display -----------------------------------------------------------

    def __repr__(self):
        if self.sign == 0:
            return "LogScalar(0)"
        s = "-" if self.sign < 0 else ""
        return f"LogScalar({s}exp({self.ln:.6g}))"

    def to_json(self) -> dict:
        return {"sign": self.sign, "ln_value": self.ln, "log10_value": self.log10}


def log_sum(values) -> LogScalar:
    """Sum an iterable of LogScalars via repeated signed log-sum-exp."""
    acc = LogScalar.zero()
    for v in values:
        acc = acc + as_logscalar(v)
    return acc
