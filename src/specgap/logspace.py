"""Sign + log-magnitude scalars.

Several of the constants this package evaluates (ball-growth rates like
d^(-1e11 ln d), popularity cutoffs of the form 24/alpha, the giant products
they feed into) are far outside double-precision range, so every threshold
comparison in the package is carried out on a ``LogScalar``: a sign in
{-1, 0, +1} together with the natural log of the magnitude.  The package
only multiplies, divides and compares such values, and those are exact
log-domain additions and comparisons.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = ["LogScalar", "as_logscalar"]

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
    def from_float(x: float) -> "LogScalar":
        if x == 0:
            return LogScalar.zero()
        if math.isnan(x):
            raise ValueError("cannot represent NaN")
        return LogScalar(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_ln(ln: float) -> "LogScalar":
        """The positive value exp(``ln``) (``ln`` may exceed float range)."""
        if ln == _NEG_INF:
            return LogScalar.zero()
        return LogScalar(1, float(ln))

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

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other) -> "LogScalar":
        o = as_logscalar(other)
        if self.sign == 0 or o.sign == 0:
            return LogScalar.zero()
        return LogScalar(self.sign * o.sign, self.ln + o.ln)

    def __truediv__(self, other) -> "LogScalar":
        o = as_logscalar(other)
        if o.sign == 0:
            raise ZeroDivisionError("LogScalar division by zero")
        if self.sign == 0:
            return LogScalar.zero()
        return LogScalar(self.sign * o.sign, self.ln - o.ln)

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

    # -- display -----------------------------------------------------------

    def __repr__(self):
        if self.sign == 0:
            return "LogScalar(0)"
        s = "-" if self.sign < 0 else ""
        return f"LogScalar({s}exp({self.ln:.6g}))"
