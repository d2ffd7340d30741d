"""Nonnegative numbers stored as their natural logs.

Every constant this package evaluates is a positive magnitude, and several
of them (ball-growth rates like d^(-1e11 ln d), popularity cutoffs of the
form 24/alpha, the giant products they feed into) are far outside
double-precision range.  So every threshold comparison in the package is
carried out on a ``LogScalar``: a number >= 0 held as its natural log, with
-inf for 0.  The package only multiplies, divides and compares such values,
and those are exact log-domain additions and comparisons.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import total_ordering

__all__ = ["LogScalar", "as_logscalar"]

_NEG_INF = float("-inf")


def as_logscalar(x) -> "LogScalar":
    """``x`` itself if it is a LogScalar; any real number (numpy scalars and
    ``Fraction`` included) through ``LogScalar.from_float``.

    Raises TypeError for anything else, strings included, and ValueError for
    a negative or NaN number.
    """
    if isinstance(x, LogScalar):
        return x
    if isinstance(x, numbers.Real):
        return LogScalar.from_float(float(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as LogScalar")


@total_ordering
@dataclass(frozen=True, eq=False)
class LogScalar:
    """A number >= 0 stored as ``ln`` = its natural log (-inf for 0).

    Order, equality and hashing come from ``ln`` alone; ``sign`` is derived
    (1, or 0 for zero).  Instances are immutable and hashable.
    """

    ln: float
    sign: int = field(init=False, repr=False)  # a field so that field-wise dumps keep it

    def __post_init__(self):
        if math.isnan(self.ln):
            raise ValueError("ln must not be NaN")
        object.__setattr__(self, "sign", 0 if self.ln == _NEG_INF else 1)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LogScalar":
        return LogScalar(_NEG_INF)

    @staticmethod
    def from_float(x: float) -> "LogScalar":
        if not x >= 0:
            raise ValueError(f"LogScalar holds numbers >= 0, got {x!r}")
        return LogScalar(math.log(x)) if x else LogScalar.zero()

    @staticmethod
    def from_ln(ln: float) -> "LogScalar":
        """The value exp(``ln``) (``ln`` may exceed float range)."""
        return LogScalar(float(ln))

    # -- arithmetic and order ------------------------------------------------

    def __mul__(self, other) -> "LogScalar":
        return LogScalar(self.ln + as_logscalar(other).ln)

    def __truediv__(self, other) -> "LogScalar":
        o = as_logscalar(other)
        if o.ln == _NEG_INF:
            raise ZeroDivisionError("LogScalar division by zero")
        return LogScalar(self.ln - o.ln)

    def __lt__(self, other):
        return self.ln < as_logscalar(other).ln

    def __eq__(self, other):
        try:
            return self.ln == as_logscalar(other).ln
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash(self.ln)

    def __repr__(self):
        return "LogScalar(0)" if self.sign == 0 else f"LogScalar(exp({self.ln:.6g}))"
