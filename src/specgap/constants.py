"""Log-space evaluation of every named constant and the relations among them.

Every constant is a positive magnitude, and the interesting parameter
regimes (ball-growth rate alpha(d) = d^(-1e11 ln d), popularity scale
L = 24/alpha, and everything built on them) are far outside float range,
so each is evaluated as its natural log and returned as a LogScalar.  The
constants form one table, ``_LN``, from a name to a closed form for its log;
a closed form's parameter list is the constant's requirement list, which
``eval_constant`` reads and checks before evaluating.

The paper's parameterization at degree d is defined here once: alpha(d) and
L(d) = 24/alpha(d) as the constants "alpha_d" and "L_d", eps as PAPER_EPS;
``expansion.ExpanParams.paper`` reads them.  The integer constant L0 is
``L0_VALUE``, and the scale weights a_i are summed by ``partial_a_sum``.
"""

from __future__ import annotations

import inspect
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .logspace import LogScalar, as_logscalar

__all__ = [
    "eval_constant",
    "PAPER_EPS",
    "identity_checks",
    "IdentityReport",
    "baseline_comparison",
]

L0_VALUE = (7 * 10**8) // 15 + 1  # 46_666_667
PAPER_EPS = 0.2  # eps of the paper's parameterization


def partial_a_sum(n_terms: int) -> float:
    """sum_{i<=n_terms} a_i of the summable scale weights a_i = (6/pi^2) / i^2
    (they sum to 1), accumulated small-to-large for accuracy, in one float64
    array.  ``n_terms`` is an integer >= 0 (``operator.index``), not a bool."""
    if isinstance(n_terms, bool):
        raise TypeError(f"n_terms must be an integer >= 0, not a bool ({n_terms!r})")
    n_terms = operator.index(n_terms)
    if n_terms < 0:
        raise ValueError(f"n_terms must be an integer >= 0, got {n_terms}")
    idx = np.arange(n_terms, 0, -1, dtype=np.float64)
    np.multiply(idx, idx, out=idx)
    np.divide(1.0, idx, out=idx)
    return float((6.0 / math.pi**2) * idx.sum())


# Each constant's natural log as a function of exactly the parameters it
# needs; alpha and L arrive as LogScalar, the others as given.
_LN = {
    "Gamma": lambda q, C, K, d, alpha, eps, L: (
        115 * math.log(2.0) + 10 * math.log(q) + 2 * math.log(C) + 3 * math.log(K)
        + 25 * math.log(d) + 8 * L.ln - 14 * alpha.ln - 18 * math.log(eps)
    ),
    "Pi": lambda q, C, d, alpha, eps, L: (
        113 * math.log(2.0) + 10 * math.log(q) + 2 * math.log(C)
        + 24 * math.log(d) + 8 * L.ln - 14 * alpha.ln - 18 * math.log(eps)
    ),
    "Ltilde": lambda d, alpha, eps, L: (
        math.log(2.0) + 8 * (math.log(20.0 * d) + L.ln - alpha.ln - math.log(eps))
    ),
    "c": lambda d, alpha: 2 * alpha.ln - math.log(48.0 * d * (d - 1.0)),
    "chat": lambda q, C, d, alpha, eps, L: (
        3 * alpha.ln - 15 * math.log(2.0) - 3 * math.log(d) - math.log(C)
        - _LN["Ltilde"](d, alpha, eps, L) / q
    ),
    "cprime": lambda q, C, d, alpha, eps, L: (
        2 * _LN["chat"](q, C, d, alpha, eps, L)
        + 10 * (math.log(eps) - math.log(10.0 * q * d))
    ),
    # alpha(d) = d^(-1e11 ln d), the typical ball-growth rate, and L = 24/alpha
    "alpha_d": lambda d: -1e11 * math.log(d) ** 2,
    "L_d": lambda d: math.log(24.0) - _LN["alpha_d"](d),
    "eta": lambda d: -(2 * math.log(12.0) + 3.0 + (2 * L0_VALUE + 2) * math.log(d - 1.0)),
    "K": lambda d: (
        math.log((d - 2.1 * math.sqrt(d - 1.0)) / 2.0)
        + (L0_VALUE - 1) * math.log(1.5 - 1.05 * math.sqrt(d - 1.0) / d)
    ),
    "OS_bound_i": lambda q, C, d, lambda2: (
        (3616 * q + 450) * math.log(2.0) + (384 * q + 104) * math.log(q)
        + (129 * q + 4) * math.log(C) + 8 * (math.log(d) - math.log(d - lambda2))
    ),
    "OS_bound_ii": lambda q, d, lambda2: (
        64 * math.log(q) + (576 * q + 234) * math.log(2.0)
        + 8 * (math.log(d) - math.log(d - lambda2))
    ),
}
CONSTANT_IDS = tuple(_LN)
_NEEDS = {name: tuple(inspect.signature(f).parameters) for name, f in _LN.items()}


# What each parameter must be, and the test of it; alpha and L are tested
# as LogScalar, the others as given.
_CHECKS = {
    **dict.fromkeys("q C K eps".split(), ("finite and > 0", lambda x: math.isfinite(x) and x > 0)),
    **dict.fromkeys(("alpha", "L"), ("> 0 with a finite ln", lambda x: math.isfinite(x.ln))),
    "d": ("an integer >= 3", lambda x: isinstance(x, numbers.Integral) and x >= 3),
    "lambda2": ("finite", math.isfinite),
}


def eval_constant(
    name: str, *, q=None, C=None, K=None, d=None, alpha=None, eps=None, L=None, lambda2=None
) -> LogScalar:
    """Evaluate one named constant in log space.

    Only the constant's own parameters are read, and each is checked first:
    d is an integer >= 3, q, C, K and eps are finite and > 0, alpha and L
    (real numbers or LogScalar) are > 0 with a finite ln, and lambda2 is
    finite and < d.  A closed form whose log leaves the double range raises
    OverflowError.  The paper's alpha and L at degree d are
    ``eval_constant("alpha_d", d=d)`` and ``eval_constant("L_d", d=d)``.
    """
    if name not in _LN:
        raise ValueError(f"unknown constant id {name!r}; known: {CONSTANT_IDS}")
    given = dict(q=q, C=C, K=K, d=d, alpha=alpha, eps=eps, L=L, lambda2=lambda2)
    missing = [k for k in _NEEDS[name] if given[k] is None]
    if missing:
        raise ValueError(f"{name} is missing parameter(s): {', '.join(missing)}")
    args = {}
    for k in _NEEDS[name]:
        need, test = _CHECKS[k]
        try:
            args[k] = as_logscalar(given[k]) if k in ("alpha", "L") else given[k]
            valid = test(args[k])
        except (TypeError, ValueError) as e:
            raise type(e)(f"{k} must be {need}: {e}") from None
        if not valid:
            raise ValueError(f"{k} must be {need}, got {given[k]!r}")
    if "lambda2" in args and not lambda2 < d:
        raise ValueError(f"lambda2 must be < d = {d}, got {lambda2!r}")
    ln = _LN[name](**args)
    if not math.isfinite(ln):
        raise OverflowError(
            f"the log of {name} at these parameters is {ln!r}: it leaves the double range"
        )
    return LogScalar.from_ln(ln)


# -- relations among the constants ----------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    grid: tuple                       # per-point records
    max_equality_deviation: float     # max rel. deviation of ln(4/c') vs ln(Pi)
    equality_holds: bool              # |dev| <= 1e-9 everywhere
    upper_bound_holds: bool           # 4/c' <= Pi everywhere
    k_values: dict                    # d -> ln K(d)
    k_above_3500: bool
    a_partial_sum: float
    a_sum_ok: bool


# The grid of identity_checks: q, d and C values, at alpha = eps = L = 1, and
# the terms of its partial sum of the a_i.
IDENTITY_Q_GRID = (2, 3, 5, 10)
IDENTITY_D_GRID = (3, 6, 10)
IDENTITY_C_GRID = (1, 20)
IDENTITY_A_TERMS = 10**6


def identity_checks() -> IdentityReport:
    """Cross-check the closed forms against each other on the IDENTITY_*
    grid, at alpha = eps = L = 1.

    The recombination argument needs 4/c' <= Pi; the exact-equality variant
    is evaluated too and reported with its deviation (it does not hold: at
    q = 2 the ratio Pi/(4/c') is the parameter-free constant 2^72/10^18).
    """
    records = []
    max_dev = 0.0
    upper_ok = True
    four = LogScalar.from_float(4.0)
    unit = dict(alpha=1.0, eps=1.0, L=1.0)
    for q in IDENTITY_Q_GRID:
        for d in IDENTITY_D_GRID:
            for C in IDENTITY_C_GRID:
                cp = eval_constant("cprime", q=q, C=C, d=d, **unit)
                pi = eval_constant("Pi", q=q, C=C, d=d, **unit)
                lhs = four / cp
                dev = abs(lhs.ln - pi.ln) / max(abs(pi.ln), 1.0)
                max_dev = max(max_dev, dev)
                upper_ok = upper_ok and (lhs <= pi)
                records.append(
                    {
                        "q": q,
                        "d": d,
                        "C": C,
                        "ln_4_over_cprime": lhs.ln,
                        "ln_Pi": pi.ln,
                        "rel_deviation": dev,
                    }
                )
    k_values = {}
    k_ok = True
    for d in (6, 7, 8, 10, 12):
        kd = eval_constant("K", d=d)
        k_values[d] = kd.ln
        k_ok = k_ok and (kd >= LogScalar.from_float(3500.0))
    s = partial_a_sum(IDENTITY_A_TERMS)
    return IdentityReport(
        grid=tuple(records),
        max_equality_deviation=max_dev,
        equality_holds=max_dev <= 1e-9,
        upper_bound_holds=upper_ok,
        k_values=k_values,
        k_above_3500=k_ok,
        a_partial_sum=s,
        a_sum_ok=abs(1.0 - s) <= 2e-6,
    )


def baseline_comparison(q_grid, d: int, lambda2: float) -> list[dict]:
    """ln of the expansion-route bound vs the homeomorphism-route baselines.

    The former grows polynomially in q (10 ln q); the baselines' logs are
    affine in q, which is the headline separation.  Uses C = 1 and
    alpha = eps = L = K = 1 in the expansion-route constant so the
    q-dependence is isolated.
    """
    rows = []
    for q in q_grid:
        g = eval_constant("Gamma", q=q, C=1.0, K=1, d=d, alpha=1.0, eps=1.0, L=1.0)
        osi = eval_constant("OS_bound_i", q=q, C=1.0, d=d, lambda2=lambda2)
        osii = eval_constant("OS_bound_ii", q=q, d=d, lambda2=lambda2)
        rows.append(
            {
                "q": q,
                "ln_gamma": g.ln,
                "ln_os_i": osi.ln,
                "ln_os_ii": osii.ln,
                "ratio_logs": osi.ln / g.ln,
            }
        )
    return rows
