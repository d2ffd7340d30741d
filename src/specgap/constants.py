"""Log-space evaluation of every named constant and the relations among them.

All values are returned as LogScalar because the interesting parameter
regimes (ball-growth rate alpha(d) = d^(-1e11 ln d), popularity scale
L = 24/alpha, and everything built on them) are far outside float range.
The paper's parameterization at degree d is defined here once: alpha(d) and
L(d) = 24/alpha(d) as the constants "alpha_d" and "L_d", eps as PAPER_EPS;
``expansion.ExpanParams.paper`` reads them.  The integer constant L0 is
also exact as ``L0_VALUE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logspace import LogScalar, as_logscalar

__all__ = [
    "CONSTANT_IDS",
    "eval_constant",
    "PAPER_EPS",
    "a_weight",
    "a_weight_ln",
    "partial_a_sum",
    "identity_checks",
    "IdentityReport",
    "baseline_comparison",
]

L0_VALUE = (7 * 10**8) // 15 + 1  # 46_666_667

CONSTANT_IDS = (
    "Gamma",
    "Pi",
    "Ltilde",
    "c",
    "chat",
    "cprime",
    "alpha_d",
    "eps_d",
    "L_d",
    "eta",
    "L0",
    "K",
    "a_i",
    "OS_bound_i",
    "OS_bound_ii",
)


PAPER_EPS = 0.2  # eps of the paper's parameterization


def alpha_growth_rate(d: int) -> LogScalar:
    """d^(-1e11 ln d): the typical ball-growth rate at degree d."""
    if d < 3:
        raise ValueError("need d >= 3")
    return LogScalar.from_ln(-1e11 * math.log(d) ** 2)


def a_weight(i: int) -> float:
    """The summable scale weights a_i = (6/pi^2) / i^2 (they sum to 1)."""
    if i < 1:
        raise ValueError("need i >= 1")
    return (6.0 / math.pi**2) / (i * i)


def a_weight_ln(i: int) -> float:
    if i < 1:
        raise ValueError("need i >= 1")
    return math.log(6.0 / math.pi**2) - 2.0 * math.log(i)


def partial_a_sum(n_terms: int) -> float:
    """sum_{i<=n_terms} a_i, accumulated small-to-large for accuracy."""
    idx = np.arange(n_terms, 0, -1, dtype=np.float64)
    return float((6.0 / math.pi**2) * np.sum(1.0 / (idx * idx)))


def _require(params: dict, *names):
    missing = [k for k in names if params.get(k) is None]
    if missing:
        raise ValueError(f"missing parameter(s): {', '.join(missing)}")


def eval_constant(
    name: str,
    *,
    q=None,
    C=None,
    K=None,
    d=None,
    alpha=None,
    eps=None,
    L=None,
    i=None,
    lambda2=None,
) -> LogScalar:
    """Evaluate one named constant in log space.

    alpha and L accept real numbers or LogScalar; the paper's values at
    degree d are ``eval_constant("alpha_d", d=d)`` and
    ``eval_constant("L_d", d=d)``.
    """
    p = dict(q=q, C=C, K=K, d=d, alpha=alpha, eps=eps, L=L, i=i, lambda2=lambda2)
    if name not in CONSTANT_IDS:
        raise ValueError(f"unknown constant id {name!r}; known: {CONSTANT_IDS}")
    if alpha is not None:
        alpha = as_logscalar(alpha)
    if L is not None:
        L = as_logscalar(L)

    if name == "eps_d":
        return LogScalar.from_float(PAPER_EPS)
    if name == "L0":
        return LogScalar.from_float(float(L0_VALUE))
    if name == "a_i":
        _require(p, "i")
        return LogScalar.from_ln(a_weight_ln(i))
    if name == "alpha_d":
        _require(p, "d")
        return alpha_growth_rate(d)
    if name == "L_d":
        _require(p, "d")
        return LogScalar.from_float(24.0) / alpha_growth_rate(d)
    if name == "eta":
        _require(p, "d")
        ln = -(2 * math.log(12.0) + 3.0 + (2 * L0_VALUE + 2) * math.log(d - 1.0))
        return LogScalar.from_ln(ln)
    if name == "K":
        _require(p, "d")
        lead = (d - 2.1 * math.sqrt(d - 1.0)) / 2.0
        if lead <= 0:
            raise ValueError(f"K is positive only when d > 2.1 sqrt(d-1); d={d}")
        base = 1.5 - 1.05 * math.sqrt(d - 1.0) / d
        ln = math.log(lead) + (L0_VALUE - 1) * math.log(base)
        return LogScalar.from_ln(ln)
    if name == "Gamma":
        _require(p, "q", "C", "K", "d", "alpha", "eps", "L")
        ln = (
            115 * math.log(2.0)
            + 10 * math.log(q)
            + 2 * math.log(C)
            + 3 * math.log(K)
            + 25 * math.log(d)
            + 8 * L.ln
            - 14 * alpha.ln
            - 18 * math.log(eps)
        )
        return LogScalar.from_ln(ln)
    if name == "Pi":
        _require(p, "q", "C", "d", "alpha", "eps", "L")
        ln = (
            113 * math.log(2.0)
            + 10 * math.log(q)
            + 2 * math.log(C)
            + 24 * math.log(d)
            + 8 * L.ln
            - 14 * alpha.ln
            - 18 * math.log(eps)
        )
        return LogScalar.from_ln(ln)
    if name == "Ltilde":
        _require(p, "d", "alpha", "eps", "L")
        ln = math.log(2.0) + 8 * (
            math.log(20.0 * d) + L.ln - alpha.ln - math.log(eps)
        )
        return LogScalar.from_ln(ln)
    if name == "c":
        _require(p, "d", "alpha")
        return LogScalar.from_ln(
            2 * alpha.ln - math.log(48.0 * d * (d - 1.0))
        )
    if name == "chat":
        _require(p, "q", "C", "d", "alpha", "eps", "L")
        lt = eval_constant("Ltilde", d=d, alpha=alpha, eps=eps, L=L)
        ln = (
            3 * alpha.ln
            - 15 * math.log(2.0)
            - 3 * math.log(d)
            - math.log(C)
            - lt.ln / q
        )
        return LogScalar.from_ln(ln)
    if name == "cprime":
        _require(p, "q", "C", "d", "alpha", "eps", "L")
        ch = eval_constant("chat", q=q, C=C, d=d, alpha=alpha, eps=eps, L=L)
        ln = 2 * ch.ln + 10 * (math.log(eps) - math.log(10.0 * q * d))
        return LogScalar.from_ln(ln)
    if name == "OS_bound_i":
        _require(p, "q", "C", "d", "lambda2")
        gap = d - lambda2
        if gap <= 0:
            raise ValueError("need lambda2 < d")
        ln = (
            (3616 * q + 450) * math.log(2.0)
            + (384 * q + 104) * math.log(q)
            + (129 * q + 4) * math.log(C)
            + 8 * (math.log(d) - math.log(gap))
        )
        return LogScalar.from_ln(ln)
    if name == "OS_bound_ii":
        _require(p, "q", "d", "lambda2")
        gap = d - lambda2
        if gap <= 0:
            raise ValueError("need lambda2 < d")
        ln = (
            64 * math.log(q)
            + (576 * q + 234) * math.log(2.0)
            + 8 * (math.log(d) - math.log(gap))
        )
        return LogScalar.from_ln(ln)
    raise AssertionError("unreachable")


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

    def summary(self) -> str:
        eq = "holds" if self.equality_holds else "FAILS"
        return (
            f"4/c' = Pi {eq} (max rel. ln-deviation "
            f"{self.max_equality_deviation:.3e}); 4/c' <= Pi "
            f"{'holds' if self.upper_bound_holds else 'FAILS'}; "
            f"K >= 3500 {'holds' if self.k_above_3500 else 'FAILS'}; "
            f"sum a_i = {self.a_partial_sum:.9f}"
        )


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
