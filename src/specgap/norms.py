"""Composable 1-unconditional norms and their cotype-type constants.

The norm family is a small expression tree: Lq(q) for q in [1, inf],
WeightedLq with positive weights, and BlockNorm composing an outer norm over
the values of inner norms on consecutive blocks.  Every member satisfies
||y|| = || |y| || and is monotone on the positive cone, which the rest of
the package leans on (binary encodings compare coordinatewise).

Rademacher expectations are exact full enumerations up to the stated
budgets; the Monte Carlo fallbacks are flagged estimates and are never used
by the acceptance suite.  The restricted-cotype check and constant read one
table over every subfamily bitmask A of m <= RESTRICTED_EXACT_LIMIT vectors:
E[A] = E_r ||sum_{i in A} r_i x_i||^q and R[A] = sum_{i in A} ||x_i||^q,
built one subset size at a time, (3^m - 1) / 2 norm evaluations in all.
Families must be nonempty with finite entries.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .rand import as_rng

__all__ = [
    "UncondNorm",
    "Lq",
    "WeightedLq",
    "BlockNorm",
    "lift_l1",
    "norm_to_json",
    "norm_from_json",
    "sign_patterns",
    "cotype_constant_exact",
    "cotype_constant_mc",
    "restricted_cotype_check",
    "restricted_cotype_constant",
    "OverlapFamily",
    "almost_disjoint_lower_bound_check",
    "q_concavity_constant",
    "COTYPE_EXACT_LIMIT",
    "RESTRICTED_EXACT_LIMIT",
]

COTYPE_EXACT_LIMIT = 20
RESTRICTED_EXACT_LIMIT = 16
_MOMENT_BLOCK = 1 << 22  # sum-vector entries per eval_pow call in _subfamily_moments


class UncondNorm:
    """Base class: a 1-unconditional norm on R^dim (dim may be None = any)."""

    dim: int | None = None

    def eval_many(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_pow(self, ys: np.ndarray, p: float) -> np.ndarray:
        """||y||^p for each row; Lq skips the root when p equals its q."""
        return self.eval_many(ys) ** p

    def __call__(self, y) -> float:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.dim is not None and y.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {y.shape[1]}")
        return float(self.eval_many(y)[0])


@dataclass(frozen=True)
class Lq(UncondNorm):
    """The q-norm, q in [1, inf]; dim=None accepts any dimension."""

    q: float
    dim: int | None = None

    def __post_init__(self):
        if not (self.q >= 1):
            raise ValueError("q must be >= 1 (math.inf for the sup norm)")

    def eval_many(self, ys):
        return _lq_norms(np.abs(np.asarray(ys, dtype=float)), self.q)

    def eval_pow(self, ys, p):
        if p == self.q and not math.isinf(p):
            return _power_sums(np.abs(np.asarray(ys, dtype=float)), p)
        return super().eval_pow(ys, p)


@dataclass(frozen=True)
class WeightedLq(UncondNorm):
    """q-norm after positive coordinate weights: ||(w_j y_j)_j||_q."""

    q: float
    weights: tuple

    def __post_init__(self):
        if not (self.q >= 1):
            raise ValueError("q must be >= 1")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def dim(self):
        return len(self.weights)

    def eval_many(self, ys):
        return _lq_norms(self._weighted(ys), self.q)

    def eval_pow(self, ys, p):
        if p == self.q and not math.isinf(p):
            return _power_sums(self._weighted(ys), p)
        return super().eval_pow(ys, p)

    def _weighted(self, ys):
        return np.abs(np.asarray(ys, dtype=float)) * np.asarray(self.weights)


_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis.  A product with a ones vector: numpy's
    reduction over a short last axis is about 15x slower at widths 2 to 4."""
    return a @ _ones(a.shape[-1])


@functools.lru_cache(maxsize=64)
def _ones(k: int) -> np.ndarray:
    """A read-only ones vector, shared between calls: the Rademacher
    enumerations make thousands of evaluations of a few rows each, and a
    fresh allocation per call made them measurably slower."""
    out = np.ones(k)
    out.flags.writeable = False
    return out


def _power_sums(a: np.ndarray, q: float) -> np.ndarray:
    """sum_j a_j^q over the last axis; this is ||a||_q^q itself, so it
    overflows or underflows only where that value leaves the double range."""
    with np.errstate(over="ignore", under="ignore"):
        return _row_sums(a**q)


def _lq_norms(a: np.ndarray, q: float) -> np.ndarray:
    """||a||_q over the last axis of a >= 0.

    A row whose power sum overflowed or fell below the smallest normal double
    is recomputed as m * ||a / m||_q with m its largest entry, so
    Lq(32)([1e10, 1]) is 1e10 and Lq(64)([1e-6, 0]) is 1e-6 rather than inf
    and 0.  Every other row pays only that range check.
    """
    if q == 1:
        return _row_sums(a)
    if math.isinf(q):
        return a.max(axis=-1)
    if a.ndim == 1:
        return _lq_norms(a[None], q)[0]
    s = _power_sums(a, q)
    out = s ** (1.0 / q)
    bad = np.nonzero((s == math.inf) | (s < _SMALLEST_NORMAL))
    if bad[0].size:
        rows = a[bad]
        m = rows.max(axis=-1)
        fix = (m > 0) & (m < math.inf)  # zero rows are exact; inf entries stay inf
        m = m[fix, None]
        out[tuple(i[fix] for i in bad)] = m[:, 0] * _power_sums(rows[fix] / m, q) ** (1.0 / q)
    return out


@dataclass(frozen=True)
class BlockNorm(UncondNorm):
    """outer norm of the vector of inner-norm values on consecutive blocks."""

    outer: UncondNorm
    inner: tuple  # of (norm, block_dim) with norm.dim compatible

    def __post_init__(self):
        for nm, bd in self.inner:
            if nm.dim is not None and nm.dim != bd:
                raise ValueError("inner norm dimension mismatch")
        if self.outer.dim is not None and self.outer.dim != len(self.inner):
            raise ValueError("outer norm dimension mismatch")

    @property
    def dim(self):
        return sum(bd for _, bd in self.inner)

    def eval_many(self, ys):
        return self.outer.eval_many(self._inner_values(ys))

    def eval_pow(self, ys, p):
        return self.outer.eval_pow(self._inner_values(ys), p)

    def _inner_values(self, ys):
        ys = np.asarray(ys, dtype=float)
        vals = np.empty(ys.shape[:-1] + (len(self.inner),))
        start = 0
        for i, (nm, bd) in enumerate(self.inner):
            vals[..., i] = nm.eval_many(ys[..., start : start + bd])
            start += bd
        if start != ys.shape[-1]:
            raise ValueError(f"expected dimension {start}, got {ys.shape[-1]}")
        return vals


def lift_l1(base: UncondNorm, k: int, m: int) -> BlockNorm:
    """The lifted norm on R^(k*m): base norm of the blockwise l1 masses."""
    return BlockNorm(outer=base, inner=tuple((Lq(1.0, m), m) for _ in range(k)))


# -- JSON expression trees -------------------------------------------------------


def norm_to_json(nm: UncondNorm) -> dict:
    if isinstance(nm, WeightedLq):
        return {"type": "weighted_lq", "q": _q_out(nm.q), "weights": list(nm.weights)}
    if isinstance(nm, Lq):
        return {"type": "lq", "q": _q_out(nm.q), "dim": nm.dim}
    if isinstance(nm, BlockNorm):
        return {
            "type": "block",
            "outer": norm_to_json(nm.outer),
            "inner": [{"norm": norm_to_json(x), "dim": bd} for x, bd in nm.inner],
        }
    raise TypeError(f"cannot serialize {type(nm).__name__}")


def norm_from_json(obj) -> UncondNorm:
    if isinstance(obj, str):
        obj = json.loads(obj)
    t = obj.get("type")
    if t == "lq":
        return Lq(_q_in(obj["q"]), obj.get("dim"))
    if t == "weighted_lq":
        return WeightedLq(_q_in(obj["q"]), tuple(obj["weights"]))
    if t == "block":
        inner = tuple(
            (norm_from_json(x["norm"]), int(x["dim"])) for x in obj["inner"]
        )
        return BlockNorm(norm_from_json(obj["outer"]), inner)
    raise ValueError(f"unknown norm type {t!r}")


def _q_out(q):
    return "inf" if math.isinf(q) else q


def _q_in(q):
    return math.inf if q in ("inf", "Infinity", None) else float(q)


# -- Rademacher machinery --------------------------------------------------------


def sign_patterns(m: int) -> np.ndarray:
    """All 2^m sign rows in {-1, +1}^m, in bit order."""
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    return (2 * bits - 1).astype(float)


def _as_matrix(vectors) -> np.ndarray:
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2:
        raise ValueError("vectors must form a 2-D array (m, k)")
    if x.shape[0] == 0:
        raise ValueError("the family is empty: need at least one vector")
    if not np.isfinite(x).all():
        raise ValueError("vector entries must be finite")
    return x


def cotype_constant_exact(nm: UncondNorm, vectors, q: float) -> float:
    """Best constant C with E||sum r_i x_i||^q >= C^-q sum ||x_i||^q.

    Exact over all 2^m sign patterns; m <= COTYPE_EXACT_LIMIT.  The raw
    value may fall below 1; cap at 1 when using it as a certificate.
    """
    x = _as_matrix(vectors)
    m = x.shape[0]
    if m > COTYPE_EXACT_LIMIT:
        raise ValueError(
            f"exact sign enumeration is limited to m <= {COTYPE_EXACT_LIMIT} "
            f"(got m={m}); use cotype_constant_mc for a flagged estimate"
        )
    if q < 2:
        raise ValueError("cotype exponent q must be >= 2")
    sums = sign_patterns(m) @ x
    expectation = float(np.mean(nm.eval_many(sums) ** q))
    rhs = float(np.sum(nm.eval_many(x) ** q))
    if rhs == 0:
        raise ValueError("family of zero vectors has no cotype constant")
    return (rhs / expectation) ** (1.0 / q)


def cotype_constant_mc(nm: UncondNorm, vectors, q: float, trials: int, rng) -> dict:
    """Monte Carlo estimate of the cotype constant; flagged, never exact."""
    x = _as_matrix(vectors)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = as_rng(rng)
    signs = rng.choice((-1.0, 1.0), size=(trials, x.shape[0]))
    vals = nm.eval_many(signs @ x) ** q
    rhs = float(np.sum(nm.eval_many(x) ** q))
    est = (rhs / float(np.mean(vals))) ** (1.0 / q)
    return {"estimate": est, "exact": False, "trials": trials}


def _subfamily_moments(nm: UncondNorm, x: np.ndarray, q: float):
    """The (E, R) table of the module docstring, by subfamily bitmask A.  Norms
    are even, so the last member of A keeps sign +1 and half the signs suffice."""
    m, k = x.shape
    if m > RESTRICTED_EXACT_LIMIT:
        raise ValueError(f"exact restricted cotype scan needs m <= {RESTRICTED_EXACT_LIMIT}")
    if q < 2:
        raise ValueError("cotype exponent q must be >= 2")
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1  # bits[A, i] = [i in A]
    E, sizes = np.zeros(1 << m), bits.sum(axis=1)
    for s in range(1, m + 1):
        of_size = np.flatnonzero(sizes == s)
        members = np.nonzero(bits[of_size])[1].reshape(-1, s)
        signs = sign_patterns(s - 1)
        step = max(1, _MOMENT_BLOCK // (len(signs) * k))
        for lo in range(0, len(of_size), step):
            blk = members[lo : lo + step]
            sums = (signs @ x[blk[:, :-1]] + x[blk[:, -1:]]).reshape(-1, k)
            E[of_size[lo : lo + step]] = nm.eval_pow(sums, q).reshape(len(blk), -1).mean(axis=1)
    return E, np.where(bits, nm.eval_pow(x, q), 0.0).sum(axis=1)


def restricted_cotype_check(nm: UncondNorm, vectors, q: float, C: float) -> dict:
    """Cotype inequality across every nonempty subfamily at the given C.

    Exact (all subsets x all signs); refuses more than
    RESTRICTED_EXACT_LIMIT vectors.  A FAIL carries the first failing
    subset in bitmask order and its slack; a pass carries the least slack.
    """
    x = _as_matrix(vectors)
    if C < 1:
        raise ValueError("C must be >= 1")
    E, R = _subfamily_moments(nm, x, q)
    rhs = C ** (-q) * R[1:]
    slack = E[1:] - rhs
    bad = np.flatnonzero(~(E[1:] >= rhs * (1 - 1e-12)))  # nonempty masks in order
    if bad.size:
        witness = tuple(i for i in range(x.shape[0]) if (int(bad[0]) + 1) >> i & 1)
        return {"ok": False, "exact": True, "witness": witness, "slack": float(slack[bad[0]])}
    return {"ok": True, "exact": True, "witness": None, "slack": float(slack.min())}


def restricted_cotype_constant(nm: UncondNorm, vectors, q: float) -> float:
    """Best C valid across all subfamilies (exact; m <= RESTRICTED_EXACT_LIMIT).

    Subfamilies of zero vectors constrain nothing and are skipped; a family
    of zero vectors only is refused.
    """
    E, R = _subfamily_moments(nm, _as_matrix(vectors), q)
    live = R > 0
    if not live.any():
        raise ValueError("family of zero vectors has no cotype constant")
    return float(np.max(R[live] / E[live])) ** (1.0 / q)


# -- almost-disjoint support families ---------------------------------------------


@dataclass(frozen=True)
class OverlapFamily:
    """A base vector x >= 0 with index sets J_i whose overlap is bounded:
    every coordinate lies in at most delta * m of the sets."""

    x: tuple
    index_sets: tuple  # of frozensets
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(
            self, "index_sets", tuple(frozenset(s) for s in self.index_sets)
        )
        if any(v < 0 for v in self.x):
            raise ValueError("base vector must be coordinatewise nonnegative")
        if not (0 < self.delta <= 1):
            raise ValueError("delta must lie in (0, 1]")
        k = len(self.x)
        m = len(self.index_sets)
        if m == 0:
            raise ValueError("need at least one index set")
        for s in self.index_sets:
            if any(not (0 <= j < k) for j in s):
                raise ValueError("index set out of range")
        for j in range(k):
            cover = sum(1 for s in self.index_sets if j in s)
            if cover > self.delta * m * (1 + 1e-12):
                raise ValueError(
                    f"coordinate {j} lies in {cover} sets, above delta*m = "
                    f"{self.delta * m:.3f}"
                )

    def projections(self) -> np.ndarray:
        k = len(self.x)
        out = np.zeros((len(self.index_sets), k))
        for i, s in enumerate(self.index_sets):
            for j in s:
                out[i, j] = self.x[j]
        return out


def almost_disjoint_lower_bound_check(
    nm: UncondNorm, fam: OverlapFamily, q: float, C: float, verify_cotype: bool = True
) -> dict:
    """||x||^q >= C^-q delta^-1 2^-(2q+5) for almost-disjoint support families.

    Preconditions are reported individually: every projection has norm >= 1,
    the overlap bound holds (checked at construction), and optionally the
    projection family has restricted cotype q with constant C.  That check
    is exact, so verify_cotype=True refuses more than RESTRICTED_EXACT_LIMIT
    index sets rather than drop the precondition.
    """
    if C < 1:
        raise ValueError("C must be >= 1")
    m = len(fam.index_sets)
    if verify_cotype and m > RESTRICTED_EXACT_LIMIT:
        raise ValueError(
            f"the restricted cotype precondition is checked exactly only for m <= "
            f"{RESTRICTED_EXACT_LIMIT} index sets (got m={m}); pass verify_cotype=False "
            "to report the bound without it"
        )
    projections = fam.projections()
    proj_norms = nm.eval_many(projections)
    preconditions = {
        "projections_at_least_one": bool(np.all(proj_norms >= 1 - 1e-12)),
        "overlap_ok": True,  # enforced by OverlapFamily
    }
    if verify_cotype:
        rc = restricted_cotype_check(nm, projections, q, C)
        preconditions["restricted_cotype_ok"] = rc["ok"]
    value = nm(np.asarray(fam.x)) ** q
    bound = (C ** (-q)) / fam.delta * 2.0 ** (-(2 * q + 5))
    return {
        "value_q": value,
        "bound": bound,
        "ok": value >= bound * (1 - 1e-12),
        "preconditions": preconditions,
        "delta": fam.delta,
        "m": m,
    }


# -- q-concavity -------------------------------------------------------------------


def q_concavity_constant(nm: UncondNorm, vectors, q: float) -> float:
    """Smallest M with ||(sum |x_i|^q)^(1/q)|| >= M^-1 (sum ||x_i||^q)^(1/q).

    q = inf is rejected; the coordinatewise power mean is computed exactly.
    """
    if math.isinf(q):
        raise ValueError("q-concavity needs finite q")
    if q < 1:
        raise ValueError("q must be >= 1")
    x = _as_matrix(vectors)
    mean_vec = (np.abs(x) ** q).sum(axis=0) ** (1.0 / q)
    lhs = nm(mean_vec)
    rhs = float(np.sum(nm.eval_many(x) ** q)) ** (1.0 / q)
    if lhs == 0:
        raise ValueError("family of zero vectors has no concavity constant")
    return max(rhs / lhs, 1.0)
