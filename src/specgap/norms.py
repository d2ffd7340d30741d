"""Composable 1-unconditional norms and their cotype-type constants.

The norm family is a small expression tree: Lq(q) for q in [1, inf] and
BlockNorm composing an outer norm over the values of inner norms on
consecutive blocks of positive width.  Every member satisfies
||y|| = || |y| || and is monotone on the positive cone, which the rest of
the package leans on (binary encodings compare coordinatewise).

Every norm is evaluated by one private kernel, ``_pow_kernel``, over axis 0
of a coordinate-major (k, ...) array that the caller lets it overwrite.  Lq
takes |a| in place, raises it to the q-th power by squaring in place (the
products of ``_powers``, in the same order) and adds the k slabs in
coordinate order; BlockNorm writes each block's inner value into one
(blocks, ...) array and hands that to the outer kernel.  So every numpy pass
runs over whole contiguous slabs, where a row-major (..., k) layout makes
each reduction run over k = 2 to 6 entries.  ``eval_many`` and ``eval_pow``
are adapters: one coordinate-major copy of their rows, then the kernel;
``poincare`` calls the kernel on buffers of its own.  On one core of a
2-vCPU Xeon, lift_l1(Lq(4), 3, 2).eval_pow on (32768, 6) rows takes 0.62 to
0.68 ms, against 1.57 to 1.60 ms by row-major evaluation.

Rademacher expectations are exact full enumerations up to the stated
budgets, past which they refuse.  The restricted-cotype check and constant
read one table over every subfamily bitmask A of m <= RESTRICTED_EXACT_LIMIT
vectors:
E[A] = E_r ||sum_{i in A} r_i x_i||^q and R[A] = sum_{i in A} ||x_i||^q,
built one subset size at a time, (3^m - 1) / 2 norm evaluations in all.
Families must be nonempty with finite entries.  Every constant is
q-homogeneous, so each is evaluated where no q-th power leaves the double
range: the whole-family constants as power means of norm values divided by
the largest, and the table with each subfamily divided by a power of two
near its largest entry.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UncondNorm",
    "Lq",
    "BlockNorm",
    "lift_l1",
    "cotype_constant_exact",
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
    """Base class: a 1-unconditional norm on R^dim (dim may be None = any);
    a subclass supplies ``_pow_kernel``."""

    dim: int | None = None

    def _pow_kernel(self, a: np.ndarray, p: float) -> np.ndarray:
        """||a[:, i]||^p for every index i of a.shape[1:], where a is a
        C-contiguous float array of shape (k, ...) with at least one axis
        after the first; a may be overwritten, and the result may be a view
        of it."""
        raise NotImplementedError

    def eval_many(self, ys: np.ndarray) -> np.ndarray:
        """||y|| for each row, the last axis of ys."""
        return self.eval_pow(ys, 1.0)

    def eval_pow(self, ys: np.ndarray, p: float) -> np.ndarray:
        """||y||^p for each row, the last axis of ys: one coordinate-major
        copy, then the kernel.  Lq takes it from the power sum in one pow
        pass, none at all when p equals its q."""
        ys = np.asarray(ys, dtype=float)
        a = np.array(np.moveaxis(ys, -1, 0), order="C")  # a copy, which the kernel overwrites
        if ys.ndim == 1:
            return self._pow_kernel(a[:, None], p)[0]
        return self._pow_kernel(a, p)

    def __call__(self, y) -> float:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.dim is not None and y.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {y.shape[1]}")
        return float(self.eval_many(y)[0])


def _check_width(nm: UncondNorm, width: int) -> None:
    """ValueError naming both widths unless width is nm.dim (or dim is None)."""
    if nm.dim is not None and width != nm.dim:
        raise ValueError(f"{type(nm).__name__} of dimension {nm.dim} got vectors of width {width}")


@dataclass(frozen=True)
class Lq(UncondNorm):
    """The q-norm, q in [1, inf]; dim=None accepts any dimension, else dim is
    a positive integer.  eval_pow at p = q is the power sum itself, and at
    any other p one power of it."""

    q: float
    dim: int | None = None

    def __post_init__(self):
        if not (self.q >= 1):
            raise ValueError("q must be >= 1 (math.inf for the sup norm)")
        if self.dim is not None:
            object.__setattr__(self, "dim", _positive_dim(self.dim, "Lq dim"))

    def _pow_kernel(self, a, p):
        """|a| in place, then the k slabs of a summed in coordinate order:
        a^q in place at p = q, the entries themselves (or their maximum) at
        q = 1 (q = inf) before one power p, and ``_lq_norms`` at any other
        (q, p).  One np.errstate covers the whole call."""
        _check_width(self, a.shape[0])
        if not len(a):
            return np.zeros(a.shape[1:])  # the norm on R^0
        q = self.q
        with np.errstate(over="ignore", under="ignore"):
            # an even power by squaring squares first, and (-t)^2 = t^2 exactly
            if not (p == q and q % 2 == 0 and q <= _SQUARING_MAX):
                np.abs(a, out=a)
            if p == q and not math.isinf(q):
                return _slab_sums(_raised(a, q, overwrite=True))
            if q != 1 and not math.isinf(q):
                return _lq_norms(a, q, p)
            out = _slab_sums(a) if q == 1 else a.max(axis=0)
            if p != 1:
                out **= p
            return out


def _positive_dim(dim, what: str) -> int:
    """dim as an int; ValueError naming it unless it is a positive integer."""
    k = operator.index(dim)
    if k < 1:
        raise ValueError(f"{what} must be a positive integer, got {dim!r}")
    return k


_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def _slab_sums(a: np.ndarray) -> np.ndarray:
    """a[0] + a[1] + ... over axis 0, added in that order into a[0], which
    is returned: one in-place pass per coordinate over contiguous slabs,
    where numpy's reduction over a short axis is several times slower."""
    out = a[0]
    for slab in a[1:]:
        out += slab
    return out


# Integer exponents up to this go by repeated squaring; its relative error
# is at most about q ulps, which is the conditioning of a^q itself.
_SQUARING_MAX = 64


def _powers(a: np.ndarray, q: float, overwrite: bool = False) -> np.ndarray:
    """a^q elementwise for a >= 0; over- and underflow give inf and 0
    without a warning.  The result is a new array in a's layout, or with
    overwrite=True a itself or a new array, a's values being then lost.

    An integer q <= _SQUARING_MAX goes by repeated squaring: numpy's pow has
    no fast path for exponents past 2, and one multiplication costs about a
    sixth of one pow.  Every other q is ``a**q``.
    """
    with np.errstate(over="ignore", under="ignore"):
        return _raised(a, q, overwrite)


def _raised(a: np.ndarray, q: float, overwrite: bool) -> np.ndarray:
    """``_powers`` without its np.errstate, for callers already inside one."""
    if not (float(q).is_integer() and 1 <= q <= _SQUARING_MAX):
        return np.power(a, q, out=a) if overwrite else a**q
    # sq runs through a^(2^i) and is squared in place once it is ours, so at
    # most two arrays are allocated (one with overwrite, none at a power of
    # two): fresh large arrays cost page faults that exceed the
    # multiplications themselves
    e, sq, out, ours = int(q), a, None, overwrite
    while True:
        if e & 1 and out is not None:
            out *= sq
        elif e & 1:  # take sq itself only if it is ours and not squared again
            out = sq if ours and e == 1 else sq.copy(order="K")
        e >>= 1
        if not e:
            return out
        sq = np.multiply(sq, sq, out=sq) if ours else sq * sq
        ours = True


def _power_sums(a: np.ndarray, q: float) -> np.ndarray:
    """sum_j a_j^q over axis 0 of a coordinate-major array a >= 0, as a new
    array, a being left as it is; the powers are those of ``_powers``.  This is
    ||a||_q^q itself, so it overflows or underflows only where that value
    leaves the double range, silently."""
    with np.errstate(over="ignore", under="ignore"):
        return _slab_sums(_raised(a, q, overwrite=False))


def _lq_norms(a: np.ndarray, q: float, p: float) -> np.ndarray:
    """||a||_q^p over axis 0 of a coordinate-major array a >= 0, for finite
    q != 1: the power sum s, then s^(p/q), one pow pass.  Over- and
    underflow of the p-th power are silent.

    A column whose power sum overflowed or fell below the smallest normal
    double is recomputed as m^p * ||a / m||_q^p with m its largest entry, so
    Lq(32)([1e10, 1]) is 1e10 and Lq(64)([1e-6, 0]) is 1e-6 rather than inf
    and 0.  Every other column pays only that range check.
    """
    with np.errstate(over="ignore", under="ignore"):
        s = _power_sums(a, q)
        bad = np.nonzero((s == math.inf) | (s < _SMALLEST_NORMAL))
        s **= p / q
        if bad[0].size:
            cols = a[(slice(None),) + bad]
            m = cols.max(axis=0)
            fix = (m > 0) & (m < math.inf)  # zero columns are exact; inf entries stay inf
            m = m[fix]
            s[tuple(i[fix] for i in bad)] = m**p * _power_sums(cols[:, fix] / m, q) ** (p / q)
    return s


@dataclass(frozen=True)
class BlockNorm(UncondNorm):
    """outer norm of the vector of inner-norm values on consecutive blocks."""

    outer: UncondNorm
    inner: tuple  # of (norm, block_dim) with norm.dim compatible

    def __post_init__(self):
        if not self.inner:
            raise ValueError("BlockNorm needs at least one block")
        inner = tuple((nm, _positive_dim(bd, "block dimension")) for nm, bd in self.inner)
        for nm, bd in inner:
            if nm.dim is not None and nm.dim != bd:
                raise ValueError("inner norm dimension mismatch")
        object.__setattr__(self, "inner", inner)
        if self.outer.dim is not None and self.outer.dim != len(self.inner):
            raise ValueError("outer norm dimension mismatch")

    @property
    def dim(self):
        return sum(bd for _, bd in self.inner)

    def _pow_kernel(self, a, p):
        """Each block's inner value into one (blocks, ...) array, then the
        outer kernel on it; the width is checked first, as a whole."""
        _check_width(self, a.shape[0])
        vals = np.empty((len(self.inner),) + a.shape[1:])
        start = 0
        for i, (nm, bd) in enumerate(self.inner):
            vals[i] = nm._pow_kernel(a[start : start + bd], 1.0)
            start += bd
        return self.outer._pow_kernel(vals, p)


def lift_l1(base: UncondNorm, k: int, m: int) -> BlockNorm:
    """The lifted norm on R^(k*m): base norm of the blockwise l1 masses."""
    return BlockNorm(outer=base, inner=tuple((Lq(1.0, m), m) for _ in range(k)))


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

    Exact over all 2^m sign patterns, of which the 2^(m-1) with r_m = +1
    give the same mean; m <= COTYPE_EXACT_LIMIT.  The raw value may fall
    below 1; cap at 1 when using it as a certificate.
    """
    x = _as_matrix(vectors)
    m = x.shape[0]
    if m > COTYPE_EXACT_LIMIT:
        raise ValueError(
            f"exact sign enumeration is limited to m <= {COTYPE_EXACT_LIMIT} "
            f"(got m={m}); there is no sampled estimate, since a Monte Carlo mean "
            "of the ratio bounds the constant on neither side"
        )
    if not q >= 2:
        raise ValueError("cotype exponent q must be >= 2")
    # norms are even: the last vector keeps sign +1 and half the rows suffice
    return _moment_ratio(nm, x, sign_patterns(m - 1) @ x[:-1] + x[-1], q)


def _moment_ratio(nm: UncondNorm, x: np.ndarray, sums: np.ndarray, q: float) -> float:
    """(sum_i ||x_i||^q / mean_j ||sums_j||^q)^(1/q), a ratio of power means."""
    rhs = _power_mean(nm.eval_many(x), q)
    if rhs == 0:
        raise ValueError("family of zero vectors has no cotype constant")
    return len(x) ** (1.0 / q) * rhs / _power_mean(nm.eval_many(sums), q)


def _power_mean(v: np.ndarray, q: float) -> float:
    """(mean_j v_j^q)^(1/q) for v >= 0.  The powers are taken after dividing
    by max v, so none leaves the double range at any magnitude or q: a plain
    v^q overflows at v = 1e200, q = 2."""
    top = float(v.max())
    if top == 0:
        return 0.0
    with np.errstate(under="ignore"):
        return top * float(np.mean((v / top) ** q)) ** (1.0 / q)


def _subfamily_moments(nm: UncondNorm, x: np.ndarray, q: float):
    """The (E, R) table of the module docstring by subfamily bitmask A, each
    subfamily divided by 2^e[A], the power of two just above its largest
    |entry|: returns (E[A] / 2^(q e[A]), R[A] / 2^(q e[A]), e).  That division
    is exact short of subnormal entries, and it keeps the q-th powers in the
    double range whatever the magnitude of the family, and of each subfamily
    within it; a q so large that they still leave it raises OverflowError.
    Norms are even, so the last member of A keeps sign +1 and half the signs
    suffice.
    """
    m, k = x.shape
    if m > RESTRICTED_EXACT_LIMIT:
        raise ValueError(f"exact restricted cotype scan needs m <= {RESTRICTED_EXACT_LIMIT}")
    if not q >= 2:
        raise ValueError("cotype exponent q must be >= 2")
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1  # bits[A, i] = [i in A]
    top = np.abs(x).max(axis=1)
    own_e = np.frexp(top)[1]  # 2^(e-1) <= top < 2^e
    own_e[top == 0] = own_e[top > 0].min(initial=0)  # a zero vector sets no scale
    e = np.where(bits, own_e, own_e.min()).max(axis=1)
    E, sizes = np.zeros(1 << m), bits.sum(axis=1)
    with np.errstate(under="ignore"):
        for s in range(1, m + 1):
            of_size = np.flatnonzero(sizes == s)
            members = np.nonzero(bits[of_size])[1].reshape(-1, s)
            signs = sign_patterns(s - 1)
            step = max(1, _MOMENT_BLOCK // (len(signs) * k))
            for lo in range(0, len(of_size), step):
                masks = of_size[lo : lo + step]
                xb = np.ldexp(x[members[lo : lo + step]], -e[masks, None, None])
                sums = (signs @ xb[:, :-1] + xb[:, -1:]).reshape(-1, k)
                E[masks] = nm.eval_pow(sums, q).reshape(len(masks), -1).mean(axis=1)
        own = nm.eval_pow(np.ldexp(x, -own_e[:, None]), q)  # ||x_i / 2^own_e[i]||^q
        R = np.where(bits, own * np.exp2(q * np.minimum(own_e - e[:, None], 0)), 0.0).sum(axis=1)
    live = bits @ (top > 0) > 0
    if not (np.isfinite(E).all() and (E[live] > 0).all() and (R[live] > 0).all()):
        raise OverflowError(
            f"at q = {q} some subfamily's q-th moments leave the double range even "
            "after scaling it by a power of two"
        )
    return E, R, e


def _times_power_of_two(value: float, t: float) -> float:
    """value * 2^t for a possibly fractional t; OverflowError when a nonzero
    result overflows or underflows to zero."""
    whole = math.floor(t)
    try:
        out = math.ldexp(value * 2.0 ** (t - whole), whole)
    except OverflowError:
        out = math.inf
    if value != 0 and out in (0.0, math.inf):
        raise OverflowError(f"the slack {value!r} * 2^{t:g} lies outside the double range")
    return out


def restricted_cotype_check(nm: UncondNorm, vectors, q: float, C: float) -> dict:
    """Cotype inequality across every nonempty subfamily at the given C.

    Exact (all subsets x all signs); refuses more than
    RESTRICTED_EXACT_LIMIT vectors.  A FAIL carries the first failing
    subset in bitmask order and its slack; a pass carries the least slack.
    A slack outside the double range raises OverflowError.
    """
    x = _as_matrix(vectors)
    if not C >= 1:
        raise ValueError("C must be >= 1")
    E, R, e = (a[1:] for a in _subfamily_moments(nm, x, q))  # nonempty masks in order
    rhs = C ** (-q) * R
    slack = E - rhs  # slack of subfamily A, divided by 2^(q e[A])
    bad = np.flatnonzero(~(E >= rhs * (1 - 1e-12)))
    if bad.size:
        i = int(bad[0])
        witness = tuple(j for j in range(x.shape[0]) if (i + 1) >> j & 1)
        return {
            "ok": False, "exact": True, "witness": witness,
            "slack": _times_power_of_two(float(slack[i]), q * e[i]),
        }
    # the least true slack: negative ones first, then zero, then positive,
    # each ordered by the base-2 logarithm of its size
    sign = np.sign(slack)
    with np.errstate(divide="ignore"):
        size = np.log2(np.abs(slack)) + q * e
    i = int(np.lexsort((sign * np.where(sign == 0, 0.0, size), sign))[0])
    return {
        "ok": True, "exact": True, "witness": None,
        "slack": _times_power_of_two(float(slack[i]), q * e[i]),
    }


def restricted_cotype_constant(nm: UncondNorm, vectors, q: float) -> float:
    """Best C valid across all subfamilies (exact; m <= RESTRICTED_EXACT_LIMIT).

    Subfamilies of zero vectors constrain nothing and are skipped; a family
    of zero vectors only is refused.
    """
    E, R, _ = _subfamily_moments(nm, _as_matrix(vectors), q)  # R / E is scale-free
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
    index sets rather than drop the precondition.  q >= 2 and C >= 1 are
    checked in both modes.
    """
    if not q >= 2:
        raise ValueError("cotype exponent q must be >= 2")
    if not C >= 1:
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
    lhs = nm(Lq(q)._pow_kernel(x.copy(), 1.0))  # range-safe coordinatewise q-norms
    rhs = len(x) ** (1.0 / q) * _power_mean(nm.eval_many(x), q)
    if lhs == 0:
        raise ValueError("family of zero vectors has no concavity constant")
    return max(rhs / lhs, 1.0)
