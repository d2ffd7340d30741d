"""Long-range expansion: checking, falsifying, fitting, sufficient conditions.

The property Expan(alpha, eps, L) of a d-regular graph has two halves:

* growth (part A): every BFS ball obeys
  |B(S, l)| >= min(3n/4, alpha (d-1)^l |S|);
* congestion (part B): whenever alpha (d-1)^(l-1) |S| <= 3n/4, the set
  T of edges seen by >= L (d-1-eps)^l vertices of S within radius l-1
  leaves at least one v in S seeing <= L (d-1-eps)^l edges of T.

alpha and L are LogScalar because the typical parameterization at degree d
(alpha = d^(-1e11 ln d), L = 24/alpha) is far outside float range; every
threshold comparison is done on logs.  Exact checks are exhaustive subset
scans; ``spectral`` owns their limit, n <= 24, and the one refusal past it.

Part A is decided in one place, ``_misses``: with t = ln(alpha (d-1)^l |S|),
a ball must cover 3n/4 (4 |B| >= 3n) where t >= ln(3n/4) and reach
ln |B| >= t elsewhere, ties passing.  The exhaustive scan applies it to the
(|S|, |B|) grid per radius of one 2^n ball-size table, stopping once every
single-vertex ball covers 3n/4; the sampled scan, which can only falsify,
applies it at the radii before its ball covers 3n/4.  Part B's precondition
reads the same t at l - 1.

Part B compares counts with one threshold, the ceiling of
``_threshold_ints``.  An edge with fewer seers than it (the vertices of the
whole graph within l - 1 of an endpoint) is in no S's T.  At any n,
``congestion_certificate`` reads the seers of every edge at every scale from
one all-sources sweep and passes where no edge reaches the ceiling: T is
then empty for every S, a sufficient condition that can prove part B but
never refute it.  At n <= 24 the exact scan drops the same edges, along with
scales whose ceiling exceeds n and subsets smaller than it, and decides a
scale left with no edge or no subset size without a mask block.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .constants import PAPER_EPS, eval_constant
from .graphs import RegularGraph, _ball_counts, _level_sets, bfs_distances
from .logspace import LogScalar, as_logscalar
from .rand import as_rng
from .spectral import _mask_vertices, _popcounts, _require_exact_size
from .spectral import cheeger_exact, eigen_summary, friedman_check

__all__ = [
    "ExpanParams",
    "ExpanVerdict",
    "growth_check_exact",
    "growth_check_sampled",
    "fit_growth_alpha",
    "congestion_check_exact",
    "congestion_certificate",
    "spectral_sufficient_check",
    "cheeger_growth_check",
]

_MASK_CHUNK = 1 << 13  # subsets per part-B numpy block; keeps its temporaries to a few MiB
_LN_GUARD = 1e-12  # treat log-threshold ties as satisfied


@dataclass(frozen=True)
class ExpanParams:
    """Parameters (alpha, eps, L) of the long-range expansion property."""

    alpha: LogScalar
    eps: float
    L: LogScalar

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_logscalar(self.alpha))
        object.__setattr__(self, "L", as_logscalar(self.L))
        if not (-math.inf < self.alpha.ln <= 0):
            raise ValueError("alpha must lie in (0, 1]")
        if not (0 < self.eps <= 1):
            raise ValueError("eps must lie in (0, 1]")
        if not 0 <= self.L.ln < math.inf:
            raise ValueError("L must be >= 1 and finite")

    @staticmethod
    def paper(d: int) -> "ExpanParams":
        """The typical random-regular-graph parameterization at degree d."""
        return ExpanParams(
            alpha=eval_constant("alpha_d", d=d), eps=PAPER_EPS, L=eval_constant("L_d", d=d)
        )


@dataclass(frozen=True)
class ExpanVerdict:
    part: str       # "A" | "B"
    mode: str       # "exact" | "sampled" | "sufficient"
    status: str     # "pass" | "fail" | "not_falsified" | "inconclusive"
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.status == "pass"


# -- part A: ball growth ---------------------------------------------------------


def _single_ball_masks(g: RegularGraph) -> np.ndarray:
    """single[l, v] = uint32 bitmask of B({v}, l) for l in 0..n (n <= 32).

    One per-source sweep from every vertex fits one word: the sources within
    l of v, the sweep's ball bits of v at level l, are B({v}, l); past the
    last level the balls stop growing.
    """
    single = np.zeros((g.n + 1, g.n), dtype=np.uint32)
    for level, _, _, balls in _level_sets(g, np.arange(g.n)):
        single[level:] = balls[:, 0]
    return single


def _ball_tables(g: RegularGraph):
    """Yield (l, sizes) for l = 1, 2, ..., where sizes[S] = |B(S, l)| as
    uint8 for every subset bitmask S.

    The tables stop before the first radius at which every single-vertex
    ball covers 3n/4: every nonempty ball then covers 3n/4 at that radius
    and all later ones, so it passes both part-A requirements and
    constrains no alpha.  Otherwise they run to l = n, by which balls
    saturate.
    """
    n = g.n
    single = _single_ball_masks(g)
    union = np.zeros(1 << n, dtype=np.uint32)
    for l in range(1, n + 1):
        if np.all(_covers(np.bitwise_count(single[l]), n)):
            return
        for v in range(n):  # doubling: the masks with top bit v extend those below it
            lo = 1 << v
            np.bitwise_or(union[:lo], single[l, v], out=union[lo : 2 * lo])
        yield l, np.bitwise_count(union)


def _covers(ball, n: int):
    """4 |B| >= 3n, on integers (uint8 ball tables keep 4 |B| <= 96 at n <= 24)."""
    return 4 * ball >= 3 * n


def _cap_ln(n: int) -> float:
    return math.log(0.75 * n)


def _growth_ln(alpha: LogScalar, d: int, l, size):
    """t = ln(alpha (d-1)^l |S|), broadcasting over l and |S|.  A scalar |S|
    takes ``math.log``, the form witnesses report; arrays take ``np.log``,
    which can differ from it by one ulp, far inside _LN_GUARD."""
    ln_size = math.log(size) if np.isscalar(size) else np.log(size)
    return alpha.ln + l * math.log(d - 1) + ln_size


def _misses(alpha: LogScalar, d: int, l, size, ball, n: int):
    """Whether |B(S, l)| = ``ball`` >= 1 misses min(3n/4, alpha (d-1)^l |S|)
    at |S| = ``size``; broadcasts over l, size and ball."""
    t = _growth_ln(alpha, d, l, size)
    return ~np.where(
        t >= _cap_ln(n), _covers(ball, n), np.log(ball, dtype=np.float64) >= t - _LN_GUARD
    )


def _required(alpha: LogScalar, d: int, l: int, size: int, n: int):
    """A witness's requirement: "3n/4" at the cap, else alpha (d-1)^l |S|."""
    t = _growth_ln(alpha, d, l, size)
    return "3n/4" if t >= _cap_ln(n) else math.exp(t)


def _growth_scan_exact(g: RegularGraph, alpha: LogScalar, min_size: int):
    """First part-A violation over every l in [1, n] and every subset with
    at least ``min_size`` vertices, or None.

    Violations are ordered by l, then |S|, then the subset bitmask; the
    first one is returned as (l, mask, ball_size, required).
    """
    n, d = g.n, g.d
    popc = _popcounts(n)
    grid = np.arange(n + 1)
    for l, sizes in _ball_tables(g):
        # need[s]: the least ball size meeting part A around s >= min_size
        # vertices (misses are a prefix of 1..n), 0 below min_size
        need = np.zeros(n + 1, dtype=np.uint8)
        need[min_size:] = 1 + np.count_nonzero(
            _misses(alpha, d, l, grid[min_size:, None], grid[1:], n), axis=1
        )
        bad = sizes < need[popc]
        if bad.any():
            size = int(popc[bad].min())
            mask = int(np.argmax(bad & (popc == size)))
            return l, mask, int(sizes[mask]), _required(alpha, d, l, size, n)
    return None


def _growth_scan(g: RegularGraph, subset, alpha: LogScalar):
    """First radius at which the ball of ``subset`` misses the part-A
    requirement, as (l, ball_size, required), or None.

    Only the radii before the ball covers 3n/4 are tested: ball sizes never
    shrink, so every later radius passes both the cap and the value
    requirement.
    """
    n, d = g.n, g.d
    dd = bfs_distances(g, subset)
    sizes = np.cumsum(np.bincount(dd[np.isfinite(dd)].astype(np.int64), minlength=n + 1))
    radii = np.arange(1, 1 + np.count_nonzero(~_covers(sizes[1:], n)))
    bad = np.flatnonzero(_misses(alpha, d, radii, len(subset), sizes[radii], n))
    if not bad.size:
        return None
    l = int(radii[bad[0]])
    return l, int(sizes[l]), _required(alpha, d, l, len(subset), n)


def growth_check_exact(g: RegularGraph, alpha) -> ExpanVerdict:
    """Exhaustive part-A check over every nonempty S and every l in [1, n].

    A failure carries the minimal witness: smallest l, then smallest |S|,
    then smallest subset bitmask.
    """
    alpha = as_logscalar(alpha)
    _require_exact_size(g, "growth_check_exact", "use growth_check_sampled")
    found = _growth_scan_exact(g, alpha, 1)
    if found is None:
        return ExpanVerdict(part="A", mode="exact", status="pass")
    l, mask, bsize, required = found
    return ExpanVerdict(
        part="A",
        mode="exact",
        status="fail",
        witness={
            "S": _mask_vertices(mask, g.n),
            "l": l,
            "ball_size": bsize,
            "required": required,
        },
    )


def fit_growth_alpha(g: RegularGraph) -> LogScalar:
    """Largest alpha for which growth_check_exact passes, capped at 1.

    Only pairs (S, l) whose ball stays below 3n/4 constrain alpha; the fit is
    the minimum of |B(S, l)| / ((d-1)^l |S|) over those pairs, so over each
    (l, |S|) only the smallest such ball counts.
    """
    _require_exact_size(g, "fit_growth_alpha", "use growth_check_sampled to test a guess")
    n, d = g.n, g.d
    popc = _popcounts(n)
    best = 0.0  # ln alpha bound; alpha <= 1 cap
    for l, sizes in _ball_tables(g):
        smallest = np.full(n + 1, n + 1, dtype=np.uint8)  # per |S|; n + 1 = none
        np.minimum.at(smallest, popc, np.where(_covers(sizes, n), n + 1, sizes))
        s = np.flatnonzero(smallest[1:] <= n) + 1  # skip the empty mask
        if s.size:
            bound = (
                np.log(smallest[s].astype(np.float64))
                - l * math.log(d - 1)
                - np.log(s.astype(np.float64))
            )
            best = min(best, float(bound.min()))
    return LogScalar.from_ln(best)


def _sample_subset(g: RegularGraph, rng) -> np.ndarray:
    """Witness-hunting mix: 25% singletons, 25% BFS balls, 50% random
    subsets; the vertices as a sorted int64 array without repeats."""
    n = g.n
    mode = rng.random()
    if mode < 0.25:
        return np.array([rng.integers(n)], dtype=np.int64)
    if mode < 0.5:
        v = int(rng.integers(n))
        radius = int(rng.integers(0, max(2, n // 3)))
        return np.flatnonzero(bfs_distances(g, [v]) <= radius)
    size = int(rng.integers(1, n + 1))
    return np.sort(rng.choice(n, size=size, replace=False))


def growth_check_sampled(g: RegularGraph, alpha, trials: int, rng) -> ExpanVerdict:
    """Sampled part-A falsifier.

    Any violation found is a definitive FAIL with a recheckable witness; no
    violation only means "not falsified", never "pass".  The radius scan for
    a sample stops once its ball covers 3n/4.  ``trials`` is an integer
    (``operator.index``).
    """
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    alpha = as_logscalar(alpha)
    rng = as_rng(rng)
    for _ in range(trials):
        subset = _sample_subset(g, rng)
        found = _growth_scan(g, subset, alpha)
        if found is not None:
            l, bsize, required = found
            return ExpanVerdict(
                part="A",
                mode="sampled",
                status="fail",
                witness={
                    "S": tuple(subset.tolist()),
                    "l": l,
                    "ball_size": bsize,
                    "required": required,
                },
            )
    return ExpanVerdict(
        part="A", mode="sampled", status="not_falsified", details={"trials": trials}
    )


# -- part B: popular-edge congestion ----------------------------------------------


def _precondition_holds(alpha: LogScalar, d: int, l: int, size, n: int):
    """Part B's precondition alpha (d-1)^(l-1) |S| <= 3n/4, compared on logs;
    broadcasts over |S|."""
    return _growth_ln(alpha, d, l - 1, size) <= _cap_ln(n) + _LN_GUARD


def _threshold_ints(params: ExpanParams, d: int, l: int, max_count: int):
    """(ceil, floor) integer versions of L (d-1-eps)^l, clamped by max_count.

    ceil: smallest count that reaches the threshold (None if unreachable);
    floor: largest count that stays at or below it.
    """
    thr_ln = params.L.ln + l * math.log(d - 1 - params.eps)
    if thr_ln > math.log(max_count) + _LN_GUARD:
        return None, max_count  # unreachable; everything passes the <= side
    thr = math.exp(thr_ln)
    ceil_thr = math.ceil(thr - 1e-9)
    floor_thr = math.floor(thr + 1e-9)
    return max(ceil_thr, 1), floor_thr


def _first_failing_mask(n: int, edge_masks, ceil_thr: int, floor_thr: int, max_s: int):
    """Smallest subset bitmask S with ceil_thr <= |S| <= max_s in which
    every vertex sees more than floor_thr edges of T, or None; edge e is in
    T when at least ceil_thr vertices of S lie in edge_masks[e]."""
    vertices = np.arange(n, dtype=np.uint32)
    # sees[e, v] = 1 when v sees e
    sees = ((edge_masks[:, None] >> vertices) & 1).astype(np.float32)
    for lo in range(0, 1 << n, _MASK_CHUNK):
        masks = np.arange(lo, min(lo + _MASK_CHUNK, 1 << n), dtype=np.uint32)
        popc = np.bitwise_count(masks)
        masks = masks[(popc >= ceil_thr) & (popc <= max_s)]
        popular = np.bitwise_count(masks[:, None] & edge_masks) >= ceil_thr
        nonempty = popular.any(axis=1)
        masks, popular = masks[nonempty], popular[nonempty]
        # counts[S, v] = |{e in T : v sees e}|, exact in float32 while m < 2^24
        counts = popular.astype(np.float32) @ sees
        in_s = ((masks[:, None] >> vertices) & 1).astype(bool)
        failing = np.flatnonzero(~np.any(in_s & (counts <= floor_thr), axis=1))
        if failing.size:
            return int(masks[failing[0]])
    return None


def congestion_check_exact(g: RegularGraph, params: ExpanParams) -> ExpanVerdict:
    """Part-B check over every (S, l) meeting the precondition, l <= n.

    Three prunings keep the scan honest but feasible, all read from the
    ceiling of ``_threshold_ints``: a scale whose threshold exceeds n cannot
    put any edge into T (pass for every S); subsets smaller than the
    threshold cannot either; and an edge seen by fewer vertices of the whole
    graph than the threshold is in no S's T, so it is dropped, and a scale
    left with no edge passes for every S without a mask block (the seers
    bound).  A scanned scale's ``checked`` counts the candidate subsets in
    its size window, each decided by a mask block or by the seers bound.  A
    failure carries the smallest failing subset bitmask at the smallest
    failing l.
    """
    _require_exact_size(
        g, "congestion_check_exact", "congestion_certificate gives a sufficient check at any n"
    )
    n, d = g.n, g.d
    edges = g.edges()
    single = _single_ball_masks(g)
    scales = []
    for l in range(1, n + 1):
        ceil_thr, floor_thr = _threshold_ints(params, d, l, max_count=max(n, len(edges)))
        if ceil_thr is None or ceil_thr > n:
            scales.append({"l": l, "mode": "empty-T", "checked": "all S"})
            continue
        # the precondition holds for |S| = 1..max_s at this l
        max_s = np.count_nonzero(_precondition_holds(params.alpha, d, l, np.arange(1, n + 1), n))
        if not max_s:
            scales.append({"l": l, "mode": "precondition-empty", "checked": "no S"})
            continue
        checked = sum(math.comb(n, s) for s in range(ceil_thr, max_s + 1))
        # vertices within l - 1 of either endpoint, kept for the edges that
        # enough vertices of V see: the others are in no T and count 0
        edge_masks = single[l - 1][edges[:, 0]] | single[l - 1][edges[:, 1]]
        edge_masks = edge_masks[np.bitwise_count(edge_masks) >= ceil_thr]
        if checked and edge_masks.size:
            mask = _first_failing_mask(n, edge_masks, ceil_thr, floor_thr, max_s)
            if mask is not None:
                return ExpanVerdict(
                    part="B",
                    mode="exact",
                    status="fail",
                    witness={"S": _mask_vertices(mask, n), "l": l},
                    details={"scales": tuple(scales)},
                )
        scales.append({"l": l, "mode": "scanned", "checked": checked})
    return ExpanVerdict(
        part="B", mode="exact", status="pass", details={"scales": tuple(scales)}
    )


def _seers_table(g: RegularGraph) -> np.ndarray:
    """seers[l - 1, e] = |B(u, l - 1) union B(w, l - 1)| for the edges e = uw
    of ``g.edges()`` and l = 1, ..., D + 1, D the largest eccentricity: at
    level l - 1 a source block's share is the popcount of u's ball bits OR w's.
    """
    u, w = g.edges().T
    return _ball_counts(g, lambda balls: np.bitwise_count(balls[u] | balls[w]).sum(axis=1))


def congestion_certificate(g: RegularGraph, params: ExpanParams) -> ExpanVerdict:
    """Part-B sufficiency at any n from the seers of every edge.

    S sees an edge no more often than V does, so at a scale l where no edge
    has as many seers as the ceiling of ``_threshold_ints``, T is empty for
    every S and part B holds there for every S and every alpha.  The seers
    stop growing at l = D + 1, D the largest eccentricity, and the threshold
    does not fall (d - 1 - eps >= 1), so the scales l <= D + 1 decide all
    others.  Status is "pass" when every one of them is empty, else
    "inconclusive": the rule proves part B but never refutes it.  ``details``
    holds L_B_ln = ln max_l max_e seers(e, l) / (d-1-eps)^l, the maximising
    ``l`` and ``eps``; the check passes at every L above L_B.

    One sweep costs O(D m n / 64) word operations, the OR of two gathered
    bit rows per edge per level, which a graph of long diameter pays at
    every level; no n x n array is built.
    """
    top = _seers_table(g).max(axis=1)
    scales = np.arange(1, len(top) + 1)
    ceilings = [_threshold_ints(params, g.d, l, max(g.n, g.num_edges()))[0] for l in scales]
    empty = all(c is None or c > seers for c, seers in zip(ceilings, top))
    ratio_ln = np.log(top) - scales * math.log(g.d - 1 - params.eps)
    best = int(np.argmax(ratio_ln))
    return ExpanVerdict(
        part="B",
        mode="sufficient",
        status="pass" if empty else "inconclusive",
        details={"L_B_ln": float(ratio_ln[best]), "l": best + 1, "eps": params.eps},
    )


def spectral_sufficient_check(g: RegularGraph) -> ExpanVerdict:
    """Part-B sufficiency: d >= 6 and lam(G) <= 2.1 sqrt(d-1) imply part B at
    the typical parameterization (alpha(d), eps=0.2, L=24/alpha).

    Returns pass (mode "sufficient") or inconclusive with the reason; the
    condition gates on lam(G) while some growth statements gate on lambda2,
    so both numbers are reported.  The gate is ``friedman_check``'s
    ``passed_21``, reported with its ``bound_21`` as the threshold.  At these
    parameters ln L is about 1e11 (ln d)^2, so no count reaches the threshold
    and ``congestion_certificate`` proves part B on every graph, whatever
    lam(G): the gate is not needed for part B there.
    """
    summary = eigen_summary(g)
    gate = friedman_check(g)
    details = {
        "lam": summary.lam,
        "lambda2": summary.lambda2,
        "threshold": gate.bound_21,
    }
    if g.d < 6:
        return ExpanVerdict(
            part="B",
            mode="sufficient",
            status="inconclusive",
            details={**details, "reason": "degree below 6"},
        )
    if gate.passed_21:
        params = ExpanParams.paper(g.d)
        return ExpanVerdict(
            part="B",
            mode="sufficient",
            status="pass",
            details={
                **details,
                "alpha_ln": params.alpha.ln,
                "eps": params.eps,
                "L_ln": params.L.ln,
            },
        )
    return ExpanVerdict(
        part="B",
        mode="sufficient",
        status="inconclusive",
        details={**details, "reason": "spectral threshold exceeded"},
    )


def cheeger_growth_check(g: RegularGraph, delta: float) -> dict:
    """Ball growth from the Cheeger constant.

    Hypothesis: h(G) >= 0.0048 d (verified exactly, so n <= 24).  Conclusion:
    for every A with |A| >= delta n and every l >= 1,
    |B(A, l)| >= min(3n/4, gamma (d-1)^l |A|) where
    l* = ceil(log_1.0016(3/(4 delta))) and gamma = (1.0016/(d-1))^l*.
    The conclusion is checked exhaustively over A.  The scan reports the
    first failure by l, then |A|, then subset bitmask, as
    ``growth_check_exact`` does; a failing report carries "witness" and no
    "mode".
    """
    if not (0 < delta < 0.75):
        raise ValueError("delta must lie in (0, 3/4)")
    _require_exact_size(
        g,
        "cheeger_growth_check",
        "its hypothesis h(G) >= 0.0048 d needs the exact Cheeger constant, "
        "which cheeger_upper can only refute",
    )
    n, d = g.n, g.d
    h = cheeger_exact(g)
    hypothesis_ok = h.value >= Fraction(3, 625) * d  # 0.0048 d exactly
    # in log space: 3 / (4 delta) overflows for delta below about 4.2e-309
    l_star = math.ceil((math.log(0.75) - math.log(delta)) / math.log(1.0016) - 1e-12)
    gamma = LogScalar.from_ln(l_star * (math.log(1.0016) - math.log(d - 1)))
    report = {
        "h": float(h.value),
        "hypothesis_ok": hypothesis_ok,
        "l_star": l_star,
        "gamma_ln": gamma.ln,
        "delta": delta,
        "conclusion_checked": False,
        "conclusion_ok": None,
    }
    if not hypothesis_ok:
        return report
    min_size = max(1, math.ceil(delta * n - 1e-9))
    found = _growth_scan_exact(g, gamma, min_size)
    report["conclusion_checked"] = True
    report["conclusion_ok"] = found is None
    if found is None:
        report["mode"] = "exhaustive"
    else:
        l, mask, bsize, _ = found
        report["witness"] = {"A": _mask_vertices(mask, n), "l": l, "ball_size": bsize}
    return report
