"""Poincare-ratio evaluation and lower-bound machinery.

For a field f on the vertices, the ratio

    [(1/n^2) sum_{v,w} ||f(v)-f(w)||^p]  /  [(1/|E|) sum_{edges} ||f(w)-f(w')||^p]

is a certified lower bound for the graph's Poincare constant at (norm, p);
the supremum over f is the constant itself.  The scalar p=2 Euclidean case
has the closed form d/(d - lambda2) (the ratio is a generalized Rayleigh
quotient maximized by the second eigenvector); brute force confirms that
value.

The pairwise sum runs over ordered pairs including v = w (those terms are
zero); the convention is fixed here and used consistently on both sides.

Cost of the all-pairs kernels, for an (n, k) field:

- pair sum, norm Lq(q) with an integer q <= 64 and p = q: the sum splits
  by coordinate, and no norm is evaluated.  q = 2 is 2n sum_j sum_v (x_vj -
  mean_j)^2, O(nk); q = 1 is a sort plus gap weights, O(nk log n).  An
  integer 3 <= q <= 64 sorts each column and splits it in halves down to
  runs of 32: the pairs across a split are a binomial sum of power sums
  about a pivot between the halves, every term >= 0, so the relative error
  stays O((q + log n) u).  That is O(nk (32 + q log n)): at n = 1000, k = 2
  and q = 4 / 32, 0.6 / 1.2 ms against 3.5 / 4.5 ms for the O(n^2 k) loop
  (one core of a 2-vCPU Xeon).  A non-integer q, or q > 64, takes the
  generic loop below, O(n^2 k): 5 to 16 ms at n = 1000, k = 2 and 4, q =
  1.5, 4.5 and 65 (same host).
- pair sum, every other (norm, p), q = inf and BlockNorm included: the pairs
  v < w in blocks of at most 64 rows, doubled; n^2/2 norm evaluations, which
  for Lq at p = q are power sums with no root.
  Each block's differences against the vertices from its first row on are
  subtracted from x.T into one reused coordinate-major (k, rows, n) buffer,
  which the norm's kernel (``norms.UncondNorm._pow_kernel``) overwrites, so
  every numpy pass runs over a contiguous slab rather than rows of k = 2
  to 4 entries; only the block's rows x rows diagonal square drops its
  lower triangle.  On lift_l1(Lq(4), 2, 2) at n = 1000, k = 4 a pair sum
  takes 11.1 to 12.0 ms (one core of a 2-vCPU Xeon, as for the move times
  below).
- edge sum: one kernel call on the edge differences, gathered from a
  coordinate-major copy of x; for Lq at p = q it skips the root-then-power
  round trip.
- a move of ``gamma_search``: one kernel call on a reused (k, 1 + probes,
  n) buffer, the current row and the candidates against every row.  The
  edge terms are columns of the same table, so a move costs (1 + probes) n
  norm evaluations: at n = 1000, 75 to 98 us under Lq(q) for q = 1 to 32
  with k = 2 and 142 to 146 us under lift_l1(Lq(4), 2, 2) with k = 4.  The
  random draws and the bookkeeping on the 5-entry candidate vectors are a
  large share.
- all-pairs distances: one bit-parallel BFS sweep over ``g.adj`` per block
  of sources, each vertex holding a bitset of the sources that reached it.
  ``uc_experiment`` counts the bits per level (``graphs.distance_sum``) and
  builds no rows.

A pair-sum block holds about 2^22 floats (32 MiB) or fewer, and a sweep
block about 2^22 (source, vertex) bits; no n x n table is kept.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .graphs import _CHUNK_ENTRIES, RegularGraph, bfs_distances, distance_sum
from .norms import _SQUARING_MAX, Lq, UncondNorm, _powers
from .rand import as_rng
from .spectral import eigen_summary

__all__ = [
    "RatioReport",
    "poincare_ratio",
    "ScalarGapResult",
    "gamma_scalar_l2_exact",
    "gamma_search",
    "uc_experiment",
]


@dataclass(frozen=True)
class RatioReport:
    numerator: float       # (1/n^2) sum over ordered pairs
    denominator: float     # (1/|E|) sum over edges
    ratio: float
    p: float
    evaluations: int = 0
    field: np.ndarray | None = None

    def __post_init__(self):
        if self.denominator <= 0:
            raise ValueError("denominator must be positive")


def _as_field(f, n: int) -> np.ndarray:
    x = np.asarray(f, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"field must be (n, k) with n={n}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("field entries must be finite")
    return x


# A cap on the rows of a block of the all-pairs kernels (which hold at most
# _CHUNK_ENTRIES entries each), so the wasted half of each diagonal block of
# the upper-triangle kernels stays small.
_TRIANGLE_ROWS = 64


def _triangle_rows(n: int, width: int) -> int:
    return max(1, min(_TRIANGLE_ROWS, _CHUNK_ENTRIES // max(n * width, 1)))


def _gap_powers(lo: np.ndarray, hi: np.ndarray, q: int) -> np.ndarray:
    """max(hi_w - lo_v, 0)^q for every v of lo's last axis (axis -2 of the
    result) and w of hi's (axis -1); leading axes broadcast."""
    gaps = hi[..., None, :] - lo[..., :, None]
    np.maximum(gaps, 0.0, out=gaps)
    return _powers(gaps, q, overwrite=True)


def _column_pair_sums(x: np.ndarray, q: int) -> np.ndarray:
    """Per column j, sum over v < w of |x_vj - x_wj|^q, for an integer q in
    [1, _SQUARING_MAX].

    q = 2 is the variance and q = 1 the gap weights of the sorted column,
    both O(nk) after the sort.  Every other q goes by halves of the sorted
    column (``_split_pair_sums``), O(nk (_LEAF_RUN + q log n)).
    """
    n = x.shape[0]
    if q == 2:
        dev = x - x.mean(axis=0)
        return n * np.einsum("ij,ij->j", dev, dev)
    s = np.sort(x, axis=0)
    if q == 1:
        # the gap s[t+1] - s[t] lies between (t + 1)(n - t - 1) pairs
        t = np.arange(n - 1)
        return ((t + 1) * (n - 1 - t)) @ np.diff(s, axis=0)
    return _split_pair_sums(np.ascontiguousarray(s.T), int(q))  # (k, n): one row per column


# Runs of the sorted column this long (a power of two) are summed pair by pair.
_LEAF_RUN = 32


def _split_pair_sums(s: np.ndarray, q: int) -> np.ndarray:
    """Per row of the sorted (k, n) array s, sum over v < w of (s_w - s_v)^q
    for an integer q >= 1.

    The row is cut into aligned runs of _LEAF_RUN entries; the pairs inside a
    run are summed directly (``_leaf_pair_sums``).  Then, for width = _LEAF_RUN,
    2 _LEAF_RUN, ... < n, each run of 2 width entries is a left run L and a
    right run R of width entries each (R may be short or empty at the end).
    With the pivot c = max(L), every pair across splits as s_w - s_v =
    (s_w - c) + (c - s_v) with both parts >= 0, so

        sum_{v in L, w in R} (s_w - s_v)^q = sum_j C(q, j) P_j Q_{q-j},
        P_j = sum_{v in L} (c - s_v)^j,   Q_j = sum_{w in R} (s_w - c)^j.

    Every term is >= 0, so nothing cancels: each power is at most about q
    ulps off, the run sums are numpy's pairwise sums, and the relative error
    is O((q + log n) u), as for the direct sum.  Each level costs O(nkq), and
    there are log2(n / _LEAF_RUN) of them.

    The sum is q-homogeneous, so each row is first scaled by the power of two
    that takes its range into [1, 2): exact, and no difference, power or
    product below leaves the double range.  The one scale back at the end
    overflows or underflows where the sum itself does.  The power tables are
    built in slices of at most _CHUNK_ENTRIES entries.
    """
    k, n = s.shape
    with np.errstate(over="ignore", under="ignore"):
        _, e = np.frexp(s[:, -1] / 2 - s[:, 0] / 2)  # half the range, which may overflow
        s = np.ldexp(s, -e[:, None])
        total = _leaf_pair_sums(s, q)
        binom = np.array([math.comb(q, j) for j in range(q + 1)], dtype=float)
        # a power of two, so a slice lies inside one run or holds whole runs
        rows = 1 << (max(1, _CHUNK_ENTRIES // (k * (q + 1))).bit_length() - 1)
        width = _LEAF_RUN
        while width < n:
            sums = np.zeros((k, q + 1, -(-n // width)))  # [:, j, r]: sum over run r of d^j
            for start in range(0, n, rows):
                stop = min(start + rows, n)
                cuts = np.arange(start, stop, width)  # run starts, or just start
                table = _pivot_powers(s, start, stop, width, q)
                sums[:, :, cuts // width] += np.add.reduceat(table, cuts - start, axis=2)
            pairs = sums.shape[2] // 2  # an unpaired last left run has no cross pairs
            left, right = sums[:, :, 0 : 2 * pairs : 2], sums[:, ::-1, 1 : 2 * pairs : 2]
            total += (binom[:, None] * left * right).sum(axis=(1, 2))
            width *= 2
        return np.ldexp(total, q * e)


def _leaf_pair_sums(s: np.ndarray, q: int) -> np.ndarray:
    """Per row of the sorted (k, n) array s, the sum of (s_w - s_v)^q over the
    pairs v < w inside each aligned run of _LEAF_RUN entries, in slices of at
    most _CHUNK_ENTRIES gaps (or one run)."""
    k, n = s.shape
    full = n - n % _LEAF_RUN
    runs = s[:, :full].reshape(k, -1, _LEAF_RUN)
    tail = s[:, None, full:]  # the short last run, perhaps empty
    total = _gap_powers(tail, tail, q).sum(axis=(1, 2, 3))
    step = max(1, _CHUNK_ENTRIES // (k * _LEAF_RUN * _LEAF_RUN))
    for start in range(0, runs.shape[1], step):
        block = runs[:, start : start + step]
        total += _gap_powers(block, block, q).sum(axis=(1, 2, 3))
    return total


def _pivot_powers(s: np.ndarray, start: int, stop: int, width: int, q: int) -> np.ndarray:
    """The (k, q + 1, stop - start) table of d^j, j = 0..q, for the entries
    start..stop-1 of the sorted rows s, where d >= 0 is an entry's distance to
    the pivot of its run of 2 width: the last entry of the left half (entry
    n - 1 for an unpaired last left run, whose sums go unused)."""
    n = s.shape[1]
    idx = np.arange(start, stop)
    pivots = np.minimum(idx // (2 * width) * (2 * width) + width - 1, n - 1)
    table = np.empty((s.shape[0], q + 1, stop - start))
    table[:, 0] = 1.0
    np.abs(s[:, start:stop] - s[:, pivots], out=table[:, 1])
    done = 1  # d^0..d^done are filled; d^(done + i) = d^i d^done fills up to 2 done
    while done < q:
        top = min(2 * done, q)
        np.multiply(table[:, 1 : top - done + 1], table[:, done : done + 1], out=table[:, done + 1 : top + 1])
        done = top
    return table


def _pair_sum(x: np.ndarray, nm: UncondNorm, p: float) -> float:
    """sum over ordered pairs (v, w) of ||x_v - x_w||^p: twice the v < w sum.

    Lq(q) at p = q with an integer q <= _SQUARING_MAX splits by coordinate
    and goes column by column; every other (norm, p) evaluates the pairs
    v < w in blocks of rows: each block's differences against the vertices
    from its first row on go into one reused coordinate-major (k, rows, n)
    buffer, which the norm's kernel overwrites, and only the block's
    rows x rows diagonal square needs its lower triangle dropped.
    """
    n, k = x.shape
    if isinstance(nm, Lq) and p == nm.q and float(p).is_integer() and p <= _SQUARING_MAX:
        return 2.0 * float(_column_pair_sums(x, p).sum())
    xt = np.ascontiguousarray(x.T)  # (k, n): coordinate-major
    total = 0.0
    rows = _triangle_rows(n, k)
    buf = np.empty(k * rows * n)
    for start in range(0, n, rows):
        r = min(rows, n - start)
        diffs = buf[: k * r * (n - start)].reshape(k, r, n - start)
        np.subtract(xt[:, start : start + r, None], xt[:, None, start:], out=diffs)
        vals = nm._pow_kernel(diffs, p)  # column j is vertex start + j
        vals[:, :r] = np.triu(vals[:, :r], 1)
        total += float(vals.sum())
    return 2.0 * total


def _edge_sum(x: np.ndarray, g: RegularGraph, nm: UncondNorm, p: float) -> float:
    """sum over edges u < v of ||x_u - x_v||^p, in ``g.edges()`` order,
    gathered from a coordinate-major copy of x."""
    u, v = g.edges().T
    xt = np.ascontiguousarray(x.T)
    return float(nm._pow_kernel(xt[:, u] - xt[:, v], p).sum())


def _check_p(p: float) -> None:
    if not 1 <= p < math.inf:
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")


def poincare_ratio(g: RegularGraph, f, norm: UncondNorm, p: float) -> RatioReport:
    """Exact two-sided evaluation for one field; a lower bound on the constant.

    Rejects constant fields (both sides vanish), fields constant on every
    edge (only the edge side vanishes, as on the components of a disconnected
    graph), and fields whose p-th-power sums overflow or underflow the double
    range.  The report's ``field`` is a copy, so later writes to ``f`` leave
    it as evaluated.
    """
    _check_p(p)
    x = _as_field(f, g.n)
    if np.all(x == x[0]):
        raise ValueError("field is constant: the Poincare ratio is degenerate")
    u, v = g.edges().T
    if np.all(x[u] == x[v]):
        raise ValueError("field is constant on every edge: the Poincare ratio is unbounded")
    with np.errstate(over="ignore", under="ignore"):
        pairs = _pair_sum(x, norm, p)
        edges = _edge_sum(x, g, norm, p)
    if not (0 < pairs < math.inf and 0 < edges < math.inf):
        raise ValueError(
            f"the p-th-power sums of the field (pairs {pairs!r}, edges {edges!r}) "
            "leave the double range; rescale the field"
        )
    num = pairs / (g.n * g.n)
    den = edges / g.num_edges()
    return RatioReport(num, den, num / den, p, field=x.copy())


@dataclass(frozen=True)
class ScalarGapResult:
    gamma: float             # certified: d / (d - lambda2)
    lambda2: float
    extremizer: np.ndarray | None


def gamma_scalar_l2_exact(g: RegularGraph) -> ScalarGapResult:
    """Closed form for scalar fields, Euclidean norm, p = 2.

    Certified value d/(d - lambda2), achieved by the second eigenvector.  A
    disconnected graph has lambda2 = d exactly, reported as such with gamma
    = inf and no extremizer, before any eigensolve.  Otherwise lambda2 and
    the extremizer come from ``eigen_summary(g)`` (dense up to
    spectral.DENSE_LIMIT, ARPACK above); the extremizer is a copy.
    """
    if np.isinf(bfs_distances(g, [0])).any():
        return ScalarGapResult(math.inf, float(g.d), None)
    summary = eigen_summary(g)
    lam2 = summary.lambda2
    gamma = g.d / (g.d - lam2)
    return ScalarGapResult(gamma, lam2, summary.vector.copy())


_SEARCH_RESTARTS = 3


def gamma_search(
    g: RegularGraph,
    norm: UncondNorm,
    p: float,
    k: int,
    budget: int,
    rng,
) -> RatioReport:
    """Ratio maximization by coordinate perturbation from _SEARCH_RESTARTS
    random starts, each with an equal share of the budget.

    Norm-agnostic (no smoothness assumed): each move proposes a few scaled
    random perturbations of one vertex row, keeps the best if it improves,
    and halves the step scale after a streak of failures.  Monotone in the
    best-so-far; deterministic given the seed.  A move evaluates four
    candidates, and no move starts that would take the count past
    ``budget``, so ``evaluations`` is a multiple of four and at most
    ``budget``; below four no move is made, and the result is the best
    random start.

    A move is one call of the norm's kernel: the current row and the
    candidates against all n rows, subtracted into one reused (k, 1 + 4, n)
    buffer from the field, which the search keeps coordinate-major.  Row 0
    of the table is the current row's pair term, and the columns of v's
    neighbours are its edge terms, before and after.

    k and budget are integers (``operator.index``).  A random start counts
    only if its pair and edge sums both lie in (0, inf), and no move is
    accepted whose ratio is not finite, so the best field always has a
    ratio.  When no random start has one, its p-th-power sums having left
    the double range (at p in the hundreds for a normal start), the search
    raises ValueError.
    """
    _check_p(p)
    k, budget = operator.index(k), operator.index(budget)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if budget <= 0:
        raise ValueError("budget must be positive")
    rng = as_rng(rng)
    n = g.n
    nbr = g.adj
    probes = 4
    best_ratio, best_FT = -math.inf, None
    evals = 0
    per_restart = max(1, budget // _SEARCH_RESTARTS)

    def full_parts(FT):
        F = np.ascontiguousarray(FT.T)
        return _pair_sum(F, norm, p), _edge_sum(F, g, norm, p)

    scale = g.num_edges() / float(n * n)
    steps = np.array([1.0, 0.3, 3.0, 0.1])  # the candidates' step multiples
    rows = np.empty((k, 1 + probes))  # the current row, then the candidates
    buf = np.empty((k, 1 + probes, n))  # rows against every vertex; the kernel overwrites it
    for r in range(_SEARCH_RESTARTS):
        FT = np.ascontiguousarray(rng.normal(size=(n, k)).T)  # the field, coordinate-major
        num, den = full_parts(FT)
        if not (0 < num < math.inf and 0 < den < math.inf):
            continue
        if num / den * scale > best_ratio:
            best_ratio, best_FT = num / den * scale, FT.copy()
        step, fails = 1.0, 0
        budget_end = min(budget, (r + 1) * per_restart)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            while evals < budget_end and evals + probes <= budget:
                v = int(rng.integers(n))
                dirs = rng.normal(size=(probes, k))
                rows[:, 0] = FT[:, v]
                np.multiply(dirs.T, step * steps, out=rows[:, 1:])
                rows[:, 1:] += rows[:, :1]  # the candidates FT[:, v] + t dirs
                # table[c, w] = ||rows_c - FT[:, w]||^p; an edge term of v is a pair term
                np.subtract(rows[:, :, None], FT[:, None, :], out=buf)
                table = norm._pow_kernel(buf, p)
                table[1:, v] = 0.0  # a candidate replaces row v: no pair with it
                pair = table.sum(axis=1)
                edge = table[:, nbr[v]].sum(axis=1)
                cnum = num - 2 * float(pair[0]) + 2 * pair[1:]
                cden = den - float(edge[0]) + edge[1:]
                evals += probes
                ratios = np.where(cden > 0, cnum / cden, -math.inf)
                i = int(np.argmax(ratios))
                if math.inf > ratios[i] > (num / den) * (1 + 1e-12):
                    FT[:, v] = rows[:, 1 + i]
                    num, den = float(cnum[i]), float(cden[i])
                    fails = 0
                    if num / den * scale > best_ratio:
                        best_ratio, best_FT = num / den * scale, FT.copy()
                else:
                    fails += 1
                    if fails > 2 * n:
                        step *= 0.5
                        fails = 0
                        if step < 1e-9:
                            break
    if best_FT is None:
        raise ValueError(
            f"at p = {p} every random start's p-th-power sums left the double range, "
            "so the search has no field to report"
        )
    return replace(poincare_ratio(g, np.ascontiguousarray(best_FT.T), norm, p), evaluations=evals)


# -- distance sweeps ---------------------------------------------------------------


def uc_experiment(graphs) -> list[dict]:
    """Distance-growth rows for a family of graphs: per graph, the exact
    average pairwise distance over ordered pairs and over distinct pairs.
    The edge-side average of the distance is exactly 1.
    """
    rows = []
    for g in graphs:
        total = distance_sum(g)  # per level, so no distance row is built
        rows.append(
            {
                "n": g.n,
                "d": g.d,
                "avg_distance": total / (g.n * g.n),
                "avg_distance_distinct": total / (g.n * (g.n - 1)),
            }
        )
    return rows
