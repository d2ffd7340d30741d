"""Adjacency spectra, Cheeger constants, and the spectral certificates.

The eigensolver contract: dense symmetric decomposition (LAPACK through
numpy) up to n = DENSE_LIMIT = 4096, iterative extremal pairs (ARPACK through
scipy) above, with residual certification against ``tol``.  Cheeger constants
are exact rationals up to n = 24, read from one int16 table of the cut size
of every subset (2^n entries, 32 MiB at n = 24) built by doubling; beyond
that only heuristic upper bounds are produced, never the lower inequality.

Each graph is solved once: the first call that needs its spectrum stores the
``SpectralSummary`` and the lambda_2 eigenvector (n floats, never the n x n
matrix) in the graph's private ``_spectra`` slot, keyed by (mode, tol) with
the mode read from DENSE_LIMIT at call time.  Every certificate here, and
``poincare.gamma_scalar_l2_exact``, reads that entry; callers get copies of
the vector, and a solve that fails is not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse.linalg as spla

from .graphs import RegularGraph, adjacency_csr, distance_rows

__all__ = [
    "SpectralSummary",
    "adjacency_matrix",
    "eigen_summary",
    "CheegerResult",
    "cheeger_exact",
    "cheeger_upper",
    "cheeger_sandwich_check",
    "FriedmanReport",
    "friedman_check",
    "walk_sum_bound_check",
    "DENSE_LIMIT",
    "CHEEGER_EXACT_LIMIT",
]

DENSE_LIMIT = 4096
CHEEGER_EXACT_LIMIT = 24


def adjacency_matrix(g: RegularGraph, sparse: bool = False):
    if sparse:
        return adjacency_csr(g)
    a = np.zeros((g.n, g.n))
    a[np.repeat(np.arange(g.n), g.d), g.adj.ravel()] = 1.0
    return a


@dataclass(frozen=True)
class SpectralSummary:
    """Sorted adjacency eigenvalues (dense mode) plus the derived scalars.

    lam is max(|lambda_2|, ..., |lambda_n|); lambda2 is the second largest
    eigenvalue by value (not magnitude).
    """

    n: int
    d: int
    mode: str  # "dense" | "iterative"
    lambda1: float
    lambda2: float
    lambda_min: float
    lam: float
    eigenvalues: tuple | None = None
    residual: float = 0.0

    @property
    def spectral_gap(self) -> float:
        return self.d - self.lambda2


def eigen_summary(g: RegularGraph, tol: float = 1e-8) -> SpectralSummary:
    """Eigenvalue summary; dense for n <= DENSE_LIMIT, else iterative extremes.

    Iterative mode certifies ||A v - lambda v||_2 <= tol for each reported
    extremal pair and raises RuntimeError when ARPACK cannot reach that.
    Solved once per graph and (mode, tol); see the module docstring.
    """
    return _spectrum(g, tol)[0]


def _spectrum(g: RegularGraph, tol: float = 1e-8) -> tuple[SpectralSummary, np.ndarray]:
    """The graph's cached (summary, lambda_2 eigenvector), solving on a miss.

    The vector is the cache's own array: callers that hand it on copy it.
    """
    key = ("dense" if g.n <= DENSE_LIMIT else "iterative", tol)
    if g._spectra is None:
        object.__setattr__(g, "_spectra", {})
    if key not in g._spectra:
        solve = _dense_spectrum if key[0] == "dense" else _iterative_spectrum
        g._spectra[key] = solve(g, tol)
    return g._spectra[key]


def _dense_spectrum(g: RegularGraph, tol: float) -> tuple[SpectralSummary, np.ndarray]:
    evals, vecs = np.linalg.eigh(adjacency_matrix(g))
    lam2 = float(evals[-2])
    lam_min = float(evals[0])
    summary = SpectralSummary(
        n=g.n,
        d=g.d,
        mode="dense",
        lambda1=float(evals[-1]),
        lambda2=lam2,
        lambda_min=lam_min,
        lam=max(abs(lam2), abs(lam_min)),
        eigenvalues=tuple(float(x) for x in evals),
    )
    return summary, vecs[:, -2].copy()  # the copy lets the n x n matrix go


def _iterative_spectrum(g: RegularGraph, tol: float) -> tuple[SpectralSummary, np.ndarray]:
    a = adjacency_matrix(g, sparse=True)
    try:
        top_vals, top_vecs = spla.eigsh(a, k=2, which="LA", tol=tol / 10)
        bot_vals, bot_vecs = spla.eigsh(a, k=1, which="SA", tol=tol / 10)
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(top_vals)
    top_vals, top_vecs = top_vals[order], top_vecs[:, order]
    residual = 0.0
    for vals, vecs in ((top_vals, top_vecs), (bot_vals, bot_vecs)):
        for i in range(len(vals)):
            v = vecs[:, i]
            residual = max(residual, float(np.linalg.norm(a @ v - vals[i] * v)))
    if residual > tol:
        raise RuntimeError(
            f"eigensolver residual {residual:.3e} exceeds tol {tol:.3e}"
        )
    lam2 = float(top_vals[0])
    lam_min = float(bot_vals[0])
    summary = SpectralSummary(
        n=g.n,
        d=g.d,
        mode="iterative",
        lambda1=float(top_vals[1]),
        lambda2=lam2,
        lambda_min=lam_min,
        lam=max(abs(lam2), abs(lam_min)),
        residual=residual,
    )
    return summary, top_vecs[:, 0].copy()


# -- Cheeger constant ----------------------------------------------------------


@dataclass(frozen=True)
class CheegerResult:
    value: Fraction
    witness: frozenset
    exact: bool


def cheeger_exact(g: RegularGraph) -> CheegerResult:
    """Exact expansion ratio min |boundary edges| / |S| over 1 <= |S| <= n/2.

    One int16 cut table over all 2^n subset bitmasks, built by doubling:
    cut[S + v] = cut[S] + d - 2 |N(v) & S| for every S below bit v, with a
    uint8 size table alongside.  The least ratio is picked exactly (the
    least cut per size, compared as Fractions), and the witness is the
    smallest mask attaining it.  At n = 24 the tables take 48 MiB and the
    call peaks near 120 MiB above the interpreter.  Refuses
    n > CHEEGER_EXACT_LIMIT and points the caller at cheeger_upper.
    """
    n, d = g.n, g.d
    if n > CHEEGER_EXACT_LIMIT:
        raise ValueError(
            f"cheeger_exact is limited to n <= {CHEEGER_EXACT_LIMIT} "
            f"(got n={n}); use cheeger_upper for an upper bound"
        )
    nbr_masks = (1 << g.adj).sum(axis=1).astype(np.uint32)
    cut = np.zeros(1 << n, dtype=np.int16)
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for v in range(n):  # doubling: the masks with top bit v extend those below it
        lo = 1 << v
        inside = np.bitwise_count(np.arange(lo, dtype=np.uint32) & nbr_masks[v])  # |N(v) & S|
        np.add(cut[:lo], np.int16(d) - 2 * inside, out=cut[lo : 2 * lo])
        np.add(sizes[:lo], 1, out=sizes[lo : 2 * lo])
    least = np.full(n + 1, np.iinfo(np.int16).max, dtype=np.int16)  # per |S|
    np.minimum.at(least, sizes, cut)
    best = min(Fraction(int(least[s]), s) for s in range(1, n // 2 + 1))
    # witness: the first mask with 1 <= |S| <= n/2 and cut * den == |S| * num,
    # two products of at most d n^2 / 2 that fit int16
    cut *= np.int16(best.denominator)
    hit = cut == sizes * np.int16(best.numerator)
    hit &= sizes - np.uint8(1) < n // 2
    mask = int(np.argmax(hit))
    return CheegerResult(best, frozenset(v for v in range(n) if (mask >> v) & 1), exact=True)


def cheeger_upper(g: RegularGraph) -> CheegerResult:
    """Heuristic upper bound: best sweep cut of the second eigenvector,
    plus BFS balls around the first 32 vertices.  Upper bound only.

    Each sweep takes the first prefix with the least cut/size over sizes
    1..n/2; a later sweep replaces the best only when strictly smaller.
    """
    best = None  # (cut, size, prefix)
    for order in _sweep_orders(g):
        prefix = order[: g.n // 2]
        cut, size = _best_prefix(g.adj, prefix)
        if best is None or cut * best[1] < best[0] * size:
            best = (cut, size, prefix[:size])
    cut, size, witness = best
    return CheegerResult(Fraction(cut, size), frozenset(witness.tolist()), exact=False)


def _sweep_orders(g: RegularGraph):
    """The lambda_2 eigenvector order, then BFS orders from the first 32
    vertices by (distance, vertex), each without its unreachable vertices."""
    yield np.argsort(_spectrum(g)[1])
    seeds = range(min(g.n, 32))  # ball seeds; heuristic, upper bound only
    for block in distance_rows(g, seeds):
        for dd in block:
            order = np.argsort(dd, kind="stable")  # stable: ties keep vertex order
            yield order[: np.count_nonzero(np.isfinite(dd))]


def _best_prefix(nbrs: np.ndarray, order: np.ndarray) -> tuple[int, int]:
    """(cut, size) of the first prefix of ``order`` minimizing cut / size.

    Adding the vertex at position i changes the cut by d minus twice its
    neighbours at earlier positions, so the cuts are one cumulative sum.
    Comparing the float ratios is exact: equal fractions round to the same
    double, and distinct ones with denominators <= n differ by >= 1/n^2,
    far above the rounding error for any n below 10^7.
    """
    n, d = nbrs.shape
    k = len(order)
    pos = np.arange(k)
    rank = np.full(n, k)
    rank[order] = pos
    earlier = np.count_nonzero(rank[nbrs[order]] < pos[:, None], axis=1)
    cuts = np.cumsum(d - 2 * earlier)
    i = int(np.argmin(cuts / (pos + 1)))
    return int(cuts[i]), i + 1


def cheeger_sandwich_check(g: RegularGraph) -> dict:
    """Verify (d - lambda2)/2 <= h(G) <= sqrt(2 d (d - lambda2)).

    With an exact h both inequalities are checked; with a heuristic upper
    bound only the upper inequality is claimed (h <= h_ub <= sqrt bound).
    """
    summary = eigen_summary(g)
    if g.n <= CHEEGER_EXACT_LIMIT:
        h = cheeger_exact(g)
    else:
        h = cheeger_upper(g)
    gap = g.d - summary.lambda2
    lower = gap / 2.0
    upper = math.sqrt(max(2.0 * g.d * gap, 0.0))
    h_val = float(h.value)
    report = {
        "h": h_val,
        "h_exact": h.exact,
        "lambda2": summary.lambda2,
        "lower": lower,
        "upper": upper,
        "upper_ok": h_val <= upper + 1e-9,
        "upper_slack": upper - h_val,
    }
    if h.exact:
        report["lower_ok"] = lower <= h_val + 1e-9
        report["lower_slack"] = h_val - lower
        report["ok"] = report["lower_ok"] and report["upper_ok"]
    else:
        report["ok"] = report["upper_ok"]
    return report


# -- spectral certificates -------------------------------------------------------


@dataclass(frozen=True)
class FriedmanReport:
    lam: float
    bound: float            # 2 sqrt(d-1) + slack
    passed: bool
    bound_21: float         # 2.1 sqrt(d-1), the sufficiency threshold
    passed_21: bool

    def __bool__(self):
        return self.passed


def friedman_check(g: RegularGraph, slack: float = 0.0) -> FriedmanReport:
    """lam(G) <= 2 sqrt(d-1) + slack, and the 2.1 sqrt(d-1) gate alongside."""
    lam = eigen_summary(g).lam
    bound = 2.0 * math.sqrt(g.d - 1) + slack
    bound21 = 2.1 * math.sqrt(g.d - 1)
    return FriedmanReport(
        lam=lam,
        bound=bound,
        passed=lam <= bound,
        bound_21=bound21,
        passed_21=lam <= bound21,
    )


def walk_sum_bound_check(g: RegularGraph, y, l: int) -> dict:
    """||sum_{k<=l} A^k y||^2 <= 4 (4.41 (d-1))^l for unit mean-zero y.

    Preconditions (checked): ||y||_2 = 1 to 1e-9, sum(y) = 0 to 1e-9, and
    lam(G) <= 2.1 sqrt(d-1).
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (g.n,):
        raise ValueError(f"y must have shape ({g.n},)")
    if abs(np.linalg.norm(y) - 1.0) > 1e-9:
        raise ValueError("y must be a unit vector (1e-9 tolerance)")
    if abs(float(np.sum(y))) > 1e-9 * g.n:
        raise ValueError("y must have zero mean")
    summary = eigen_summary(g)
    if summary.lam > 2.1 * math.sqrt(g.d - 1) + 1e-12:
        raise ValueError(
            f"walk-sum bound needs lam(G) <= 2.1 sqrt(d-1); "
            f"got lam={summary.lam:.6f}"
        )
    if l < 1:
        raise ValueError("l must be >= 1")
    a = adjacency_matrix(g, sparse=g.n > 512)
    z = y.copy()
    acc = np.zeros_like(y)
    for _ in range(l):
        z = a @ z
        acc += z
    value = float(acc @ acc)
    bound = 4.0 * (4.41 * (g.d - 1)) ** l
    return {
        "value": value,
        "bound": bound,
        "ok": value <= bound * (1 + 1e-12),
        "l": l,
        "lam": summary.lam,
    }
