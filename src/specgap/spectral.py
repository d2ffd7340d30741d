"""Adjacency spectra, Cheeger constants, and the spectral certificates.

The eigensolver contract: up to n = DENSE_LIMIT = 128 one LAPACK ``eigh``
(every eigenvalue and eigenvector, through numpy); above the limit the three
extremal pairs (lambda_1, lambda_2 and lambda_min) alone by one restarted
Lanczos run at both ends of the spectrum (ARPACK through scipy), started
from a fixed-seed vector, so a solve is repeatable.  Either solver hands the
pairs of lambda_min, lambda_2 and lambda_1 to one certificate: the lambda_2
vector handed out is the unit mean-zero vector in the span of the top two,
and it and the other two vectors must have the residual
||A v - lambda v||_2 <= ARPACK_TOL = 1e-8; the summary's ``residual`` is
the largest of the three, and the vector's first entry of largest magnitude
is positive.  ARPACK is the only use of scipy in the package, and scipy is
imported on that path alone, which builds its CSR matrix from the neighbour
rows; the residuals and the walk-sum bound multiply by A through those
rows, at any n.  ``friedman_check`` makes the one comparison of lam(G) with
2.1 sqrt(d-1).  Cheeger constants are exact rationals up to n = 24, read
from one int16 table of the cut size of every subset (2^n entries, 32 MiB
at n = 24) built by doubling; beyond that only heuristic upper bounds are
produced, never the lower inequality.

Each graph is solved once: the first call that needs its spectrum stores the
``SpectralSummary`` and the lambda_2 eigenvector (n floats, never the n x n
matrix) in the graph's private ``_spectra`` slot, keyed by the mode ("dense"
or "iterative") read from DENSE_LIMIT at call time.  Every certificate here,
and ``poincare.gamma_scalar_l2_exact``, reads that entry; callers get copies
of the vector, and a solve that fails is not stored.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import RegularGraph, distance_rows

__all__ = [
    "SpectralSummary",
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

# The largest n solved dense.  Every certificate needs only lambda_2, lambda_min
# and lambda_2's vector, and the O(n^3) eigh overtakes the one ARPACK run
# between n = 128 and 192 at d = 3, 6 and 10 (one BLAS thread on a 2-vCPU
# Xeon, medians over three graphs each, eigh against ARPACK, certificate
# included: d = 3 at n = 128, 1.4-1.6 vs 2.2-2.9 ms; n = 160, 2.4 vs
# 2.2-3.4 ms; n = 192, 3.6-3.8 vs 3.0-4.6 ms; n = 256, 6.8-7.6 vs 3.8-5.8 ms;
# d = 6 at n = 128, 1.4-1.6 vs 2.1-2.7 ms; n = 192, 3.2-3.5 vs 2.6-3.1 ms;
# d = 10 at n = 128, 1.4-2.1 vs 1.9-3.7 ms; n = 160, 3.2 vs 2.9-3.3 ms;
# n = 192, 4.7 vs 3.8-4.8 ms), so the limit is the largest power of two
# below the crossover.
DENSE_LIMIT = 128
ARPACK_TOL = 1e-8  # certified residual ||A v - lambda v||_2 of every eigenvector handed out
CHEEGER_EXACT_LIMIT = 24  # one limit for every exhaustive subset scan of a graph


def adjacency_matrix(g: RegularGraph):
    """The dense 0/1 adjacency matrix (n x n floats)."""
    a = np.zeros((g.n, g.n))
    a[np.repeat(np.arange(g.n), g.d), g.adj.ravel()] = 1.0
    return a


@dataclass(frozen=True)
class SpectralSummary:
    """Sorted adjacency eigenvalues (dense mode) plus the derived scalars.

    lam is max(|lambda_2|, ..., |lambda_n|); lambda2 is the second largest
    eigenvalue by value (not magnitude); residual is the measured largest
    ||A v - lambda v||_2 of the three certified eigenvectors.
    """

    n: int
    d: int
    mode: str  # "dense" | "iterative"
    lambda1: float
    lambda2: float
    lambda_min: float
    lam: float
    eigenvalues: tuple | None  # every eigenvalue, ascending; None in iterative mode
    residual: float

    @property
    def spectral_gap(self) -> float:
        return self.d - self.lambda2


def eigen_summary(g: RegularGraph) -> SpectralSummary:
    """Eigenvalue summary; dense for n <= DENSE_LIMIT, else iterative extremes.

    Either mode certifies ||A v - lambda v||_2 <= ARPACK_TOL for lambda_1,
    lambda_min and the lambda_2 vector handed out, and raises RuntimeError
    when its solver cannot reach that.  Solved once per graph and mode; see
    the module docstring.
    """
    return _spectrum(g)[0]


def _spectrum(g: RegularGraph) -> tuple[SpectralSummary, np.ndarray]:
    """The graph's cached (summary, lambda_2 eigenvector), solving on a miss.

    Dense mode is one ``eigh``, iterative mode one ARPACK run; either hands
    ``_certified`` the pairs of lambda_min, lambda_2 and lambda_1.  The
    vector is the cache's own array: callers that hand it on copy it.
    """
    mode = "dense" if g.n <= DENSE_LIMIT else "iterative"
    if g._spectra is None:
        object.__setattr__(g, "_spectra", {})
    if mode not in g._spectra:
        if mode == "dense":
            evals, vecs = np.linalg.eigh(adjacency_matrix(g))
            pairs = evals[[0, -2, -1]], vecs[:, [0, -2, -1]], tuple(evals.tolist())
        else:
            pairs = *_arpack_pairs(g), None
        g._spectra[mode] = _certified(g, mode, *pairs)
    return g._spectra[mode]


def _start_vector(n: int) -> np.ndarray:
    """The fixed-seed normal vector ARPACK starts from."""
    return np.random.default_rng(0).standard_normal(n)


def _residual(g: RegularGraph, v: np.ndarray, lam: float) -> float:
    """||A v - lam v||_2, with A applied through the neighbour rows."""
    return float(np.linalg.norm(v[g.adj] @ np.ones(g.d) - lam * v))


def _sign_rule(v: np.ndarray) -> np.ndarray:
    """v or -v, whichever has its first entry of largest magnitude positive."""
    return v if v[np.argmax(np.abs(v))] > 0 else -v


def _arpack_pairs(g: RegularGraph) -> tuple[np.ndarray, np.ndarray]:
    """The three extremal eigenpairs, ascending, from one ARPACK run."""
    import scipy.sparse as sp  # here, not at the top: only this path needs scipy
    import scipy.sparse.linalg as spla

    indptr = np.arange(0, g.n * g.d + 1, g.d)  # one CSR row per neighbour list
    a = sp.csr_matrix((np.ones(g.n * g.d), g.adj.ravel(), indptr), shape=(g.n, g.n))
    # ARPACK stops at ||r|| <= tol |theta| and |theta| <= d, so this tol puts
    # every Ritz residual at ARPACK_TOL / 2 or below
    tol = ARPACK_TOL / (2 * g.d)
    try:
        # k = 3 at both ends: lambda_1 and lambda_2 from the top, lambda_min
        # from the bottom, all from one Krylov space
        vals, vecs = spla.eigsh(a, k=3, which="BE", tol=tol, v0=_start_vector(g.n))
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _certified(
    g: RegularGraph, mode: str, vals: np.ndarray, vecs: np.ndarray, eigenvalues: tuple | None
) -> tuple[SpectralSummary, np.ndarray]:
    """The summary and lambda_2 vector from the pairs (ascending ``vals``,
    ``vecs`` by column) of lambda_min, lambda_2 and lambda_1.

    The lambda_2 vector is ``_ones_free`` of the top two; the residuals of
    it and of the other two vectors, taken through the neighbour rows, must
    all be at most ARPACK_TOL, else RuntimeError.  ``_sign_rule`` fixes the
    vector's sign, and the summary's ``residual`` is the largest of the three.
    """
    lam_min, lam2, lam1 = (float(x) for x in vals)
    v = _ones_free(vecs[:, 1:])
    residual = max(
        _residual(g, vecs[:, 2], lam1),
        _residual(g, vecs[:, 0], lam_min),
        _residual(g, v, lam2),
    )
    if not residual <= ARPACK_TOL:  # a nan residual fails too
        raise RuntimeError(
            f"eigensolver residual {residual:.3e} exceeds tol {ARPACK_TOL:.3e}"
        )
    summary = SpectralSummary(
        n=g.n,
        d=g.d,
        mode=mode,
        lambda1=lam1,
        lambda2=lam2,
        lambda_min=lam_min,
        lam=max(abs(lam2), abs(lam_min)),
        eigenvalues=eigenvalues,
        residual=residual,
    )
    return summary, _sign_rule(v)


def _ones_free(vecs: np.ndarray) -> np.ndarray:
    """The unit vector in the span of the two orthonormal eigenvectors
    ``vecs`` (lambda_2's, then lambda_1's) orthogonal to the ones vector.

    On a connected graph lambda_1's vector is the ones vector up to the
    solver's error, and this is lambda_2's vector with that error projected
    out.  On a disconnected graph both lie in the lambda = d eigenspace in an
    arbitrary basis, and this is the one eigenvector of the span with mean
    zero.
    """
    s = vecs.sum(axis=0)
    v = vecs @ np.array([s[1], -s[0]])
    v -= v.mean()
    return v / np.linalg.norm(v)


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
    bound: float            # 2 sqrt(d-1), Friedman's bound
    passed: bool
    bound_21: float         # 2.1 sqrt(d-1), the sufficiency threshold
    passed_21: bool

    def __bool__(self):
        return self.passed


def friedman_check(g: RegularGraph) -> FriedmanReport:
    """lam(G) <= 2 sqrt(d-1), and the 2.1 sqrt(d-1) gate alongside.

    This is the one comparison of lam(G) with 2.1 sqrt(d-1): the walk-sum
    bound and ``expansion.spectral_sufficient_check`` read ``passed_21``.
    """
    lam = eigen_summary(g).lam
    bound = 2.0 * math.sqrt(g.d - 1)
    bound21 = 2.1 * math.sqrt(g.d - 1)
    return FriedmanReport(
        lam=lam,
        bound=bound,
        passed=lam <= bound,
        bound_21=bound21,
        passed_21=lam <= bound21,
    )


def walk_sum_bound_check(g: RegularGraph, y, l: int) -> dict:
    """||sum_{k=1..l} A^k y||^2 <= 4 (4.41 (d-1))^l for unit mean-zero y.

    Preconditions (checked, the inputs first): 1 <= l with the bound below
    the largest double, y finite, ||y||_2 = 1 to 1e-9, sum(y) = 0 to 1e-9
    n, and lam(G) <= 2.1 sqrt(d-1) as ``friedman_check`` decides it.  A is
    applied through the neighbour rows, never as a matrix, and the walk runs
    on the projection of y onto the mean-zero space, taken again before each
    step.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    l_max = int((math.log(sys.float_info.max) - math.log(4.0)) / math.log(4.41 * (g.d - 1)))
    if l > l_max:
        raise ValueError(
            f"the bound 4 (4.41 (d-1))^l exceeds the largest double: need l <= {l_max} at d={g.d}"
        )
    y = np.asarray(y, dtype=float)
    if y.shape != (g.n,):
        raise ValueError(f"y must have shape ({g.n},)")
    if not np.isfinite(y).all():
        raise ValueError("y entries must be finite")
    if abs(np.linalg.norm(y) - 1.0) > 1e-9:
        raise ValueError("y must be a unit vector (1e-9 tolerance)")
    if abs(float(np.sum(y))) > 1e-9 * g.n:
        raise ValueError("y must have zero mean")
    gate = friedman_check(g)
    if not gate.passed_21:
        raise ValueError(
            f"walk-sum bound needs lam(G) <= 2.1 sqrt(d-1); got lam={gate.lam:.6f}"
        )
    ones = np.ones(g.d)
    z = y
    acc = np.zeros_like(y)
    for _ in range(l):
        # A keeps the mean-zero space, but the ones-component that the 1e-9
        # tolerance lets in (and each step's rounding) grows like d^l and
        # would overflow; projecting every step keeps it at rounding level
        z = z - z.mean()
        z = z[g.adj] @ ones  # (A z)_v: the sum of z over the neighbours of v
        acc += z
    value = float(acc @ acc)
    bound = 4.0 * (4.41 * (g.d - 1)) ** l
    return {
        "value": value,
        "bound": bound,
        "ok": value <= bound * (1 + 1e-12),
        "l": l,
        "lam": gate.lam,
    }
