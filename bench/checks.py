"""Output checks and the independent references they compare against.

Every check takes a library output (plus the reference it needs) and returns
a list of problems; an empty list means the output is correct.  Checks run
after a pass has been timed.  Where an independent result exists it is
computed here with numpy/scipy from the edge list, not with ``specgap``.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

# Two eigensolvers agree on an eigenvalue of a 0/1 adjacency matrix to well
# below this; the library certifies its own residual against 1e-8.
EIG_AGREE = 1e-6
REL = 1e-9


def _close(a: float, b: float, rel: float = REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


# -- independent references -------------------------------------------------------


def parse_edges(text: str) -> tuple[int, int, np.ndarray]:
    """(n, d, edges) from the stored "n d" header plus "u v" lines."""
    vals = np.array(text.split(), dtype=np.int64)
    return int(vals[0]), int(vals[1]), vals[2:].reshape(-1, 2)


def adjacency(edges: np.ndarray, n: int) -> sp.csr_matrix:
    u, v = edges[:, 0], edges[:, 1]
    data = np.ones(2 * len(edges))
    return sp.csr_matrix(
        (data, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n)
    )


def spectrum(edges: np.ndarray, n: int) -> dict:
    """lambda1, lambda2, lambda_min and lam = max(|lambda2|, |lambda_min|)."""
    a = adjacency(edges, n)
    if n <= 4096:
        vals = np.linalg.eigvalsh(a.toarray())
        top, lam_min = vals[-2:], vals[0]
    else:
        v0 = np.random.default_rng(0).random(n)
        top = np.sort(spla.eigsh(a, k=2, which="LA", v0=v0, tol=1e-12)[0])
        lam_min = spla.eigsh(a, k=1, which="SA", v0=v0, tol=1e-12)[0][0]
    lam2 = float(top[0])
    return {
        "lambda1": float(top[1]),
        "lambda2": lam2,
        "lambda_min": float(lam_min),
        "lam": max(abs(lam2), abs(float(lam_min))),
    }


def ball_sizes(edges: np.ndarray, n: int, sources, l_max: int) -> list[int]:
    """|B(sources, l)| for l = 0..l_max by scipy BFS."""
    dist = csgraph.shortest_path(
        adjacency(edges, n), unweighted=True, directed=False, indices=list(sources)
    ).min(axis=0)
    return [int(np.sum(dist <= l)) for l in range(l_max + 1)]


def mean_distance(edges: np.ndarray, n: int) -> float:
    """Mean hop distance over all ordered pairs, v = w included."""
    dist = csgraph.shortest_path(adjacency(edges, n), unweighted=True, directed=False)
    return float(dist.sum() / (n * n))


def walk_sum_value(edges: np.ndarray, n: int, y: np.ndarray, l: int) -> float:
    """||sum_{k=1..l} A^k y||^2."""
    a = adjacency(edges, n)
    z, acc = y.copy(), np.zeros(n)
    for _ in range(l):
        z = a @ z
        acc += z
    return float(acc @ acc)


# -- checks -----------------------------------------------------------------------


def regular_graph(edges: np.ndarray, n: int, d: int) -> list[str]:
    """Simple, d-regular, on exactly n vertices."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) != n * d // 2:
        return [f"{len(edges)} edges, expected n*d/2 = {n * d // 2}"]
    if edges.min() < 0 or edges.max() >= n:
        return ["vertex label out of range"]
    problems = []
    if np.any(edges[:, 0] == edges[:, 1]):
        problems.append("self-loop")
    keys = np.minimum(edges[:, 0], edges[:, 1]) * n + np.maximum(edges[:, 0], edges[:, 1])
    if len(np.unique(keys)) != len(keys):
        problems.append("parallel edge")
    deg = np.bincount(edges.ravel(), minlength=n)
    if np.any(deg != d):
        problems.append(f"degrees {sorted(set(deg.tolist()))[:5]}, expected {d}")
    return problems


def same_graph(g, edges: np.ndarray) -> list[str]:
    """The library graph has exactly the stored edge set."""
    lib = np.array(g.edges(), dtype=np.int64).reshape(-1, 2)
    ref = np.sort(np.asarray(edges, dtype=np.int64), axis=1)
    ref = ref[np.lexsort((ref[:, 1], ref[:, 0]))]
    if lib.shape != ref.shape or not np.array_equal(lib, ref):
        return ["loaded graph differs from the stored edge list"]
    return []


def eigen(summary, d: int, ref: dict, tol: float = 1e-8) -> list[str]:
    """lambda1 = d, the ARPACK residual is at most tol, values match ref."""
    problems = []
    if abs(summary.lambda1 - d) > tol * d:
        problems.append(f"lambda1 = {summary.lambda1!r}, expected d = {d}")
    if summary.residual > tol:
        problems.append(f"residual {summary.residual:.3e} above tol {tol:.0e}")
    for key in ("lambda2", "lambda_min", "lam"):
        if abs(getattr(summary, key) - ref[key]) > EIG_AGREE:
            problems.append(f"{key} {getattr(summary, key)!r} vs independent {ref[key]!r}")
    return problems


def friedman(report, d: int, ref: dict) -> list[str]:
    problems = []
    if abs(report.lam - ref["lam"]) > EIG_AGREE:
        problems.append(f"lam {report.lam!r} vs independent {ref['lam']!r}")
    if report.passed != (report.lam <= 2.0 * math.sqrt(d - 1)):
        problems.append("verdict disagrees with lam <= 2 sqrt(d-1)")
    return problems


def sufficient(verdict, d: int, ref: dict) -> list[str]:
    """pass exactly when d >= 6 and lam <= 2.1 sqrt(d-1) (outside a tie band)."""
    thr = 2.1 * math.sqrt(d - 1)
    if verdict.mode != "sufficient":
        return [f"mode {verdict.mode!r}, expected 'sufficient'"]
    if verdict.status == "pass" and (d < 6 or ref["lam"] > thr + EIG_AGREE):
        return [f"pass at d={d}, lam={ref['lam']:.6f}, threshold {thr:.6f}"]
    if verdict.status != "pass" and d >= 6 and ref["lam"] < thr - EIG_AGREE:
        return [f"{verdict.status} although d={d} and lam={ref['lam']:.6f} < {thr:.6f}"]
    return []


def walk_sum(report, value_ref: float) -> list[str]:
    problems = []
    if not _close(report["value"], value_ref):
        problems.append(f"value {report['value']!r} vs independent {value_ref!r}")
    if not report["ok"] or report["value"] > report["bound"] * (1 + 1e-12):
        problems.append("walk-sum bound reported violated")
    return problems


def sandwich(report, d: int, ref: dict) -> list[str]:
    """(d - lambda2)/2 <= h <= h_ub <= sqrt(2 d (d - lambda2))."""
    gap = d - ref["lambda2"]
    problems = []
    if abs(report["lambda2"] - ref["lambda2"]) > EIG_AGREE:
        problems.append(f"lambda2 {report['lambda2']!r} vs independent {ref['lambda2']!r}")
    if not report["ok"]:
        problems.append("sandwich reported violated")
    if report["h"] < gap / 2 - 1e-9:
        problems.append(f"h = {report['h']!r} below (d - lambda2)/2 = {gap / 2!r}")
    if report["h"] > math.sqrt(2 * d * gap) + 1e-9:
        problems.append(f"h = {report['h']!r} above sqrt(2 d (d - lambda2))")
    return problems


def sampled_verdict(verdict) -> list[str]:
    """A sampled check can only falsify: it never reads pass."""
    if verdict.mode != "sampled" or verdict.status == "pass":
        return [f"sampled verdict reads mode={verdict.mode!r} status={verdict.status!r}"]
    return []


def explore(trace, balls_ref: list[int]) -> list[str]:
    if trace.ball_sizes() != balls_ref:
        return [f"ball sizes {trace.ball_sizes()} vs BFS {balls_ref}"]
    return []


def baseline(rows, q_grid) -> list[str]:
    if [r["q"] for r in rows] != list(q_grid):
        return ["rows do not follow the q grid"]
    for r in rows:
        if not all(math.isfinite(r[k]) for k in ("ln_gamma", "ln_os_i", "ln_os_ii")):
            return [f"non-finite log at q={r['q']}"]
        if not _close(r["ratio_logs"], r["ln_os_i"] / r["ln_gamma"]):
            return [f"ratio_logs inconsistent at q={r['q']}"]
    return []


def uc_mean_distance(rows, mean_ref: float) -> list[str]:
    if len(rows) != 1 or not _close(rows[0]["avg_distance"], mean_ref):
        got = rows[0]["avg_distance"] if rows else None
        return [f"mean distance {got!r} vs shortest_path {mean_ref!r}"]
    return []


def l2_exact(result, d: int, ref: dict) -> list[str]:
    want = d / (d - ref["lambda2"])
    if abs(result.gamma - want) > EIG_AGREE * want:
        return [f"gamma {result.gamma!r} vs d/(d - lambda2) = {want!r}"]
    return []


def search(report, budget: int, upper: float | None = None) -> list[str]:
    """Budget respected, finite field, and below the closed form when known."""
    problems = []
    if report.evaluations > budget:
        problems.append(f"{report.evaluations} evaluations above budget {budget}")
    if report.field is None or not np.all(np.isfinite(report.field)):
        problems.append("returned field is missing or not finite")
    if not (math.isfinite(report.ratio) and report.ratio > 0):
        problems.append(f"ratio {report.ratio!r}")
    if upper is not None and report.ratio > upper * (1 + 1e-9):
        problems.append(f"ratio {report.ratio!r} above d/(d - lambda2) = {upper!r}")
    return problems


def recheck(ratio_report, search_report) -> list[str]:
    if not _close(ratio_report.ratio, search_report.ratio):
        return [f"recheck {ratio_report.ratio!r} vs search {search_report.ratio!r}"]
    return []


def cheeger_order(exact, upper) -> list[str]:
    if not exact.exact or upper.exact:
        return ["exactness flags wrong"]
    if exact.value > upper.value:
        return [f"cheeger_exact {exact.value} above cheeger_upper {upper.value}"]
    return []


# -- pinned references --------------------------------------------------------------


def plain(x):
    """JSON-ready form of a library output, used for pinned references."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (set, frozenset)):
        return sorted(plain(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, np.ndarray):
        return plain(x.tolist())
    return x


def reference(value, ref, path: str = "") -> list[str]:
    """Exact equality, floats to a relative 1e-9."""
    if isinstance(ref, dict) and isinstance(value, dict):
        if set(ref) != set(value):
            return [f"{path}: keys {sorted(value)} vs {sorted(ref)}"]
        return [p for k in ref for p in reference(value[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(value, list):
        if len(ref) != len(value):
            return [f"{path}: length {len(value)} vs {len(ref)}"]
        return [p for i, (a, b) in enumerate(zip(value, ref)) for p in reference(a, b, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        if math.isclose(value, ref, rel_tol=REL, abs_tol=1e-12) or value == ref:
            return []
        return [f"{path}: {value!r} vs reference {ref!r}"]
    if value != ref or type(value) is not type(ref):
        return [f"{path}: {value!r} vs reference {ref!r}"]
    return []
