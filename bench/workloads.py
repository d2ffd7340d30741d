"""The three workloads: the calls of one pass and the checks on their outputs.

Each workload is a closed loop: one process, one caller, calls made in
sequence.  A pass makes every call of the workload once; the worker repeats
passes for the run's duration.  Quality metrics come from the pass's outputs.

Stored graphs (``data/*.edges``) feed the quality metrics and the pinned
checks, so a change to the sampler cannot change them.  Fresh draws time the
sampler only and are checked for validity.  Why each workload looks the way
it does is in README.md.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import checks
from specgap import constants, expansion, graphs, norms, poincare, sampling, spectral
from specgap.rand import make_rng

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Above spectral.DENSE_LIMIT (4096), so the eigensolves take the ARPACK path.
SPARSE_N = 5000
Q_GRID = (1, 2, 4, 8, 16, 32)
SEARCH_BUDGET = 1000
SEARCH_K = 2
# The d = 6 fresh draws use these seeds in every run: the rejection count of
# one draw is geometric with mean ~6300 at n = 1000, so draws seeded from the
# run's seed would move wall_s by seconds from run to run.
PAPER_FRESH_SEEDS = (0, 1, 2, 3)
# Stream ids under the run's seed, one per random input.
WALK_Y, GROWTH_RNG, EXPLORE_RNG, FRESH_RNG, SEARCH_RNG = 1, 2, 3, 4, 10


def _read_json(name: str):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


def read_stored(name: str) -> str:
    """Text of a stored edge list."""
    with open(os.path.join(DATA, f"{name}.edges")) as fh:
        return fh.read()


class References:
    """Stored-graph metadata and independent results, computed once per
    worker and shared by its passes."""

    def __init__(self):
        self._memo = {}
        self.manifest = _read_json("manifest.json")
        self._exact = _read_json("references.json")

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def edges(self, name: str) -> np.ndarray:
        return self._cached(("edges", name), lambda: checks.parse_edges(read_stored(name))[2])

    def spectrum(self, name: str) -> dict:
        n = self.manifest[name]["n"]
        return self._cached(("spectrum", name), lambda: checks.spectrum(self.edges(name), n))

    def mean_distance(self, name: str) -> float:
        n = self.manifest[name]["n"]
        return self._cached(("distance", name), lambda: checks.mean_distance(self.edges(name), n))

    def exact(self, key: str, out) -> list[str]:
        """Compare an exact_small output with the pinned reference."""
        if key not in self._exact:
            return [f"no pinned reference for {key}"]
        return checks.reference(checks.plain(out), self._exact[key], key)


class Recorder(References):
    """Records exact_small outputs as the pinned references (make_inputs.py)."""

    def __init__(self):
        self._memo = {}
        self.manifest = _read_json("manifest.json")
        self.recorded = {}

    def exact(self, key: str, out) -> list[str]:
        self.recorded[key] = checks.plain(out)
        return []


def _load(s, refs: References, name: str):
    """Read a stored graph (timed) and check it against the manifest."""
    meta = refs.manifest[name]
    text = read_stored(name)

    def check(g):
        edges = refs.edges(name)
        return checks.regular_graph(edges, meta["n"], meta["d"]) + checks.same_graph(g, edges)

    return s.call("graphs", graphs.load_edge_list, text, check=check)


def _fresh(s, n: int, d: int, rng):
    def check(out):
        g, _ = out
        return checks.regular_graph(np.array(g.edges()), n, d)

    return s.call(
        "sampling",
        sampling.sample_simple_regular,
        n,
        d,
        rng,
        check=check,
        tags=lambda out: {"attempts": out[1] + 1},
    )


def _eigen(s, refs, name, g):
    return s.call(
        "spectral",
        spectral.eigen_summary,
        g,
        check=lambda out: checks.eigen(out, g.d, refs.spectrum(name)),
        tags=lambda out: {"residual": out.residual, "mode": out.mode},
    )


def _sufficient(s, refs, name, g):
    return s.call(
        "expansion",
        expansion.spectral_sufficient_check,
        g,
        check=lambda out: checks.sufficient(out, g.d, refs.spectrum(name)),
    )


def _sandwich(s, refs, name, g):
    return s.call(
        "spectral",
        spectral.cheeger_sandwich_check,
        g,
        check=lambda out: checks.sandwich(out, g.d, refs.spectrum(name)),
    )


def _baseline(s, d: int, lambda2: float):
    return s.call(
        "constants",
        constants.baseline_comparison,
        Q_GRID,
        d,
        lambda2,
        check=lambda out: checks.baseline(out, Q_GRID),
    )


# -- sparse_certify -------------------------------------------------------------


def sparse_certify(s, seed: int, refs: References) -> dict:
    ub = []
    for name in ("sparse_n5000_d3", "sparse_n5000_d4"):
        with s.group(name):
            ub.append(_certify_large(s, seed, refs, name))
    with s.group("fresh"):
        for d in (3, 4):
            _fresh(s, SPARSE_N, d, make_rng(seed, FRESH_RNG + d))
    return {"cheeger_ub": ub}


def _certify_large(s, seed: int, refs: References, name: str) -> float:
    g = _load(s, refs, name)
    summary = _eigen(s, refs, name, g)
    s.call(
        "spectral",
        spectral.friedman_check,
        g,
        check=lambda out: checks.friedman(out, g.d, refs.spectrum(name)),
    )
    _sufficient(s, refs, name, g)

    y = make_rng(seed, WALK_Y).normal(size=g.n)
    y -= y.mean()
    y /= np.linalg.norm(y)
    s.call(
        "spectral",
        spectral.walk_sum_bound_check,
        g,
        y,
        8,
        check=lambda out: checks.walk_sum(
            out, checks.walk_sum_value(refs.edges(name), g.n, y, 8)
        ),
    )
    sw = _sandwich(s, refs, name, g)
    s.call(
        "expansion",
        expansion.growth_check_sampled,
        g,
        0.01,
        20,
        make_rng(seed, GROWTH_RNG),
        check=checks.sampled_verdict,
    )
    v = int(make_rng(seed, EXPLORE_RNG).integers(g.n))
    s.call(
        "sampling",
        sampling.explore,
        g,
        [v],
        10,
        check=lambda out: checks.explore(out, checks.ball_sizes(refs.edges(name), g.n, [v], 10)),
    )
    _baseline(s, g.d, summary.lambda2)
    return sw["h"]


# -- paper_regime ---------------------------------------------------------------


def paper_regime(s, seed: int, refs: References) -> dict:
    name = "paper_n1000_d6"
    with s.group("fresh"):
        for fresh_seed in PAPER_FRESH_SEEDS:
            _fresh(s, 1000, 6, fresh_seed)
    ub, lb = [], []
    with s.group(name):
        ub.append(_paper_graph(s, seed, refs, name, lb))
    return {"cheeger_ub": ub, "poincare_lb": lb}


def _paper_graph(s, seed: int, refs: References, name: str, lb: list) -> float:
    g = _load(s, refs, name)
    summary = _eigen(s, refs, name, g)
    _sufficient(s, refs, name, g)
    sw = _sandwich(s, refs, name, g)
    s.call(
        "poincare",
        poincare.uc_experiment,
        [g],
        check=lambda out: checks.uc_mean_distance(out, refs.mean_distance(name)),
    )
    s.call(
        "poincare",
        poincare.gamma_scalar_l2_exact,
        g,
        check=lambda out: checks.l2_exact(out, g.d, refs.spectrum(name)),
    )
    for i, q in enumerate(Q_GRID):
        rep = _search(s, refs, name, g, norms.Lq(q), q, SEARCH_K, make_rng(seed, SEARCH_RNG + i))
        lb.append(rep.ratio ** (1.0 / q))
    block = norms.lift_l1(norms.Lq(4), 2, 2)
    _search(s, refs, name, g, block, 4, block.dim, make_rng(seed, SEARCH_RNG + len(Q_GRID)))
    _baseline(s, g.d, summary.lambda2)
    return sw["h"]


def _search(s, refs, name, g, norm, p, k, rng):
    """gamma_search and its poincare_ratio recheck."""

    def check(out):
        # at p = 2 with the Euclidean norm the constant is d/(d - lambda2)
        upper = None
        if isinstance(norm, norms.Lq) and norm.q == 2 and p == 2:
            upper = g.d / (g.d - refs.spectrum(name)["lambda2"])
        return checks.search(out, SEARCH_BUDGET, upper)

    rep = s.call(
        "poincare",
        poincare.gamma_search,
        g,
        norm,
        p,
        k,
        SEARCH_BUDGET,
        rng,
        check=check,
        tags=lambda out: {"evals": out.evaluations, "block": isinstance(norm, norms.BlockNorm)},
    )
    s.call(
        "poincare",
        poincare.poincare_ratio,
        g,
        rep.field,
        norm,
        p,
        check=lambda out: checks.recheck(out, rep),
    )
    return rep


# -- exact_small ----------------------------------------------------------------


def _norm_family():
    """Fixed vectors and norm for the exact Rademacher enumerations."""
    x = np.array(_read_json("norm_vectors.json"), dtype=float)
    return norms.lift_l1(norms.Lq(4), 3, 2), x


def exact_small(s, seed: int, refs: References) -> dict:
    """Exhaustive scans on fixed inputs; the seed has nothing to vary here."""
    ub = []
    for name in ("small_n16_d3", "small_n14_d4"):
        with s.group(name):
            ub.append(_exact_graph(s, refs, name))
    with s.group("norms"):
        nm, x = _norm_family()

        def pinned(key):
            return lambda out: refs.exact(f"norms/{key}", out)

        s.call("norms", norms.cotype_constant_exact, nm, x, 4, check=pinned("cotype"))
        s.call("norms", norms.restricted_cotype_check, nm, x[:12], 4, 2.0, check=pinned("restricted"))
        s.call("norms", norms.q_concavity_constant, nm, x, 4, check=pinned("concavity"))
    with s.group("constants"):
        s.call(
            "constants",
            constants.identity_checks,
            check=lambda out: refs.exact("constants/identity", out),
        )
    return {"cheeger_ub": ub}


def _exact_graph(s, refs: References, name: str) -> float:
    g = _load(s, refs, name)
    n = g.n

    def pinned(key):
        return lambda out: refs.exact(f"{name}/{key}", out)

    exact = s.call("spectral", spectral.cheeger_exact, g, check=pinned("cheeger_exact"))

    def upper_check(out):
        return pinned("cheeger_upper")(out) + checks.cheeger_order(exact, out)

    upper = s.call("spectral", spectral.cheeger_upper, g, check=upper_check)
    alpha = s.call(
        "expansion",
        expansion.fit_growth_alpha,
        g,
        check=pinned("fit_alpha"),
        tags=lambda out: {"masks": n << n},
    )
    s.call(
        "expansion",
        expansion.growth_check_exact,
        g,
        alpha,
        check=pinned("growth_exact"),
        tags=lambda out: {"masks": (out.witness["l"] if out.witness else n) << n},
    )
    params = expansion.ExpanParams(alpha=alpha, eps=0.2, L=2.0)
    s.call(
        "expansion",
        expansion.congestion_check_exact,
        g,
        params,
        check=pinned("congestion_exact"),
        tags=lambda out: {"masks": _congestion_masks(out)},
    )
    if g.d == 4:  # 2 s at n = 16, d = 3 and 44 s at n = 20, so n = 14 only
        s.call(
            "expansion",
            expansion.cheeger_growth_check,
            g,
            0.3,
            check=pinned("cheeger_growth"),
            tags=lambda out: {"masks": _cheeger_growth_masks(n, 0.3, out)},
        )
    return float(upper.value)


def _congestion_masks(verdict) -> int:
    """Candidate subsets the scan reports per scanned scale (computed)."""
    scales = verdict.details.get("scales", ())
    return sum(sc["checked"] for sc in scales if isinstance(sc["checked"], int))


def _cheeger_growth_masks(n: int, delta: float, report) -> int:
    """Ball tables (n * 2^n) plus subsets of size >= delta n (computed)."""
    if report.get("mode") != "exhaustive":
        return 0
    min_size = math.ceil(delta * n - 1e-9)
    return (n << n) + sum(math.comb(n, k) for k in range(min_size, n + 1))


WORKLOADS = {
    "sparse_certify": sparse_certify,
    "paper_regime": paper_regime,
    "exact_small": exact_small,
}
