"""Self-test of the benchmark's checks and of its determinism.

    python3 bench/selftest.py

1. Every output check gets a correct output, which it must accept, and one
   deliberately wrong output, which it must reject; fed through a Session,
   the wrong output must raise fail_frac.
2. Two runs of ``run.py`` with the same seed must print identical counts
   and quality metrics (paper_regime untraced and traced, exact_small
   traced; the minimum of two passes each).

Exits 0 when every case holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from specgap import (  # noqa: E402
    constants, expansion, graphs, norms, poincare, sampling, spectral,
)
from specgap.rand import make_rng  # noqa: E402
from tracing import Session  # noqa: E402


def cases():
    """(check name, check, correct output, wrong output)."""
    refs = workloads.References()
    name = "paper_n1000_d6"
    edges = refs.edges(name)
    spec = refs.spectrum(name)
    g = graphs.load_edge_list(workloads.read_stored(name))
    d, n = g.d, g.n
    summary = spectral.eigen_summary(g)
    yield "regular_graph", lambda e: checks.regular_graph(e, n, d), edges, \
        edges[:-1].copy().tolist() + [[0, 0]]
    bad = edges.copy()
    bad[-1, 1] = (bad[-1, 1] + 1) % n
    yield "same_graph", lambda e: checks.same_graph(g, e), edges, bad
    yield "eigen", lambda s: checks.eigen(s, d, spec), summary, \
        dataclasses.replace(summary, lambda2=summary.lambda2 + 0.01)
    fr = spectral.friedman_check(g)
    yield "friedman", lambda r: checks.friedman(r, d, spec), fr, \
        dataclasses.replace(fr, passed=not fr.passed)
    suff = expansion.spectral_sufficient_check(g)
    yield "sufficient", lambda v: checks.sufficient(v, d, spec), suff, \
        dataclasses.replace(suff, status="inconclusive")
    y = make_rng(0, 1).normal(size=n)
    y -= y.mean()
    y /= (y @ y) ** 0.5
    ws = spectral.walk_sum_bound_check(g, y, 8)
    ref_ws = checks.walk_sum_value(edges, n, y, 8)
    yield "walk_sum", lambda r: checks.walk_sum(r, ref_ws), ws, {**ws, "value": ws["value"] * 1.01}
    sw = spectral.cheeger_sandwich_check(g)
    yield "sandwich", lambda r: checks.sandwich(r, d, spec), sw, \
        {**sw, "h": (d - spec["lambda2"]) / 4}
    gs = expansion.growth_check_sampled(g, 0.01, 3, make_rng(0, 2))
    yield "sampled_verdict", checks.sampled_verdict, gs, dataclasses.replace(gs, status="pass")
    tr = sampling.explore(g, [0], 4)
    balls = checks.ball_sizes(edges, n, [0], 4)
    rows = tr.rows[:-1] + ((4, tr.rows[-1][1] - 1, tr.rows[-1][2], tr.rows[-1][3]),)
    yield "explore", lambda t: checks.explore(t, balls), tr, dataclasses.replace(tr, rows=rows)
    bc = constants.baseline_comparison(workloads.Q_GRID, d, spec["lambda2"])
    yield "baseline", lambda r: checks.baseline(r, workloads.Q_GRID), bc, \
        bc[:-1] + [{**bc[-1], "ratio_logs": bc[-1]["ratio_logs"] * 2}]
    uc = poincare.uc_experiment([g])
    mean = refs.mean_distance(name)
    yield "uc_mean_distance", lambda r: checks.uc_mean_distance(r, mean), uc, \
        [{**uc[0], "avg_distance": uc[0]["avg_distance"] + 1e-3}]
    l2 = poincare.gamma_scalar_l2_exact(g)
    yield "l2_exact", lambda r: checks.l2_exact(r, d, spec), l2, \
        dataclasses.replace(l2, gamma=l2.gamma * 1.01)
    upper = d / (d - spec["lambda2"])
    srch = poincare.gamma_search(g, norms.Lq(2), 2, 2, 200, make_rng(0, 10))
    yield "search", lambda r: checks.search(r, 200, upper), srch, \
        dataclasses.replace(srch, ratio=upper * 1.1)
    rc = poincare.poincare_ratio(g, srch.field, norms.Lq(2), 2)
    yield "recheck", lambda r: checks.recheck(r, srch), rc, dataclasses.replace(rc, ratio=rc.ratio * 1.001)
    small = graphs.load_edge_list(workloads.read_stored("small_n14_d4"))
    ce, cu = spectral.cheeger_exact(small), spectral.cheeger_upper(small)
    yield "cheeger_order", lambda e: checks.cheeger_order(e, cu), ce, \
        dataclasses.replace(ce, value=cu.value + Fraction(1, 7))
    yield "reference", lambda r: refs.exact("small_n14_d4/cheeger_exact", r), ce, \
        dataclasses.replace(ce, witness=frozenset(range(8)))


def check_cases() -> bool:
    ok = True
    for label, check, good, wrong in cases():
        session = Session()
        session.call("selftest", lambda: good, check=check)
        session.run_checks()
        frac_good = session.fail_count() / len(session.ops)
        session.call("selftest", lambda: wrong, check=check)
        session.run_checks()
        frac_wrong = session.fail_count() / len(session.ops)
        good_op, wrong_op = session.ops
        held = not good_op.failed and wrong_op.failed and frac_wrong > frac_good
        ok &= held
        print(f"{'ok  ' if held else 'FAIL'} {label:<17} fail_frac {frac_good:.2f} -> "
              f"{frac_wrong:.2f}  wrong output: {'; '.join(wrong_op.problems)[:100]}")
        if good_op.failed:
            print("     correct output was rejected:", good_op.problems)
    return ok


def run_twice(workload: str, trace: int, keys) -> bool:
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
             "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        outs.append({"attempted": res["attempted"], "failed": res["failed"],
                     **{k: res["metrics"][k]["value"] for k in keys}})
    same = outs[0] == outs[1]
    print(f"{'ok  ' if same else 'FAIL'} {workload} trace={trace} twice with seed 5: "
          f"{json.dumps(outs[0])}" + ("" if same else f" vs {json.dumps(outs[1])}"))
    return same


def main() -> int:
    ok = check_cases()
    ok &= run_twice("paper_regime", 0, ["cheeger_ub_mean", "poincare_lb_gm"])
    ok &= run_twice("paper_regime", 1, ["sampling.attempts", "poincare.search_evals", "trace.spans"])
    ok &= run_twice("exact_small", 1, ["expansion.masks_scanned", "trace.spans"])
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
