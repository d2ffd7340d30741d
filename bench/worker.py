"""Run one workload in this (fresh) process and print its result as JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``bench/run.py`` starts this with ``src`` on PYTHONPATH and the BLAS thread
count pinned.  A pass makes every call of the workload once.  Passes repeat
while the next one is expected to end within ``--seconds`` (at least
``MIN_PASSES`` run).  Each pass and each call in it is timed, with the checks
outside the timed region; the last line of stdout is the JSON result.  With ``--trace 1`` the
spans of every pass are written to ``--spans`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import uuid
from collections import Counter

from tracing import Session, self_times

MIN_PASSES = 2

LAYERS = ("sampling", "graphs", "spectral", "expansion", "norms", "poincare", "constants")

# per-layer time metric -> span name of the library call it sums
SPAN_TIMES = {
    "sampling.sample_s": "sampling.sample_simple_regular",
    "sampling.explore_s": "sampling.explore",
    "graphs.load_s": "graphs.load_edge_list",
    "spectral.eigen_summary_s": "spectral.eigen_summary",
    "spectral.friedman_s": "spectral.friedman_check",
    "spectral.walk_sum_s": "spectral.walk_sum_bound_check",
    "spectral.sandwich_s": "spectral.cheeger_sandwich_check",
    "spectral.cheeger_upper_s": "spectral.cheeger_upper",
    "spectral.cheeger_exact_s": "spectral.cheeger_exact",
    "expansion.sufficient_s": "expansion.spectral_sufficient_check",
    "expansion.growth_sampled_s": "expansion.growth_check_sampled",
    "expansion.growth_exact_s": "expansion.growth_check_exact",
    "expansion.fit_alpha_s": "expansion.fit_growth_alpha",
    "expansion.congestion_exact_s": "expansion.congestion_check_exact",
    "expansion.cheeger_growth_s": "expansion.cheeger_growth_check",
    "norms.cotype_exact_s": "norms.cotype_constant_exact",
    "norms.restricted_cotype_s": "norms.restricted_cotype_check",
    "norms.concavity_s": "norms.q_concavity_constant",
    "poincare.l2_exact_s": "poincare.gamma_scalar_l2_exact",
    "poincare.all_pairs_s": "poincare.uc_experiment",
    "poincare.ratio_s": "poincare.poincare_ratio",
}


def layer_metrics(session: Session) -> dict:
    """Per-layer metrics of one traced pass, from its spans and operations."""
    spans = session.spans
    own = self_times(spans)
    by_name = Counter()
    for sp in spans:
        by_name[sp.name] += own[sp.span_id]
    m = {metric: by_name[name] for metric, name in SPAN_TIMES.items()}
    m["constants.eval_s"] = sum(t for k, t in by_name.items() if k.startswith("constants."))

    def spans_of(name, **want):
        return [sp for sp in spans if sp.name == name and all(sp.tags.get(k) == v for k, v in want.items())]

    draws = spans_of("sampling.sample_simple_regular")
    attempts = sum(sp.tags["attempts"] for sp in draws)
    m["sampling.attempts"] = attempts
    m["sampling.accept_ratio"] = len(draws) / attempts if attempts else 0.0
    m["sampling.attempt_us"] = 1e6 * m["sampling.sample_s"] / attempts if attempts else 0.0

    iterative = spans_of("spectral.eigen_summary", mode="iterative")
    m["spectral.arpack_residual_max"] = max((sp.tags["residual"] for sp in iterative), default=0.0)

    m["expansion.masks_scanned"] = sum(
        sp.tags.get("masks", 0) for sp in spans if sp.name.startswith("expansion.")
    )

    lq = spans_of("poincare.gamma_search", block=False)
    block = spans_of("poincare.gamma_search", block=True)
    m["poincare.search_s"] = sum(own[sp.span_id] for sp in lq)
    m["poincare.search_block_s"] = sum(own[sp.span_id] for sp in block)
    evals = sum(sp.tags["evals"] for sp in lq + block)
    search_s = m["poincare.search_s"] + m["poincare.search_block_s"]
    m["poincare.search_evals"] = evals
    m["poincare.evals_per_s"] = evals / search_s if search_s else 0.0

    errors = Counter(op.module for op in session.ops if op.failed)
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]

    root = spans[0]  # the pass span
    m["trace.wall_s"] = root.duration
    m["trace.self_sum_s"] = sum(own.values())
    m["trace.glue_s"] = sum(own[sp.span_id] for sp in spans if sp.name == "pass" or sp.name.startswith("group."))
    m["trace.spans"] = len(spans)
    return m


def call_times(session: Session) -> dict:
    """(seconds, ref_before, ref_after) of each call of a pass, keyed by
    group, name and occurrence."""
    out, seen = {}, Counter()
    for op in session.ops:
        name = f"{op.group}/{op.module}.{op.function}"
        seen[name] += 1
        out[f"{name}#{seen[name]}"] = (op.seconds, op.ref_before, op.ref_after)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", help="file for the spans of a traced run")
    args = ap.parse_args()

    import workloads

    run = workloads.WORKLOADS[args.workload]
    refs = workloads.References()
    run_id = uuid.uuid4().hex[:12] if args.trace else None
    started = time.perf_counter()
    passes, sessions = [], []
    while True:
        session = Session(run_id)
        gc.collect()
        t0 = time.perf_counter()
        with session.span("pass"):
            quality = run(session, args.seed, refs)
        wall = time.perf_counter() - t0
        session.finish()
        session.run_checks()
        record = {
            "wall_s": wall,
            "calls": call_times(session),
            "quality": quality,
            "ops": len(session.ops),
            "failed": session.fail_count(),
        }
        if args.trace:
            record["layers"] = layer_metrics(session)
        passes.append(record)
        sessions.append(session)
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + min(p["wall_s"] for p in passes) > args.seconds:
            break

    failures = [
        f"pass {i}: {op.group}/{op.module}.{op.function}: {op.error or '; '.join(op.problems)}"
        for i, s in enumerate(sessions)
        for op in s.ops
        if op.failed
    ]
    if args.trace and args.spans:
        with open(args.spans, "w") as fh:
            json.dump(
                [
                    {**sp.__dict__, "pass": i}
                    for i, s in enumerate(sessions)
                    for sp in s.spans
                ],
                fh,
                default=float,
            )
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_id": run_id,
        "passes": passes,
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": failures[:50],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(result, default=float))  # numpy scalars
    return 0


if __name__ == "__main__":
    sys.exit(main())
