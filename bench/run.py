"""specgap benchmark: run a workload, check its outputs, print its metrics.

From the repository root:

    python3 bench/run.py                                   # all three workloads
    python3 bench/run.py --workload paper_regime --seed 3 --seconds 35 --trace 0

Each workload runs in a fresh worker process (``bench/worker.py``) with the
BLAS thread count pinned.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs the workload once untraced and once traced,
each for half the time, and prints the per-layer metrics, including the
tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Results, with the environment
record, are also written to ``bench/results/``.  README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import hostspeed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")

# Import timings per run, half before and half after the workload, so that
# they do not all fall into one slow phase of a shared host.
SETUP_REPEATS = 6
# One BLAS thread (which is at most nproc): a single caller makes the calls,
# and one thread keeps the order of reductions, and so the results, fixed.
BLAS_THREADS = 1
DEADLINE_S = 170  # every run ends well inside 180 s

# Times the import, then the host's reference loop (hostspeed.py, whose
# directory is argv[1]) in the same interpreter right after it.
IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
import specgap, specgap.sampling, specgap.graphs, specgap.spectral, specgap.expansion
import specgap.norms, specgap.poincare, specgap.constants
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hostspeed
ref = sum(hostspeed.reference() for _ in range(5)) / 5
print(t1 - t0, ref, specgap.__file__)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
    }


def _within(path: str, parent: str) -> bool:
    return os.path.realpath(path).startswith(os.path.realpath(parent) + os.sep)


def setup_times(repeats: int, deadline: float) -> list[tuple[float, float]]:
    """(import time of specgap and its dependencies, reference-loop time),
    each pair from a fresh interpreter."""
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, BENCH],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=True,
        )
        seconds, ref, where = out.stdout.split()
        if not _within(where, SRC):
            raise RuntimeError(f"specgap imported from {where}, not from {SRC}")
        times.append((float(seconds), float(ref)))
    return times


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if trace:
        cmd += ["--spans", os.path.join(RESULTS, f"{workload}-seed{seed}-spans.json")]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker for {workload} exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else float("nan")


def calls_s(passes: list[dict]) -> float:
    """Mean over the passes of the time spent inside library calls."""
    return sum(c[0] for p in passes for c in p["calls"].values()) / len(passes)


def wall_ref_s(passes: list[dict]) -> float:
    """Mean call time per pass at the reference speed of hostspeed.py."""
    calls = [c for p in passes for c in p["calls"].values()]
    return hostspeed.at_reference_speed(calls) / len(passes)


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def end_to_end(res: dict, setup: list[tuple[float, float]]) -> dict:
    """wall_ref_s, set-up time and peak RSS over the run; quality metrics from the first pass."""
    first = res["passes"][0]["quality"]
    ub = first["cheeger_ub"]
    lb = first.get("poincare_lb")
    if lb is None:  # no Poincare search in this workload: the fixed value 1.0
        lb_gm = 1.0
    else:
        lb_gm = math.exp(sum(map(math.log, lb)) / len(lb)) if lb else float("nan")
    return {
        "wall_ref_s": wall_ref_s(res["passes"]),
        "setup_s": _median([t * hostspeed.NOMINAL_S / ref for t, ref in setup]),
        "peak_rss_mb": res["peak_rss_mb"],
        "cheeger_ub_mean": sum(ub) / len(ub) if ub else float("nan"),
        "poincare_lb_gm": lb_gm,
    }


def per_layer(base: dict, traced: dict) -> dict:
    """Medians over the traced passes; errors summed; overhead against base."""
    rows = [p["layers"] for p in traced["passes"]]
    out = {k: _median([r[k] for r in rows]) for k in rows[0]}
    for k in out:
        if k.endswith(".errors"):
            out[k] = sum(r[k] for r in rows)
    untraced = _median([p["wall_s"] for p in base["passes"]])
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced
    return out


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(RESULTS, exist_ok=True)
    if trace:  # the untraced and the traced worker share the run's time
        base = run_worker(workload, seed, seconds / 2, 0, deadline)
        traced = run_worker(workload, seed, seconds / 2, 1, deadline)
        metrics = per_layer(base, traced)
        listed = spec["per_layer"]
        runs = [base, traced]
        import_s = None
    else:
        setup = setup_times(SETUP_REPEATS // 2, deadline)
        res = run_worker(workload, seed, seconds, 0, deadline)
        setup += setup_times(SETUP_REPEATS - SETUP_REPEATS // 2, deadline)
        metrics = end_to_end(res, setup)
        listed = spec["end_to_end"]
        runs = [res]
        import_s = _median([t for t, _ in setup])
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": [len(r["passes"]) for r in runs],
        "pass_wall_s": [[p["wall_s"] for p in r["passes"]] for r in runs],
        "calls_s": calls_s(runs[0]["passes"]),
        "import_s": import_s,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }


def report(result: dict, env: dict) -> None:
    w = result["workload"]
    passes = result["passes"]
    print(f"== {w}  seed={result['seed']}  trace={result['trace']}  "
          f"closed loop, 1 caller  passes={'+'.join(map(str, passes))}")
    samples = {
        "wall_ref_s": f"mean of {passes[0]} passes, at reference speed",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters, at reference speed",
        "peak_rss_mb": "1 worker process",
        "cheeger_ub_mean": "first pass, stored graphs",
        "poincare_lb_gm": "first pass, q-sweep; fixed 1.0 in workloads without a search",
    }
    for name, m in result["metrics"].items():
        note = samples.get(name, "median over traced passes")
        if name == "expansion.masks_scanned":
            note = "computed from the scans' definitions"
        elif name.endswith(".errors"):
            note = "summed over traced passes"
        print(f"   {name:<30} {m['value']:>16.6g} {m['unit']:<6}  {note}")
    print(f"   {'calls wall time':<30} {result['calls_s']:>16.6g} s       "
          f"mean of {passes[0]} passes, as measured (wall_ref_s before the host's "
          "speed is divided out)")
    if result["import_s"] is not None:
        print(f"   {'import time':<30} {result['import_s']:>16.6g} s       "
              "as measured (setup_s before the host's speed is divided out)")
    pass_s = result["pass_wall_s"][0]
    print(f"   {'pass wall time':<30} {_median(pass_s):>16.6g} s       median of {len(pass_s)} "
          f"passes; quartiles {' / '.join(f'{v:.4g}' for v in _quartiles(pass_s))}")
    a, f = result["attempted"], result["failed"]
    print(f"   {'fail_frac':<30} {f / a:>16.6g} ratio   {f}/{a} operations "
          "(library calls; one fails if it raised or failed an output check)")
    for line in result["failures"][:20]:
        print(f"   FAILED {line}")
    print(f"   env {json.dumps(env, sort_keys=True)}")
    path = os.path.join(RESULTS, f"{w}-seed{result['seed']}-trace{result['trace']}.json")
    with open(path, "w") as fh:
        json.dump({**result, "env": env}, fh, indent=1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "specgap", "__init__.py")):
        print(f"error: {SRC}/specgap not found; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if not set(todo) <= set(names):
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    seconds = args.seconds or spec["run_seconds"]

    env = environment()
    results = []
    for w in todo:
        res = run_workload(spec, w, args.seed, seconds, args.trace)
        report(res, env)
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
