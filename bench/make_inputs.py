"""Generate the benchmark's stored graphs and the exact_small references.

Run once from the repository root:

    python3 bench/make_inputs.py

Every stored graph is drawn with the library's own sampler from the seed
listed in ``STORED`` and written as an edge list next to ``manifest.json``,
which records (n, d, seed).  The seeds were fixed before any graph was drawn
(all equal to 2410, the paper's arXiv month) and were not chosen for
rejection counts or for how the graphs behave.  Keeping the files means a
later change to the sampler cannot change the inputs of the quality metrics
or of the pinned checks.

``norm_vectors.json`` holds the 16 fixed vectors of the exact Rademacher
enumerations, drawn from the same seed.  ``references.json`` holds the
exact_small results as computed by the code at the commit that generated
it; the benchmark compares against them.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

STORED_SEED = 2410
# name -> (n, d); every graph is sample_simple_regular(n, d, STORED_SEED)
STORED = {
    "sparse_n5000_d3": (5000, 3),
    "sparse_n5000_d4": (5000, 4),
    "paper_n1000_d6": (1000, 6),
    "small_n16_d3": (16, 3),
    "small_n14_d4": (14, 4),
}


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from specgap.graphs import save_edge_list
    from specgap.rand import make_rng
    from specgap.sampling import sample_simple_regular

    os.makedirs(DATA, exist_ok=True)
    manifest = {}
    for name, (n, d) in STORED.items():
        g, rejections = sample_simple_regular(n, d, STORED_SEED)
        with open(os.path.join(DATA, f"{name}.edges"), "w") as fh:
            fh.write(save_edge_list(g))
        manifest[name] = {"n": n, "d": d, "seed": STORED_SEED, "rejections": rejections}
        print(f"{name}: n={n} d={d} seed={STORED_SEED} rejections={rejections}")
    with open(os.path.join(DATA, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")

    vectors = make_rng(STORED_SEED).normal(size=(16, 6)).tolist()
    with open(os.path.join(DATA, "norm_vectors.json"), "w") as fh:
        json.dump(vectors, fh)
        fh.write("\n")

    import workloads
    from tracing import Session

    recorder = workloads.Recorder()
    session = Session()
    workloads.exact_small(session, 0, recorder)
    session.run_checks()
    if session.fail_count():
        raise RuntimeError([op for op in session.ops if op.failed])
    with open(os.path.join(DATA, "references.json"), "w") as fh:
        json.dump(recorder.recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("references:", ", ".join(sorted(recorder.recorded)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
