"""scipy stays out of the process unless the ARPACK path asks for it:
importing it costs more than the rest of the package.  The dense-path
pipeline below includes a walk-sum bound at n = DENSE_LIMIT, which multiplies
by the adjacency through the neighbour rows, not through a scipy matrix."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import specgap

SCRIPT = r"""
import json, pkgutil, sys
import specgap

for mod in pkgutil.iter_modules(specgap.__path__):
    __import__(f"specgap.{mod.name}")
after_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from specgap import constants, norms, poincare, spectral
from specgap.rand import make_rng
from specgap.sampling import sample_simple_regular

g, _ = sample_simple_regular(200, 6, make_rng(0))
summary = spectral.eigen_summary(g)
assert summary.mode == "dense"
spectral.cheeger_sandwich_check(g)
poincare.uc_experiment([g])
poincare.gamma_scalar_l2_exact(g)
field = make_rng(1).normal(size=(g.n, 2))
poincare.poincare_ratio(g, field, norms.Lq(2), 2.0)
poincare.gamma_search(g, norms.Lq(4), 4.0, 2, 60, make_rng(2))
constants.baseline_comparison([2, 4, 8], g.d, summary.lambda2)
big, _ = sample_simple_regular(spectral.DENSE_LIMIT, 6, make_rng(3))
assert spectral.friedman_check(big).passed_21
y = make_rng(4).normal(size=big.n)
y -= y.mean()
y /= (y @ y) ** 0.5
assert spectral.walk_sum_bound_check(big, y, 4)["ok"]
after_pipeline = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"modules": sorted(m.name for m in pkgutil.iter_modules(specgap.__path__)),
                  "after_import": after_import, "after_pipeline": after_pipeline}))
"""


def test_scipy_stays_unimported_on_the_dense_path():
    src = os.path.dirname(os.path.dirname(specgap.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr[-3000:]
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert {"graphs", "spectral", "poincare", "norms", "expansion"} <= set(got["modules"])
    assert got["after_import"] == []
    assert got["after_pipeline"] == []


def test_every_exported_name_resolves():
    # a name deleted from a module but left in its __all__ breaks star imports
    for mod in pkgutil.iter_modules(specgap.__path__):
        module = importlib.import_module(f"specgap.{mod.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (mod.name, missing)
