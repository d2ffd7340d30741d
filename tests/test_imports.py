"""scipy stays out of the process unless the ARPACK path asks for it:
importing it costs more than the rest of the package.  The dense-path
pipeline below includes a walk-sum bound at n = DENSE_LIMIT, which multiplies
by the adjacency through the neighbour rows, not through a scipy matrix."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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

g, _ = sample_simple_regular(spectral.DENSE_LIMIT, 6, make_rng(0))
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


# Public functions with no caller in the library or in bench/ yet, and why
# each one stays
UNCALLED = {
    "popular_edge_bound_check": "a lemma check for the planned run report",
    "almost_disjoint_lower_bound_check": "a lemma check for the planned run report",
    "frontier_unique_montecarlo": "a lemma check for the planned run report",
    "restricted_cotype_constant": "the tests hold a loop oracle for it",
    "complete_bipartite": "a named fixture graph",
    "petersen_graph": "a named fixture graph",
    "circular_ladder": "a named fixture graph",
    "disjoint_union": "a named fixture graph",
}


def _exported(tree: ast.Module) -> set:
    """The names of a module's __all__, as written in its source."""
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if "__all__" in targets:
            return set(ast.literal_eval(node.value))
    return set()


def _read_names(tree: ast.Module) -> set:
    """The names a module reads: every attribute, and every name other than
    the parameters and assignment targets of its innermost enclosing
    function, which shadow a module-level name of the same spelling.  A
    top-level function's reads of its own name do not count."""
    names = set()

    def visit(node, own, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            local = {a.arg for a in params} | {
                n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
        elif isinstance(node, ast.Name) and node.id != own and node.id not in local:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != own:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own, local)

    for top in tree.body:
        visit(top, top.name if isinstance(top, ast.FunctionDef) else None, set())
    return names


def test_every_exported_function_has_a_caller():
    # a name counts as called where a library or bench/ module reads it (see
    # _read_names)
    root = Path(__file__).resolve().parents[1]
    library = sorted((root / "src" / "specgap").glob("*.py"))
    files = library + sorted((root / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    public = set()
    for path in library:
        exported = _exported(trees[path])
        defs = {n.name for n in trees[path].body if isinstance(n, ast.FunctionDef)}
        public |= defs & exported
    called = set().union(*map(_read_names, trees.values()))
    assert set(UNCALLED) <= public
    assert sorted(public - called - set(UNCALLED)) == []
