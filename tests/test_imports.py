"""scipy stays out of the process unless the ARPACK path asks for it:
importing it costs more than the rest of the package.  The dense-path
pipeline below includes a walk-sum bound at n = DENSE_LIMIT, which multiplies
by the adjacency through the neighbour rows, not through a scipy matrix."""

import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import specgap
from specgap import constants

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


def test_private_dataclass_fields_are_not_constructor_arguments():
    # a private slot that the constructor or dataclasses.replace can set lets
    # a caller hand an object a value it did not compute, such as a cached
    # spectrum of another graph
    init = {}  # (class, private field) -> whether the constructor takes it
    for mod in pkgutil.iter_modules(specgap.__path__):
        module = importlib.import_module(f"specgap.{mod.name}")
        for cls in vars(module).values():
            if dataclasses.is_dataclass(cls) and isinstance(cls, type) and cls.__module__ == module.__name__:
                init |= {(cls.__name__, f.name): f.init for f in dataclasses.fields(cls) if f.name[0] == "_"}
    assert ("RegularGraph", "_summary") in init
    assert [key for key, taken in init.items() if taken] == []


# Exported names with no reader in the library or in bench/ yet, and why
# each one stays
UNCALLED = {
    "congestion_certificate": "part B at any n; the benchmark's report of L_B will read it",
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
    top-level function's or class's reads of its own name do not count."""
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
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        visit(top, own, set())
    return names


def _sources():
    """The parsed library modules, and the parsed library and bench/ modules."""
    root = Path(__file__).resolve().parents[1]
    library = sorted((root / "src" / "specgap").glob("*.py"))
    files = library + sorted((root / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    return [trees[path] for path in library], list(trees.values())


def _public_functions(library):
    """The top-level functions that the library modules export."""
    for tree in library:
        exported = _exported(tree)
        yield from (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in exported)


def _public_methods(library):
    """The public methods of the classes that the library modules export."""
    for tree in library:
        exported = _exported(tree)
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name in exported):
            yield from (n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name[0] != "_")


def test_every_exported_function_has_a_caller():
    # every exported name (function, class, exception or constant) and every
    # public method of an exported class needs a reader: a library or bench/
    # module that reads it (see _read_names)
    library, trees = _sources()
    public = set().union(*map(_exported, library))
    methods = {f.name for f in _public_methods(library)}
    called = set().union(*map(_read_names, trees))
    assert "eval_pow" in methods
    assert {"ExpanParams", "DENSE_LIMIT", "RegularGraph"} <= public
    assert set(UNCALLED) <= public
    assert sorted((public | methods) - called - set(UNCALLED)) == []


# Defaulted parameters of public functions that no library or bench/ call
# sets, and why each one stays
UNSET = {}


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a parameter counts as set where a call to a function of its name, in a
    # library or bench/ module, passes it by keyword or by position; a **mapping
    # or *sequence argument sets nothing
    library, trees = _sources()
    defaulted = {}  # (function, parameter) -> its position, None if keyword-only
    for f in _public_functions(library):
        positional = f.args.posonlyargs + f.args.args
        for at, a in enumerate(positional):
            if at >= len(positional) - len(f.args.defaults):
                defaulted[f.name, a.arg] = at
        for a, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                defaulted[f.name, a.arg] = None
    set_ = set()
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        keywords = {k.arg for k in call.keywords}
        for (fn, param), at in defaulted.items():
            if fn == name and (param in keywords or (at is not None and at < len(call.args))):
                set_.add((fn, param))
    assert set(UNSET) <= set(defaulted)
    assert sorted(set(defaulted) - set_ - set(UNSET)) == []


# Closed forms of constants._LN that no library or bench/ call evaluates and
# no other closed form reads, and why each one stays
UNEVALUATED = {
    "c": "the paper's constant c = alpha^2 / (48 d (d - 1)), defined nowhere else",
    "eta": "the paper's constant eta(d), defined nowhere else",
}


def test_every_constant_is_evaluated_or_read():
    # a constant counts as evaluated where a library or bench/ module calls
    # eval_constant with its name as a string literal, and as read where
    # another closed form of the table subscripts _LN with it
    _, trees = _sources()
    evaluated = {
        call.args[0].value
        for tree in trees
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) == "eval_constant"
        and call.args
        and isinstance(call.args[0], ast.Constant)
    }
    table = next(
        node.value
        for node in ast.parse(Path(constants.__file__).read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_LN"]
    )
    read = {
        sub.slice.value
        for form in table.values
        for sub in ast.walk(form)
        if isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == "_LN"
    }
    assert [key.value for key in table.keys] == list(constants._LN)
    assert set(UNEVALUATED) <= set(constants._LN) - evaluated - read
    assert sorted(set(constants._LN) - evaluated - read - set(UNEVALUATED)) == []
