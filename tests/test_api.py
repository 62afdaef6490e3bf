"""The public API: every name a module lists in __all__ exists, the
package re-exports only names its modules export, every module loads
only names it binds and uses every name it imports, and no module checks
a value against a ``typing`` alias."""

import ast
import builtins
import importlib
import pkgutil

import pytest

import sigzero

MODULES = sorted(m.name for m in pkgutil.iter_modules(sigzero.__path__))


def _exported(mod):
    # a module without __all__ exports its public names
    if hasattr(mod, "__all__"):
        return set(mod.__all__)
    return {n for n in vars(mod) if not n.startswith("_")}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module("sigzero." + name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def test_package_reexports_only_exported_names():
    with open(sigzero.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module("sigzero." + node.module)
        stray = [a.name for a in node.names if a.name not in _exported(mod)]
        assert not stray, (node.module, stray)


def _names(path):
    """The names a module binds anywhere, the names it loads, and the names
    its imports bind (skipping ``from __future__``).  Scopes are merged,
    which is enough to catch a missing or a stray import."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    bound, loaded, imported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            (loaded if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    return bound | imported, loaded, imported


@pytest.mark.parametrize("name", MODULES)
def test_module_names_bound_and_imports_used(name):
    path = importlib.import_module("sigzero." + name).__file__
    bound, loaded, imported = _names(path)
    unbound = loaded - bound - set(dir(builtins))
    assert not unbound, "%s loads unbound names %s" % (name, sorted(unbound))
    unused = imported - loaded
    assert not unused, "%s imports unused names %s" % (name, sorted(unused))


@pytest.mark.parametrize("name", MODULES)
def test_isinstance_takes_no_typing_alias(name):
    # isinstance(x, typing.Mapping) answers as isinstance(x,
    # collections.abc.Mapping) at more than twice the cost
    with open(importlib.import_module("sigzero." + name).__file__) as fh:
        tree = ast.parse(fh.read())
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            aliases.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "typing")
    passed = {n.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
    assert not passed & aliases, "%s passes %s to isinstance" % (name, sorted(passed & aliases))
