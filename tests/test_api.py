"""The public API: every name a module lists in __all__ exists, and the
package re-exports only names its modules export."""

import ast
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
