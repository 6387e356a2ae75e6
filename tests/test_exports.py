"""The public API as declared: every `__all__` entry resolves, and the
package re-exports only names its modules declare public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import octainscribe

MODULES = sorted(m.name for m in pkgutil.iter_modules(octainscribe.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"octainscribe.{name}")
    public = getattr(module, "__all__", ())
    assert len(set(public)) == len(public), f"duplicate entries in {name}.__all__"
    missing = [n for n in public if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _package_imports():
    """(module, name) for every `from .module import name` in __init__.py."""
    tree = ast.parse(Path(octainscribe.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_exports_are_declared_public():
    imports = _package_imports()
    assert imports
    undeclared = [
        f"{module}.{name}"
        for module, name in imports
        if name not in getattr(importlib.import_module(f"octainscribe.{module}"), "__all__", ())
    ]
    assert not undeclared, f"package imports names missing from their module's __all__: {undeclared}"
