"""Every exported name resolves: each module's __all__ and the package
namespace."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nearcommute

MODULES = sorted(m.name for m in pkgutil.iter_modules(nearcommute.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"nearcommute.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []


def test_package_namespace_resolves():
    tree = ast.parse(Path(nearcommute.__file__).read_text())
    imported = [(node.module, alias.asname or alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"nearcommute.{module}")
        assert getattr(nearcommute, name) is getattr(source, name)
