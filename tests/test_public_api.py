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


REPO = Path(__file__).resolve().parents[1]

# Exported names that no library or benchmark code calls, each kept for a
# reason of its own.
EXHIBITS = {
    "three_hermitian": "the paper's three-Hermitian corollary, as a driver",
    "unitary_pair_gap": "the paper's gapped-unitary-pair variant, as a driver",
    "tridiag_positive_test": "the positivity test behind the decay argument",
    "proof_matrix_M": "the Gram matrix M of the decay argument",
    "decay_check_U": "the measured decay fit of U's N-family coefficients",
    "random_block_tridiagonal": "input generator for the W-engines",
}


def _library_references() -> set:
    """Names and attributes referenced from src/ and the non-test benchmark
    code, and the names bench/tracer.py lists as strings."""
    files = [p for p in [*(REPO / "src").rglob("*.py"), *(REPO / "bench").glob("*.py")]
             if not p.name.startswith("test_")]
    refs = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and path.name == "tracer.py"):
                refs.add(node.value)
    return refs


def test_every_export_is_used_or_an_exhibit():
    refs = _library_references()
    unused = [(name, export) for name in MODULES
              for export in getattr(importlib.import_module(f"nearcommute.{name}"),
                                    "__all__", [])
              if export not in refs and export not in EXHIBITS]
    assert unused == []
