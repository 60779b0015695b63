"""Make the suite runnable from a fresh checkout without installation, and
share fixtures between test modules."""

import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import nearcommute  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture
def refuse_svd(monkeypatch):
    """Make numpy's SVD raise wherever numpy.linalg binds it (np.linalg.norm
    reaches it through its implementation module)."""
    real = np.linalg.svd

    def refuse(*args, **kwargs):
        raise AssertionError("SVD reached")

    for name, mod in list(sys.modules.items()):
        if name.startswith("numpy.linalg") and getattr(mod, "svd", None) is real:
            monkeypatch.setattr(mod, "svd", refuse)


@pytest.fixture
def screened_gates(monkeypatch):
    """Make op_norm raise while any ``op_norm_exceeds`` gate runs, in every
    nearcommute namespace that binds the gate; returns the names of the
    functions whose gates ran, one entry a gate."""
    from nearcommute import matcore

    gate, norm = matcore.op_norm_exceeds, matcore.op_norm
    seen, open_gates = [], []

    def screened(x, tol):
        seen.append(sys._getframe(1).f_code.co_name)
        open_gates.append(tol)
        try:
            return gate(x, tol)
        finally:
            open_gates.pop()

    def refusing(x):
        if open_gates:
            raise AssertionError("op_norm reached from a screened gate")
        return norm(x)

    monkeypatch.setattr(matcore, "op_norm", refusing)
    for name, mod in list(sys.modules.items()):
        if name.startswith("nearcommute") and getattr(mod, "op_norm_exceeds", None) is gate:
            monkeypatch.setattr(mod, "op_norm_exceeds", screened)
    return seen


@pytest.fixture
def tensor_lift_pair():
    """The Hermitian pair (dim 64) of the benchmark's first tensor-lift
    instance, taken from the driver call the instance makes; the pipeline
    selects the Hastings engine for both of its engine intervals."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench import workloads
    from nearcommute import pipeline

    pairs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "commute_hermitian_pair", lambda a, b: pairs.append((a, b)))
        workloads.tensor_lift(1)[0].call()
    return pairs[0]
