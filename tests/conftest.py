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
