"""Call tracing for the benchmark's traced run.

The library is not modified.  ``Tracer.install`` replaces each traced public
function by a wrapper in every module namespace that holds it (a function
imported by name, ``from .matcore import op_norm``, is bound in several
modules), and ``Tracer.uninstall`` puts the originals back.

A wrapper records a span only while a root span is open, so input generation
and the output gate, which run between the timed calls, leave no spans.
Spans are kept in flat in-memory lists (name, start, end, parent) and are
written out by ``Tracer.dump`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Traced public functions, by layer.  Layer names are the library's modules;
# "numpy" holds the two LAPACK kernels the layers above spend their time in.
TRACED = {
    "matcore": ("op_norm", "eig_hermitian"),
    "smoothing": ("finite_range", "finite_range_multi", "finite_range_normal"),
    "subspace": ("verify_tridiagonal", "szarek_W", "certify_W", "hastings_W",
                 "joint_jacobi"),
    "projgeom": ("nest_projection_core", "jordan_basis"),
    "bounds": ("check_davis_kahan", "check_comm_proj", "schur_divide",
               "check_spectral_gap", "fourier_commutator_bound",
               "verify_finite_range", "lieb_robinson_decay",
               "lieb_robinson_function", "lieb_robinson_nested"),
    "pipeline": ("commute_hermitian_pair", "commute_hermitian_unitary"),
    "suites": ("run_suite",),
}
NUMPY_TRACED = ("svd", "eigh")
ROOT = "bench.instance"

# Layers whose spans are attributed to the nearest caller outside them when
# splitting matcore time by calling layer.
KERNEL_LAYERS = ("matcore", "numpy")


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """Open the root span around one timed entry call."""
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return functools.wraps(fn)(traced)

    def reset(self) -> None:
        """Drop recorded spans (between passes)."""
        if self._stack:
            raise RuntimeError("reset while a span is open")
        self.names, self.starts, self.ends, self.parents = [], [], [], []

    # -- installation --------------------------------------------------------
    def _patch_everywhere(self, original, wrapper, module_prefix: str) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(module_prefix):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"nearcommute.{layer}")
            for name in names:
                original = getattr(mod, name)
                self._patch_everywhere(original, self.wrap(original, f"{layer}.{name}"),
                                       "nearcommute")
        for name in NUMPY_TRACED:
            original = getattr(np.linalg, name)
            self._patch_everywhere(original, self.wrap(original, f"numpy.{name}"),
                                   "numpy.linalg")
        # Profile.fourier computes its quadrature through this method once per
        # Profile object; each computation is one span.
        profile_cls = sys.modules["nearcommute.smoothing"].Profile
        original = profile_cls.__dict__["_compute_fourier"]
        self._patched.append((profile_cls, "_compute_fourier", original))
        setattr(profile_cls, "_compute_fourier",
                self.wrap(original, "smoothing.fourier"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation ---------------------------------------------------------
    def summary(self) -> dict:
        """Per-name calls, self time and inclusive time for the recorded
        spans, plus the attributions the per-layer metrics need."""
        n = len(self.names)
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parent = np.asarray(self.parents, dtype=int)
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time

        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        op_norm_from: dict[str, float] = defaultdict(float)
        jacobi_eigh = 0
        # Parents precede children, so one forward pass resolves ancestry.
        caller_layer = [""] * n
        names_above: list[frozenset] = [frozenset()] * n  # span's name and its ancestors'
        for i, name in enumerate(self.names):
            p = parent[i]
            above = names_above[p] if p >= 0 else frozenset()
            up_layer = caller_layer[p] if p >= 0 else "entry"
            layer = name.split(".", 1)[0]
            caller_layer[i] = up_layer if layer in KERNEL_LAYERS else layer
            calls[name] += 1
            self_s[name] += float(self_time[i])
            if name not in above:  # outermost span of this name: inclusive time
                incl_s[name] += float(dur[i])
                above = above | {name}
            names_above[i] = above
            if name == "matcore.op_norm":
                op_norm_from[up_layer] += float(self_time[i])
            elif name == "numpy.eigh" and "subspace.joint_jacobi" in above:
                jacobi_eigh += 1
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "op_norm_self_s_from": dict(op_norm_from),
            "jacobi_eigh_calls": jacobi_eigh,
            "spans": n,
        }

    def dump(self, path) -> None:
        """Write the recorded spans as JSON: a name table and one
        [name_id, start, end, parent] row per span."""
        table = sorted(set(self.names))
        ids = {name: k for k, name in enumerate(table)}
        rows = [[ids[nm], s, e, p] for nm, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w") as fh:
            json.dump({"names": table, "spans": rows}, fh)
