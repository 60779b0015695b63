"""The benchmark's workloads: seeded inputs, timed entry calls and the
output gate.

Each workload builds a fixed list of ``Instance`` objects from the seed.  The
library receives only the generated matrices.  ``Instance.call`` is the timed
part: calls into the library's public functions, looked up on their module at
call time so that the traced run sees its wrappers.  ``Instance.gate`` checks
the output (untimed) and returns the instance's row of quality columns.

Why these workloads (shares measured on the seed code, 2-CPU box):

- planted: the big-matrix LAPACK path of both pipeline drivers (operator-norm
  SVDs, finite-range averaging, Szarek intervals, regroup and pinch); the
  Jacobi oracle does nothing.
- tensor-lift: the Hastings route, dominated by the Jacobi oracle.
- verify-suites: thousands of small matrices, so per-call overhead of the
  matcore kernel dominates; the only workload that reaches ``bounds``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nearcommute import gallery, pipeline, suites

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass
class Instance:
    """One timed entry call with its output gate."""

    label: str
    call: Callable[[], object]
    gate: Callable[[object], dict]
    # untimed comparison line (cheap_commute on the same input), or None
    reference: Callable[[], dict] | None = None
    # units of work behind fail_ratio: 1, or the trial count of a suite
    attempts: int = 1


def gate_tol(n: int) -> float:
    """Roundoff gate for residuals and Hermitian/unitary defects."""
    return 1e-12 * max(n, 1)


def _norm2(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _planted_pair(rng, n: int, delta: float, unitary: bool):
    """(A0 + tG)/(1 + t) against a B0 (or U0) commuting with A0, with t
    chosen so that ||[A, B0]|| = delta.

    The seed draws the shared eigenbasis and G.  The spectra come from a
    fixed stream: B's spectrum alone decides the interval routes (gap,
    Szarek, Hastings, degenerate), and with it the work per instance, which
    would otherwise vary about 2x in SVD count between seeds.
    """
    spectra = np.random.default_rng([n, int(unitary)])
    q = _haar(rng, n)
    a0 = (q * spectra.uniform(-0.9, 0.9, n)) @ q.conj().T
    if unitary:
        b0 = (q * np.exp(1j * spectra.uniform(0.0, 2 * math.pi, n))) @ q.conj().T
    else:
        b0 = _hermitian((q * spectra.uniform(-0.9, 0.9, n)) @ q.conj().T)
    g = _hermitian(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    g /= _norm2(g)
    base = _norm2(g @ b0 - b0 @ g)
    t = delta / (base - delta)
    return _hermitian((a0 + t * g) / (1.0 + t)), b0


# ---------------------------------------------------------------------------
# Output gates
# ---------------------------------------------------------------------------

def _routes(stage_log: dict) -> dict:
    routes = Counter()
    for entry in stage_log.get("intervals", []):
        if entry.get("degenerate"):
            routes["degenerate"] += 1
        elif "trivial_gap" in entry:
            routes["gap"] += 1
        else:
            routes[entry.get("engine", "none")] += 1
    return dict(routes)


def pipeline_gate(report, a, b, unitary: bool) -> dict:
    """Gate a CommuteReport: A' Hermitian, B' Hermitian (U' unitary), the
    outputs commute to gate_tol(n) (recomputed here), and every recorded
    BoundCheck passed."""
    n = a.shape[0]
    tol = gate_tol(n)
    ap, bp = report.a_prime, report.b_prime
    residual = _norm2(ap @ bp - bp @ ap)
    problems = []
    if _norm2(ap - ap.conj().T) > tol:
        problems.append("A' not Hermitian")
    if unitary:
        if _norm2(bp.conj().T @ bp - np.eye(n)) > tol:
            problems.append("U' not unitary")
    elif _norm2(bp - bp.conj().T) > tol:
        problems.append("B' not Hermitian")
    if residual > tol or report.comm_residual > tol:
        problems.append(f"outputs do not commute: {max(residual, report.comm_residual):.3e}")
    failed = [c.context for c in report.checks if not c.passed]
    if failed:
        problems.append("BoundCheck failed: " + "; ".join(failed))
    log = report.stage_log
    delta = float(log["delta"])
    return {
        "n": n,
        "delta": delta,
        "n_cut": log["n_cut"],
        "dist_a": report.dist_a,
        "dist_b": report.dist_b,
        "comm_residual": report.comm_residual,
        "dist_ratio": max(report.dist_a, report.dist_b) / delta ** (1.0 / 3.0),
        "routes": _routes(log),
        "check_skipped": bool(log.get("degenerate_intervals")),
        "eps2": float(log["eps2_max"]),
        "checks": len(report.checks),
        "ok": not problems,
        "why": "; ".join(problems),
    }


def suite_gate(result: dict, trials: int) -> dict:
    """Gate a suite tally: every requested trial ran, no slack violation."""
    problems = list(result["failures"])
    if result["trials"] != trials:
        problems.append(f"ran {result['trials']} of {trials} trials")
    return {
        "trials": result["trials"],
        "violations": result["violations"],
        "checks": result["trials"],
        "failed": max(result["violations"], trials - result["trials"]),
        "ok": not problems,
        "why": "; ".join(problems),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _cheap_reference(a, b) -> dict:
    rep = pipeline.cheap_commute(a, b)
    delta = float(rep.stage_log["delta"])
    return {"ref": "cheap_commute", "dist_a": rep.dist_a, "dist_b": rep.dist_b,
            "comm_residual": rep.comm_residual,
            "dist_ratio": max(rep.dist_a, rep.dist_b) / delta ** (1.0 / 3.0)}


def _pipeline_instance(label: str, a, b, unitary: bool,
                       reference: bool = False) -> Instance:
    def call():
        if unitary:
            return pipeline.commute_hermitian_unitary(a, b)
        return pipeline.commute_hermitian_pair(a, b)
    return Instance(label, call, lambda rep: pipeline_gate(rep, a, b, unitary),
                    (lambda: _cheap_reference(a, b)) if reference else None)


def planted(seed: int, tiny: bool = False) -> list[Instance]:
    rng = np.random.default_rng(seed)
    sizes = (12, 16) if tiny else (128, 256)
    deltas = (1e-2, 1e-4) if tiny else (1e-2, 1e-4, 1e-6)
    out = []
    for n in sizes:
        for delta in deltas:
            a, b = _planted_pair(rng, n, delta, unitary=False)
            out.append(_pipeline_instance(f"herm n={n} delta={delta:g}", a, b, False,
                                          reference=True))
    for n in sizes:
        a, u = _planted_pair(rng, n, 1e-3, unitary=True)
        out.append(_pipeline_instance(f"unitary n={n} delta=0.001", a, u, True))
    return out


def tensor_lift(seed: int, tiny: bool = False) -> list[Instance]:
    rng = np.random.default_rng(seed)
    out = []
    for big_n in ((3, 4) if tiny else (6, 7)):
        q = _haar(rng, 2 ** big_n)
        a = _hermitian(q @ gallery.tn_lift(SIGMA_X, big_n) @ q.conj().T)
        b = _hermitian(q @ gallery.tn_lift(SIGMA_Z, big_n) @ q.conj().T)
        out.append(_pipeline_instance(f"tn_lift N={big_n}", a, b, False))
    return out


SUITE_TRIALS = {"bounds": 100, "lieb-robinson": 50, "projections": 100,
                "smoothing": 100, "tn": 50}


def verify_suites(seed: int, tiny: bool = False) -> list[Instance]:
    out = []
    for name, trials in SUITE_TRIALS.items():
        trials = 2 if tiny else trials
        out.append(Instance(
            f"suite {name} trials={trials}",
            lambda name=name, trials=trials: suites.run_suite(name, seed, trials),
            lambda res, trials=trials: suite_gate(res, trials),
            attempts=trials))
    return out


WORKLOADS = {
    "planted": planted,
    "tensor-lift": tensor_lift,
    "verify-suites": verify_suites,
}
