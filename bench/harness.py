"""Measurement loop: set-up, timed passes, output gate, metrics.

One process, one client, closed loop: each entry call starts when the
previous one has returned.  A pass is one sweep over the workload's fixed
instance list; passes repeat until the run's measuring time is spent.

The untraced run gives the end-to-end metrics.  The traced run spends half of
its time on untraced passes and half on traced ones, so it can report the
tracing overhead and check that tracing changed no output bit.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from .tracer import Tracer
from .workloads import WORKLOADS, Instance

SETUP_REPEATS = 3

# Row fields that must be bit-identical between passes (traced or not).
FINGERPRINT = ("ok", "dist_a", "dist_b", "comm_residual", "eps2", "violations")

OP_NORM_CALLERS = ("pipeline", "subspace", "smoothing", "projgeom", "bounds", "suites")
COUNTED = {  # metric prefix -> traced span names it sums
    "matcore.op_norm": ("matcore.op_norm",),
    "matcore.eig_hermitian": ("matcore.eig_hermitian",),
    "smoothing.finite_range": ("smoothing.finite_range", "smoothing.finite_range_multi",
                               "smoothing.finite_range_normal"),
    "subspace.verify_tridiagonal": ("subspace.verify_tridiagonal",),
    "subspace.szarek_W": ("subspace.szarek_W",),
    "subspace.certify_W": ("subspace.certify_W",),
    "subspace.hastings_W": ("subspace.hastings_W",),
    "subspace.joint_jacobi": ("subspace.joint_jacobi",),
    "projgeom.nest_projection_core": ("projgeom.nest_projection_core",),
    "projgeom.jordan_basis": ("projgeom.jordan_basis",),
    "pipeline.commute_hermitian_pair": ("pipeline.commute_hermitian_pair",),
    "pipeline.commute_hermitian_unitary": ("pipeline.commute_hermitian_unitary",),
}
SHARES = ("subspace.joint_jacobi", "matcore.op_norm", "matcore.eig_hermitian")
ROUTES = ("gap", "szarek", "hastings", "degenerate")


@dataclass
class Pass:
    seconds: float
    rows: list[dict]


def _gated(inst: Instance, out) -> dict:
    try:
        return inst.gate(out)
    except Exception as exc:  # a malformed output is a failed instance
        traceback.print_exc(file=sys.stderr)
        return {"ok": False, "why": f"gate raised {type(exc).__name__}: {exc}", "checks": 0}


def run_pass(instances: list[Instance], tracer: Tracer | None = None) -> Pass:
    """Time each entry call once, then gate its output (untimed)."""
    rows, times = [], []
    for inst in instances:
        scope = tracer.root() if tracer else nullcontext()
        t0 = perf_counter()
        try:
            with scope:
                out = inst.call()
        except Exception as exc:  # counted as a failed instance, never dropped
            elapsed = perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            row = {"ok": False, "why": f"raised {type(exc).__name__}: {exc}", "checks": 0}
        else:
            elapsed = perf_counter() - t0
            row = _gated(inst, out)
        row = {"label": inst.label, "seconds": elapsed, **row}
        row.setdefault("attempted", inst.attempts)
        row.setdefault("failed", 0 if row["ok"] else inst.attempts)
        if not row["ok"]:
            print(f"bench: FAILED {inst.label}: {row['why']}", file=sys.stderr)
        rows.append(row)
        times.append(elapsed)
    return Pass(sum(times), rows)


def set_up(workload: str, seed: int, tiny: bool) -> tuple[float, list[Instance]]:
    """Generate the instance list and make one warm-up call (the first
    instance); returns (seconds, instances)."""
    t0 = perf_counter()
    instances = WORKLOADS[workload](seed, tiny)
    try:
        instances[0].call()
    except Exception:  # the same call is counted when the passes make it
        traceback.print_exc(file=sys.stderr)
    return perf_counter() - t0, instances


def _fingerprint(row: dict) -> tuple:
    return tuple(row.get(k) for k in FINGERPRINT)


def mismatches(reference: Pass, others: list[Pass]) -> list[str]:
    """Rows whose outputs differ in any bit from the reference pass."""
    bad = []
    for k, p in enumerate(others):
        for r0, r in zip(reference.rows, p.rows):
            if _fingerprint(r0) != _fingerprint(r):
                bad.append(f"pass {k}: {r['label']}: {_fingerprint(r0)} != {_fingerprint(r)}")
    return bad


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def best_call_seconds(passes: list[Pass]) -> list[float]:
    """Each entry call's fastest time over the passes.

    Interference from other tenants of the machine only ever adds time, in
    slow phases of seconds to minutes.  Over eight 20-second runs of ten
    Szarek systems (verify_tridiagonal + szarek_W) on a shared 2-CPU machine,
    the median pass spread 0.20 between runs (quartile distance over median);
    the sum of fastest calls spread 0.05.
    """
    return [min(times) for times in zip(*([r["seconds"] for r in p.rows] for p in passes))]


def end_to_end(plain: list[Pass], setup_s: float, attempted: int, failed: int) -> dict:
    """Every end-to-end metric that applies to the workload, as
    name -> (value, unit)."""
    rows = plain[0].rows
    best = best_call_seconds(plain)
    out = {
        "solve_s": (sum(best), "s"),
        "solve_max_s": (max(best), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_ratio": (failed / attempted, "ratio"),
        "checks_run": (sum(r["checks"] for r in rows), "count"),
    }
    ratios = [r["dist_ratio"] for r in rows if "dist_ratio" in r]
    if ratios:
        out["dist_ratio_mean"] = (statistics.fmean(ratios), "ratio")
    residuals = [r["comm_residual"] / max(r["n"], 1) for r in rows if "comm_residual" in r]
    if residuals:
        out["residual_max"] = (max(residuals), "ratio")
    eps2 = [r["eps2"] for r in rows if "eps2" in r]
    if eps2:
        out["eps2_max"] = (max(eps2), "norm")
    return out


def per_layer(summaries: list[dict], traced: list[Pass], plain: list[Pass]) -> dict:
    """Per-layer metrics of the traced passes, as name -> (value, unit).
    Counts are per pass (identical in every pass); times are the mean per
    pass."""
    last = summaries[-1]

    def mean_over_passes(value) -> float:
        return statistics.fmean(value(s) for s in summaries)

    out = {}
    for prefix, names in COUNTED.items():
        out[f"{prefix}.calls"] = (sum(last["calls"].get(n, 0) for n in names), "count")
        out[f"{prefix}.self_s"] = (
            mean_over_passes(lambda s: sum(s["self_s"].get(n, 0.0) for n in names)), "s")
    for layer in OP_NORM_CALLERS:
        out[f"matcore.op_norm.self_s.from-{layer}"] = (
            mean_over_passes(lambda s: s["op_norm_self_s_from"].get(layer, 0.0)), "s")
    out["numpy.svd.calls"] = (last["calls"].get("numpy.svd", 0), "count")
    out["numpy.eigh.calls"] = (last["calls"].get("numpy.eigh", 0), "count")
    out["smoothing.fourier.computes"] = (last["calls"].get("smoothing.fourier", 0), "count")
    out["smoothing.fourier.self_s"] = (
        mean_over_passes(lambda s: s["self_s"].get("smoothing.fourier", 0.0)), "s")
    out["subspace.joint_jacobi.eigh_calls"] = (last["jacobi_eigh_calls"], "count")
    bounds = [n for n in last["calls"] if n.startswith("bounds.")]
    out["bounds.calls"] = (sum(last["calls"][n] for n in bounds), "count")
    out["bounds.self_s"] = (
        mean_over_passes(lambda s: sum(s["self_s"].get(n, 0.0) for n in bounds)), "s")
    rows = traced[-1].rows
    for route in ROUTES:
        out[f"pipeline.route.{route}"] = (
            sum(r.get("routes", {}).get(route, 0) for r in rows), "count")
    out["pipeline.checks_skipped"] = (sum(bool(r.get("check_skipped")) for r in rows), "count")
    for name in SHARES:
        out[f"share.{name}"] = (statistics.fmean(
            s["incl_s"].get(name, 0.0) / p.seconds for s, p in zip(summaries, traced)), "ratio")
    out["trace_overhead"] = (sum(best_call_seconds(traced))
                             / sum(best_call_seconds(plain)), "ratio")
    out["trace.spans"] = (last["spans"], "count")
    return out


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be read."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def _timed_passes(instances, seconds: float, tracer: Tracer | None = None):
    passes, summaries = [], []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(instances, tracer))
        if tracer is not None:
            summaries.append(tracer.summary())
    return passes, summaries


def _metric_block(report: dict, spec: list[dict]) -> dict:
    block = {}
    for m in spec:
        value, unit = report[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: unit {unit} != {m['unit']} in BENCHMARK.json")
        block[m["name"]] = {"value": value, "unit": unit}
    return block


def run(workload: str, seed: int, seconds: float, trace: bool, *, spec: dict,
        out_dir: Path, import_s: float = 0.0, tiny: bool = False, emit=print) -> dict:
    """Set up, measure, gate and report one run; returns the result line."""
    setups = []
    for _ in range(SETUP_REPEATS):
        dt, instances = set_up(workload, seed, tiny)
        setups.append(dt)
    setup_s = import_s + statistics.median(setups)
    env = environment()
    emit(json.dumps({"env": env}))

    if trace:
        plain, _ = _timed_passes(instances, seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced, summaries = _timed_passes(instances, seconds / 2, tracer)
    else:
        plain, _ = _timed_passes(instances, seconds)
        traced, summaries = [], []
    all_passes = plain + traced
    bad = mismatches(plain[0], all_passes[1:])
    for line in bad:
        print(f"bench: output changed between passes: {line}", file=sys.stderr)

    rows = [dict(r, seconds=best) for r, best in zip(plain[0].rows, best_call_seconds(plain))]
    if trace:
        for inst, row in zip(instances, rows):
            if inst.reference is not None:
                row["reference"] = inst.reference()
    for row in rows:
        emit(json.dumps({"row": row}))

    attempted = sum(r["attempted"] for p in all_passes for r in p.rows)
    failed = sum(r["failed"] for p in all_passes for r in p.rows)
    report = end_to_end(plain, setup_s, attempted, failed)
    if trace:
        report.update(per_layer(summaries, traced, plain))
    emit(json.dumps({"report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
                     "setup_seconds": {"import": import_s, "repeats": setups},
                     "call_seconds": {kind: [[r["seconds"] for r in p.rows] for p in passes]
                                      for kind, passes in (("plain", plain),
                                                           ("traced", traced))}}))

    result = {
        "correct": failed == 0 and not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_block(report, spec["per_layer" if trace else "end_to_end"]),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "rows": rows, "report": report, "result": result,
                   "mismatches": bad}, fh, indent=1)
    if trace:
        tracer.dump(out_dir / f"{stem}-spans.json")
    return result
