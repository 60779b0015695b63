"""Tests of the benchmark itself, on tiny instance lists."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
for _p in (str(ROOT), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import nearcommute  # noqa: E402
from bench import harness, workloads  # noqa: E402
from bench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# End-to-end metrics by name and unit, and the workloads they apply to.
PIPELINE = {"planted", "tensor-lift"}
END_TO_END = {
    "solve_s": ("s", set(workloads.WORKLOADS)),
    "solve_max_s": ("s", set(workloads.WORKLOADS)),
    "setup_s": ("s", set(workloads.WORKLOADS)),
    "peak_rss_mb": ("MB", set(workloads.WORKLOADS)),
    "fail_ratio": ("ratio", set(workloads.WORKLOADS)),
    "checks_run": ("count", set(workloads.WORKLOADS)),
    "dist_ratio_mean": ("ratio", PIPELINE),
    "residual_max": ("ratio", PIPELINE),
    "eps2_max": ("norm", PIPELINE),
}
QUALITY_COLUMNS = ("n", "delta", "n_cut", "dist_a", "dist_b", "comm_residual",
                   "dist_ratio", "routes")


def _run(workload, trace, tmp_path):
    lines = []
    result = harness.run(workload, 3, 0.0, trace, spec=SPEC, out_dir=tmp_path,
                         tiny=True, emit=lines.append)
    return result, [json.loads(line) for line in lines]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload, tmp_path):
    result, lines = _run(workload, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    report = lines[-1]["report"]
    for name, (unit, applies) in END_TO_END.items():
        if workload in applies:
            assert report[name]["unit"] == unit, name
    assert report["fail_ratio"]["value"] == 0.0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    rows = [line["row"] for line in lines if "row" in line]
    assert rows and all(r["ok"] for r in rows)
    if workload in PIPELINE:
        for r in rows:
            assert all(col in r for col in QUALITY_COLUMNS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload, tmp_path):
    svd, op_norm = np.linalg.svd, nearcommute.pipeline.op_norm
    result, lines = _run(workload, True, tmp_path)
    assert result["correct"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    report = lines[-1]["report"]
    assert report["trace_overhead"]["value"] > 0
    rows = [line["row"] for line in lines if "row" in line]
    if workload == "planted":
        refs = [r["reference"] for r in rows if "reference" in r]
        assert refs and all(ref["ref"] == "cheap_commute" for ref in refs)
    spans = json.loads(next(tmp_path.glob("*-spans.json")).read_text())
    assert spans["spans"]
    # the library is restored after the traced passes
    assert nearcommute.pipeline.op_norm is op_norm is nearcommute.matcore.op_norm
    assert np.linalg.svd is svd


def test_non_commuting_output_counts_as_failure():
    inst = workloads.planted(5, tiny=True)[0]
    original = inst.call

    def corrupted():
        report = original()
        n = report.b_prime.shape[0]
        report.b_prime = report.b_prime + 1e-3 * np.diag(np.arange(n)) @ report.a_prime
        report.b_prime = (report.b_prime + report.b_prime.conj().T) / 2
        return report

    inst.call = corrupted
    done = harness.run_pass([inst])
    row = done.rows[0]
    assert not row["ok"] and row["failed"] == 1
    assert "do not commute" in row["why"]
    report = harness.end_to_end([done], 0.1, 1, row["failed"])
    assert report["fail_ratio"][0] == 1.0


def test_changed_output_bit_is_a_mismatch():
    inst = workloads.planted(2, tiny=True)[0]
    first = harness.run_pass([inst])
    second = harness.run_pass([inst])
    assert harness.mismatches(first, [second]) == []
    second.rows[0]["dist_a"] = np.nextafter(second.rows[0]["dist_a"], 1.0)
    assert len(harness.mismatches(first, [second])) == 1


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    with tracer.installed():
        nearcommute.op_norm(np.eye(3))  # outside a root span: not recorded
        assert tracer.names == []
        with tracer.root():
            nearcommute.eig_hermitian(np.diag([1.0, 2.0, 3.0]))
    summary = tracer.summary()
    assert summary["calls"]["matcore.eig_hermitian"] == 1
    assert summary["calls"]["matcore.op_norm"] == 2
    assert summary["calls"]["numpy.eigh"] == 1
    assert summary["op_norm_self_s_from"] == {"bench": pytest.approx(
        summary["self_s"]["matcore.op_norm"])}
    incl = summary["incl_s"]["matcore.eig_hermitian"]
    assert summary["self_s"]["matcore.eig_hermitian"] < incl
    assert tracer.parents[tracer.names.index("matcore.op_norm")] == \
        tracer.names.index("matcore.eig_hermitian")


def test_run_fails_without_library_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "planted", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
