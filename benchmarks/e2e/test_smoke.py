"""End-to-end checks of the harness at smoke sizes.

Every correctness check is on, timing bounds are off. Not collected by
tier-1, whose ``testpaths`` is ``tests/``; run ``pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import metrics
import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def invoke(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def test_benchmark_json_matches_the_metric_tables():
    assert BENCH["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in BENCH["workloads"]] == list(metrics.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCH["end_to_end"]
    } == metrics.E2E
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]
    ] == metrics.PER_LAYER


def test_smoke_ledger(tmp_path):
    proc = invoke("--smoke", "--trace-out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    ledger = json.loads((tmp_path / "ledger.json").read_text())
    assert ledger["claim"] is None
    for name in metrics.WORKLOADS:
        entry = ledger["workloads"][name]
        assert entry["ops_failed"] == 0 and not entry["errors"], entry["errors"]
        assert set(metrics.E2E) <= set(entry["metrics"])
        assert set(entry["per_layer"]) == {n for n, _, _ in metrics.PER_LAYER}
        assert entry["trace_checks"]["digest_equal"]
        assert entry["trace_missing"] == []
        assert (tmp_path / f"spans-{name}-seed0.json").exists()
        # Every end-to-end and per-layer metric is printed by name.
        for metric in [*metrics.E2E, *entry["per_layer"]]:
            assert f"{name:18s} {metric} " in proc.stdout
    # The layers of one half do no work on the other half's workloads.
    mesh = ledger["workloads"]["live_mesh"]["per_layer"]
    dense = ledger["workloads"]["sim_hetero_dense"]["per_layer"]
    assert mesh["nn.loss_and_grads.calls"] == 0 and mesh["codec.encode.calls"] > 0
    assert dense["codec.encode.calls"] == 0 and dense["nn.apply_grads.calls"] > 0
    assert dense["transmission.plan.calls"] == 0
    assert dense["nn.apply_sparse_grads.calls"] == 0


def test_driver_contract_end_to_end_and_per_layer():
    for trace, names in (
        ("0", set(metrics.E2E)),
        ("1", {n for n, _, _ in metrics.PER_LAYER}),
    ):
        proc = invoke("--workload", "live_mesh", "--seed", "7", "--seconds", "1",
                      "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == names
        for value in result["metrics"].values():
            assert set(value) == {"value", "unit"}
            assert isinstance(value["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = invoke("--workload", "sim_homo_b", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
