"""Every workload end to end at the smoke size: a real server, real HTTP,
the oracle check, and a well-formed result line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_smoke(workload):
    result = _result(_bench(
        "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", "0", "--smoke",
    ))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_reports_every_layer_metric():
    result = _result(_bench(
        "--workload", "live-sharded", "--seed", "3", "--seconds", "2",
        "--trace", "1", "--smoke",
    ))
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.LAYER_UNITS
    # Layers that run on this workload leave spans in router and workers.
    for name in ("http.requests", "shard.pipe_ms_p50", "engine.run_ms_p50",
                 "service.engine_rebuilds", "updates.apply_ms_p50",
                 "kernel.compose.calls", "estimators.bound_calls"):
        assert metrics[name]["value"] > 0, name


def test_same_seed_same_inputs(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import make_inputs, smoke

    workload = smoke(WORKLOADS["live-sharded"])
    first = make_inputs(workload, 5, 2.0, str(tmp_path / "a.json"))
    second = make_inputs(workload, 5, 2.0, str(tmp_path / "b.json"))
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert first.open_ops == second.open_ops
    assert first.closed_reads == second.closed_reads
    assert first.closed_updates == second.closed_updates


def test_open_loop_asks_each_pooled_query_once(tmp_path):
    from workloads import make_inputs, make_pool

    workload = WORKLOADS["live-sharded"]
    inputs = make_inputs(workload, 9, 8.0, str(tmp_path / "n.json"))
    reads = [op for op in inputs.open_ops if op.kind != "update"]
    from repro.network.io import load_network

    pool = make_pool(load_network(tmp_path / "n.json"), workload, 6.0)
    expected = sorted(op.body for op in pool.points + pool.batches)
    assert sorted(op.body for op in reads) == expected
    assert all(0.0 <= op.due < 6.0 for op in inputs.open_ops)
    assert [op.due for op in inputs.open_ops] == sorted(
        op.due for op in inputs.open_ops
    )


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(
        "--workload", "metro-overlay", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
