"""The benchmark's own tests.

Run from the repository root (kept out of the default test collection
because it spawns servers and takes about two minutes)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

from perfbench import common, run

ROOT = run.ROOT
sys.path.insert(0, os.path.join(ROOT, "src"))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
with open(SPEC_PATH, encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

#: Per-layer metrics each workload leaves at 0 because it never calls
#: that layer (the server of cith-wire runs in another process, so only
#: its own spans and /metrics counters reach the benchmark).
IN_PROCESS_ONLY = {
    "durability.recover_ms", "serving.drain_self_ms",
    "incremental.plan_rank", "incremental.affected_fraction",
    "executor.scatter_mb_per_update", "executor.cow_copies_per_drain",
    "durability.wal_bytes_per_update", "durability.checkpoints",
}


def _layers(*prefixes):
    return {
        f"{prefix}_{suffix}"
        for prefix in prefixes
        for suffix in ("ms", "pct")
    }


WIRE_LAYERS = _layers(
    "frontdoor.query", "frontdoor.admission_wait", "frontdoor.pin",
    "frontdoor.execute", "frontdoor.submit", "frontdoor.wire",
    "serving.wire_drain",
) | {"frontdoor.batch_size"}
NOT_EXERCISED = {
    "cith-unit": WIRE_LAYERS | _layers(
        "incremental.row_vectors", "incremental.consolidate",
        "executor.topk_patch", "executor.topk_query", "serving.drain",
        "serving.query", "durability.append", "durability.checkpoint",
    ) | {
        "durability.recover_ms", "serving.drain_self_ms",
        "serving.row_groups_per_update", "durability.wal_bytes_per_update",
        "durability.checkpoints", "trace.query_overhead_pct",
    },
    "dblp-durable": WIRE_LAYERS | _layers("incremental.vectors")
    | {"durability.checkpoint_pct"},
    "cith-wire": _layers(
        "incremental.vectors", "incremental.row_vectors", "incremental.plan",
        "incremental.consolidate", "executor.apply", "executor.panels",
        "executor.topk_patch", "executor.topk_query", "linalg.q_update",
        "serving.drain", "serving.query", "durability.append",
        "durability.checkpoint",
    ) | IN_PROCESS_ONLY,
}
SMOKE_SECONDS = {"cith-unit": 2, "dblp-durable": 2, "cith-wire": 5}


def _run(workload, trace, seed=3, cwd=ROOT, script=None):
    """Run the benchmark in a subprocess; (exit code, parsed lines)."""
    command = [
        sys.executable, script or os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SMOKE_SECONDS[workload]),
        "--trace", str(trace), "--scale", "smoke",
    ]
    done = subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=300
    )
    lines = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith("{")]
    return done.returncode, lines, done.stderr


@pytest.fixture(scope="module")
def runs():
    """Untraced and traced smoke runs of every workload, at one seed."""
    results = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            results[workload, trace] = _run(workload, trace)
    return results


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct(runs, workload):
    code, lines, stderr = runs[workload, 0]
    assert code == 0, stderr
    environment, result = lines[-3]["environment"], lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [entry["name"] for entry in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    for kind in ("update", "query"):
        assert environment[f"{kind}_beyond_tail"] >= common.MIN_BEYOND
        assert (result["metrics"][f"{kind}_tail_ms"]["value"]
                >= result["metrics"][f"{kind}_p50_ms"]["value"])
    assert all(check["ok"] for check in environment["checks"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(runs, workload):
    code, lines, stderr = runs[workload, 1]
    assert code == 0, stderr
    environment, result = lines[-3]["environment"], lines[-1]
    assert list(result["metrics"]) == [e["name"] for e in SPEC["per_layer"]]
    assert set(environment["not_exercised"]) == NOT_EXERCISED[workload]
    if workload == "cith-unit":
        assert result["metrics"]["trace.coverage_pct"]["value"] >= 90.0


@pytest.mark.parametrize("workload", ("cith-unit", "dblp-durable"))
def test_traced_and_untraced_runs_do_identical_work(runs, workload):
    untraced = runs[workload, 0][1][-2]["work"]
    traced = runs[workload, 1][1][-2]["work"]
    assert untraced == traced
    assert untraced["plans"] > 0


def test_tail_needs_ten_samples_beyond_it():
    report = common.Report()
    report.latency("update", [0.001 * (i + 1) for i in range(50)], 99)
    assert not report.correct and report.failed == 1
    report = common.Report()
    report.latency("update", [0.001 * (i + 1) for i in range(2000)], 99)
    assert report.correct
    assert report.e2e["update_tail_ms"][0] >= report.e2e["update_p50_ms"][0]


def test_failed_correctness_check_fails_the_run(monkeypatch, capsys):
    from perfbench import unit

    exact = unit.single_source_simrank
    monkeypatch.setattr(
        unit, "single_source_simrank",
        lambda *args, **kwargs: exact(*args, **kwargs) + 1e-6,
    )
    monkeypatch.setenv("TMPDIR", tempfile.gettempdir())
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    code = run.main([
        "--workload", "cith-unit", "--seed", "3", "--seconds", "1",
        "--trace", "0", "--scale", "smoke",
    ])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, lines, _ = _run(
        "cith-unit", 0, cwd=tmp_path,
        script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert code != 0
    assert not any("metrics" in line for line in lines)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
