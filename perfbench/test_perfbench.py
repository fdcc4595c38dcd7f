"""Tests of the benchmark itself, at tiny sizes.

Every workload runs once, traced (an untraced phase then a traced
phase), on a few thousand elements for half a second per phase; the
result must carry every end-to-end and per-layer metric with its unit.
The correctness gate must fail a run whose answers or page reads were
corrupted, a refused rolling update must be counted as a failure rather
than retried, and the command must refuse to run outside a full
checkout.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import bench, layers, run

ROOT = Path(__file__).resolve().parent.parent
ELEMENTS = 3000
SECONDS = 0.5


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Shrink the data set (same density) and keep every file in tmp_path."""
    monkeypatch.setattr(bench, "VOLUME_SIDE", bench.VOLUME_SIDE * (
        ELEMENTS / bench.N_ELEMENTS) ** (1.0 / 3.0))
    monkeypatch.setattr(bench, "N_ELEMENTS", ELEMENTS)
    # An absolute work directory replaces the checkout-relative one.
    monkeypatch.setattr(bench, "WORK_DIRNAME", str(tmp_path / "work"))
    # Shard-server sockets are named relative to the working directory.
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    doc = _definition()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in bench.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert doc["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_tiny_traced_run_emits_every_metric(workload, tiny, monkeypatch):
    from multiprocessing import resource_tracker

    def refuse_tracker():
        # The resource tracker is a helper process that outlives whoever
        # starts it; a run must start nothing that outlives the run.
        raise AssertionError("the run started the resource tracker")

    monkeypatch.setattr(resource_tracker._resource_tracker, "ensure_running",
                        refuse_tracker)
    outcome = bench.run(workload, 3, SECONDS, True, tiny)
    assert not multiprocessing.active_children()
    assert outcome.correct, outcome.problems
    assert outcome.failed == 0 and outcome.attempted > 0
    per_layer = {name: m["unit"] for name, m in outcome.metrics.items()}
    assert per_layer == dict(layers.PER_LAYER)
    assert set(outcome.info["end_to_end"]) == {n for n, _u in bench.END_TO_END}
    for name, value in outcome.info["end_to_end"].items():
        assert np.isfinite(value) and value > 0, (name, value)
    values = {name: m["value"] for name, m in outcome.metrics.items()}
    # Crawls run in worker threads, worker processes or shard servers:
    # their spans must reach the parent in every serving mode.
    assert values["core.flat_index.crawl_self_ms"] > 0
    assert values["storage.reads.metadata"] > 0
    assert values["core.apply_batch_ms"] > 0
    assert values["trace.spans"] > 0


def test_gate_fails_on_corrupted_answers_and_reads(tiny, monkeypatch):
    honest = bench.RUNNERS["sn_cold"]

    def tampered(*args):
        phase = honest(*args)
        answer = next(a for a in phase.answers if len(a.ids) > 1)
        answer.ids = answer.ids[:-1]
        phase.reads_by_category["object"] += 1
        return phase

    monkeypatch.setitem(bench.RUNNERS, "sn_cold", tampered)
    outcome = bench.run("sn_cold", 4, SECONDS, False, tiny)
    assert not outcome.correct
    assert any("differ from the oracle" in p for p in outcome.problems)
    assert any("run_queries harness" in p for p in outcome.problems)


def test_failed_roll_is_counted_and_not_retried(tiny, monkeypatch):
    from repro.query import ClusterError, ClusterRouter

    def refuse(self, *args, **kwargs):
        raise ClusterError("roll refused")

    monkeypatch.setattr(ClusterRouter, "apply_updates", refuse)
    outcome = bench.run("cluster_rolling", 3, SECONDS, False, tiny)
    assert outcome.correct, outcome.problems
    assert outcome.failed == 1
    assert outcome.info["error_rate"] == 1 / outcome.attempted


def test_command_prints_the_result_line(tiny, capsys):
    code = run.main(["--workload", "sn_cold", "--seed", "5",
                     "--seconds", str(SECONDS), "--trace", "0"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(
        bench.END_TO_END
    )
    assert (tiny / "work" / "results" / "sn_cold-seed5-trace0.json").is_file()


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sn_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
