"""Fast self-test of the benchmark: tiny-horizon runs of every workload.

Run from the repository root (a few seconds)::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def measure(name: str, trace: bool, tmp_path: Path, seed: int = 1):
    tiny = workloads.WORKLOADS[name].tiny
    return run.measure(tiny, seed, 0.3, trace, tmp_path)


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_declared_metrics(name, trace, tmp_path):
    result, metrics, _ = measure(name, trace, tmp_path)
    assert result.problems == []
    assert result.failed == 0 and result.attempted >= 2
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: unit for k, (_, unit) in metrics.items()} == expected


def test_traced_layers_match_workload_predictions(tmp_path):
    builds = {
        name: measure(name, True, tmp_path)[1]["ldt.builds"][0]
        for name in workloads.WORKLOADS
    }
    assert builds["glr-table1"] > 0
    assert builds["epidemic-n400"] == 0 and builds["sweep-light"] == 0


def corrupt_second_payload(monkeypatch, change):
    original = workloads.canonical_payload
    calls = []

    def corrupted(metrics):
        payload = original(metrics)
        calls.append(payload)
        if len(calls) == 2:
            change(payload)
        return payload

    monkeypatch.setattr(workloads, "canonical_payload", corrupted)


def test_payload_differing_from_pinned_digest_counts_as_failed(
    monkeypatch, tmp_path
):
    def nudge_latency(payload):
        payload["latencies"][0] += 1e-9

    corrupt_second_payload(monkeypatch, nudge_latency)
    result, _, _ = measure("glr-table1", False, tmp_path)
    assert result.failed == 1
    assert any("pinned digest" in p for p in result.problems)


def test_payload_failing_accounting_counts_as_failed(monkeypatch, tmp_path):
    def phantom_delivery(payload):
        payload["messages_delivered"] = payload["messages_created"] + 1

    corrupt_second_payload(monkeypatch, phantom_delivery)
    # An unpinned seed: only the accounting check can catch this one.
    result, _, _ = measure("glr-table1", False, tmp_path, seed=99)
    assert result.failed >= 1
    assert any("messages_delivered" in p for p in result.problems)
