"""Tests for the CI perf gate (benchmarks/compare_bench.py).

The gate takes its workloads, metrics and bounds from a
``BENCHMARK.json``-shaped config.  These tests point it at a small one of
their own (two workloads; one lower-is-better and one higher-is-better
metric) and stub the benchmark runs, so no simulation runs here.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "compare_bench", Path(__file__).parents[2] / "benchmarks" / "compare_bench.py"
)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)

CONFIG = {
    "command": ["unused"],
    "run_seconds": 5,
    "workloads": [{"name": "task"}, {"name": "sweep"}],
    "end_to_end": [
        {"name": "time_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}


def result(correct: bool = True, time_s: float = 1.0, rate: float = 100.0):
    return {
        "correct": correct,
        "attempted": 4,
        "failed": 0 if correct else 1,
        "metrics": {
            "time_s": {"value": time_s, "unit": "s"},
            "rate": {"value": rate, "unit": "1/s"},
        },
    }


class Gate:
    """``main`` against ``CONFIG``; each workload's run is stubbed to
    return ``results[workload]`` (default: ``result()``)."""

    def __init__(self, tmp_path, monkeypatch, capsys):
        self.tmp_path, self.capsys = tmp_path, capsys
        self.out = tmp_path / "BENCH_perfbench.json"
        self.calls: list[tuple] = []
        self.results: dict = {}
        config = tmp_path / "BENCHMARK.json"
        config.write_text(json.dumps(CONFIG), encoding="utf-8")
        monkeypatch.setattr(compare_bench, "BENCHMARK", config)
        monkeypatch.setattr(compare_bench, "run_workload", self._run)

    def _run(self, command, workload, seed, seconds):
        self.calls.append((workload, seed, seconds))
        return self.results.get(workload, result())

    def baseline(self) -> str:
        path = self.tmp_path / "baseline.json"
        path.write_text(json.dumps({"task": result(), "sweep": result()}))
        return str(path)

    def __call__(self, *args: str) -> tuple[int, str]:
        code = compare_bench.main(["--out", str(self.out), *args])
        return code, self.capsys.readouterr().out


@pytest.fixture
def gate(tmp_path, monkeypatch, capsys) -> Gate:
    return Gate(tmp_path, monkeypatch, capsys)


class TestGate:
    @pytest.mark.parametrize(
        "args, seed, seconds",
        [((), 1, 5), (("--seed", "2", "--seconds", "10"), 2, 10.0)],
    )
    def test_runs_every_workload_and_writes_their_results(
        self, gate, args, seed, seconds
    ):
        gate.results["sweep"] = result(time_s=2.0)
        assert gate(*args)[0] == 0
        assert gate.calls == [("task", seed, seconds), ("sweep", seed, seconds)]
        written = json.loads(gate.out.read_text())
        assert written == {"task": result(), "sweep": result(time_s=2.0)}

    @pytest.mark.parametrize("baseline", [(), ("--baseline", "missing.json")])
    def test_no_baseline_skips_the_bounds_gate(self, gate, baseline):
        gate.results["task"] = result(time_s=9.0)
        code, out = gate(*baseline)
        assert code == 0
        assert "gate skipped" in out
        assert "| task | time_s (s) | – | 9 | – | +25% |" in out

    @pytest.mark.parametrize(
        "current",
        [
            result(time_s=1.2),  # lower is better, 20% worse
            result(rate=80.0),  # higher is better, 20% worse
            result(time_s=0.5, rate=200.0),  # both better
        ],
    )
    def test_change_within_the_bound_passes(self, gate, current):
        gate.results["sweep"] = current
        code, out = gate("--baseline", gate.baseline())
        assert code == 0
        assert "OK: every run is correct and within its bounds." in out
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "current, metric", [(result(time_s=1.3), "time_s"), (result(rate=70.0), "rate")]
    )
    def test_change_past_the_bound_fails_naming_workload_and_metric(
        self, gate, current, metric
    ):
        gate.results["sweep"] = current
        code, out = gate("--baseline", gate.baseline())
        assert code == 1
        assert out.count("**FAIL**") == 1
        assert (
            f"**FAIL**: `sweep` `{metric}` is 30.0% worse than the baseline "
            "(bound 25%)." in out
        )

    def test_table_has_a_row_per_workload_and_metric(self, gate):
        gate.results["task"] = result(time_s=1.3, rate=110.0)
        out = gate("--baseline", gate.baseline())[1]
        rows = [
            line for line in out.splitlines()
            if line.startswith(("| task |", "| sweep |"))
        ]
        assert rows == [
            "| task | time_s (s) | 1 | 1.3 | +30.0% ✗ | +25% |",
            "| task | rate (1/s) | 100 | 110 | +10.0% | -25% |",
            "| sweep | time_s (s) | 1 | 1 | +0.0% | +25% |",
            "| sweep | rate (1/s) | 100 | 100 | +0.0% | -25% |",
        ]

    def test_a_metric_the_baseline_lacks_is_shown_not_judged(self, gate):
        old = gate.tmp_path / "old.json"
        old.write_text(json.dumps({"task": {"metrics": {"rate": {"value": 100}}}}))
        gate.results["task"] = result(time_s=9.0)
        gate.results["sweep"] = result(rate=1.0)
        code, out = gate("--baseline", str(old))
        assert code == 0
        assert "| task | time_s (s) | – | 9 | – | +25% |" in out

    @pytest.mark.parametrize("with_baseline", [False, True])
    def test_incorrect_run_fails(self, gate, with_baseline):
        gate.results["task"] = result(correct=False)
        code, out = gate(*(("--baseline", gate.baseline()) if with_baseline else ()))
        assert code == 1
        assert "**FAIL**: `task` is not correct (1 of 4 tasks failed)." in out

    def test_unreadable_result_exits_2(self, gate):
        gate.results["sweep"] = None
        assert gate()[0] == 2
        assert not gate.out.exists()

    def test_summary_file_appended(self, gate):
        summary = gate.tmp_path / "summary.md"
        summary.write_text("earlier step\n")
        assert gate("--summary", str(summary))[0] == 0
        text = summary.read_text()
        assert text.startswith("earlier step\n## Perf gate (seed 1, 5 s per workload)")


class TestRunWorkload:
    """The real subprocess path, with a stand-in for the benchmark."""

    def stub(self, tmp_path, last_line: str) -> list[str]:
        script = tmp_path / "stub.py"
        script.write_text(
            f"import sys\nprint('# report:', *sys.argv[1:])\nprint({last_line!r})\n"
        )
        return [sys.executable, str(script)]

    def test_returns_the_last_line_and_echoes_the_report(self, tmp_path, capsys):
        command = self.stub(tmp_path, json.dumps(result()))
        assert compare_bench.run_workload(command, "task", 2, 10.0) == result()
        assert (
            "# report: --workload task --seed 2 --seconds 10.0 --trace 0"
            in capsys.readouterr().out
        )

    @pytest.mark.parametrize(
        "last_line", ["Traceback: boom", "[1, 2]", '{"metrics": {}}', None]
    )
    def test_no_result_reads_as_none(self, tmp_path, last_line):
        command = (
            [str(tmp_path / "no-such-program")] if last_line is None
            else self.stub(tmp_path, last_line)
        )
        assert compare_bench.run_workload(command, "task", 1, 1) is None


class TestTrajectory:
    def entries(self, gate) -> list[dict]:
        return compare_bench.load_trajectory(gate.tmp_path / "t.jsonl")

    def run(self, gate, commit: str) -> str:
        return gate("--trajectory", str(gate.tmp_path / "t.jsonl"), "--commit", commit)[1]

    def test_each_run_appends_one_entry_with_its_results(self, gate):
        self.run(gate, "aaa111")
        gate.results["task"] = result(time_s=1.5)
        out = self.run(gate, "bbb222")
        assert [e["commit"] for e in self.entries(gate)] == ["aaa111", "bbb222"]
        assert self.entries(gate)[1]["results"]["task"] == result(time_s=1.5)
        assert "| workload | commit | date | time_s (s) | rate (1/s) |" in out
        assert "| 1.5 | 100 |" in out

    def test_damaged_trajectory_lines_skipped(self, gate):
        (gate.tmp_path / "t.jsonl").write_text(
            '{ torn line\n[1, 2]\n{"commit": "odd", "results": "garbled"}\n'
        )
        out = self.run(gate, "new")
        assert "| task | `odd` | – | – | – |" in out
        assert "| task | `new` |" in out

    def test_rerun_of_one_commit_keeps_its_latest_entry(self, gate):
        for time_s in (2.0, 9.0):
            gate.results["task"] = result(time_s=time_s)
            out = self.run(gate, "same")
        rows = [line for line in out.splitlines() if line.startswith("| task | `")]
        assert len(rows) == 1 and "| 9 | 100 |" in rows[0]

    def test_trend_shows_only_the_latest_commits(self):
        last = compare_bench.TREND_COMMITS + 1
        entries = [{"commit": f"c{i:02d}"} for i in range(last + 1)]
        table = compare_bench.trend_table(CONFIG, entries)
        assert "`c01`" not in table and "`c02`" in table and f"`c{last}`" in table


def test_the_benchmark_declares_what_the_gate_reads():
    config = json.loads(compare_bench.BENCHMARK.read_text())
    assert config["command"] and config["run_seconds"] > 0
    assert all(w["name"] for w in config["workloads"])
    for metric in config["end_to_end"]:
        assert metric["better"] in ("lower", "higher")
        assert metric["bound"] > 0 and metric["unit"]
