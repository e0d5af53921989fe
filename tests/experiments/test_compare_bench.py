"""Tests for the CI perf-regression gate (benchmarks/compare_bench.py).

The gate's contract, verified by driving the script exactly as CI
does: no baseline skips cleanly, a small slowdown passes, a >15%
slowdown warns, a >30% slowdown fails the job (exit 1), and the
trajectory file accumulates per-commit datapoints into a trend table.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[2] / "benchmarks" / "compare_bench.py"


def datapoint(tasks_per_s: float = 2.0, cold_wall_s: float = 10.0) -> dict:
    return {
        "benchmark": "campaign-engine",
        "cold_wall_s": cold_wall_s,
        "tasks_per_s": tasks_per_s,
        "stream_resume_s": 0.05,
        "cache_resume_s": 0.2,
        "orchestrated_wall_s": 12.0,
    }


def write(path: Path, report: dict) -> Path:
    path.write_text(json.dumps(report), encoding="utf-8")
    return path


def run_gate(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestGate:
    def test_no_baseline_skips_cleanly(self, tmp_path):
        current = write(tmp_path / "current.json", datapoint())
        result = run_gate(
            "--current", str(current),
            "--baseline", str(tmp_path / "missing.json"),
        )
        assert result.returncode == 0
        assert "gate skipped" in result.stdout

    def test_small_slowdown_passes(self, tmp_path):
        current = write(tmp_path / "current.json", datapoint(2.0))
        baseline = write(tmp_path / "baseline.json", datapoint(2.1))
        result = run_gate(
            "--current", str(current), "--baseline", str(baseline)
        )
        assert result.returncode == 0
        assert "OK" in result.stdout
        assert "WARNING" not in result.stdout

    def test_improvement_passes(self, tmp_path):
        current = write(tmp_path / "current.json", datapoint(3.0))
        baseline = write(tmp_path / "baseline.json", datapoint(2.0))
        result = run_gate(
            "--current", str(current), "--baseline", str(baseline)
        )
        assert result.returncode == 0

    def test_injected_20_percent_slowdown_warns(self, tmp_path):
        current = write(tmp_path / "current.json", datapoint(2.0))
        baseline = write(tmp_path / "baseline.json", datapoint(2.5))
        result = run_gate(
            "--current", str(current), "--baseline", str(baseline)
        )
        assert result.returncode == 0  # warn does not fail the job
        assert "WARNING" in result.stdout
        assert "20.0%" in result.stdout

    def test_injected_40_percent_slowdown_fails(self, tmp_path):
        """The acceptance check: the gate demonstrably trips."""
        current = write(tmp_path / "current.json", datapoint(2.1))
        baseline = write(tmp_path / "baseline.json", datapoint(3.5))
        result = run_gate(
            "--current", str(current), "--baseline", str(baseline)
        )
        assert result.returncode == 1
        assert "FAIL" in result.stdout

    def test_thresholds_are_configurable(self, tmp_path):
        current = write(tmp_path / "current.json", datapoint(2.0))
        baseline = write(tmp_path / "baseline.json", datapoint(2.2))
        strict = run_gate(
            "--current", str(current), "--baseline", str(baseline),
            "--warn", "0.05", "--fail", "0.08",
        )
        assert strict.returncode == 1

    def test_before_after_table_rendered(self, tmp_path):
        current = write(tmp_path / "current.json", datapoint(2.0, 11.0))
        baseline = write(tmp_path / "baseline.json", datapoint(2.2, 10.0))
        result = run_gate(
            "--current", str(current), "--baseline", str(baseline)
        )
        assert "| metric | baseline | current | change |" in result.stdout
        assert "| cold wall (s) | 10.000 | 11.000 | +10.0% |" in result.stdout

    def test_table_markers_follow_an_overridden_warn_threshold(
        self, tmp_path
    ):
        # The ⚠ markers must track --warn, not a hardcoded 15%: with
        # --warn 0.05 a +10% cold-wall regression gets marked (and the
        # ~9% throughput drop trips the gate's WARNING verdict too, so
        # table and verdict agree).
        current = write(tmp_path / "current.json", datapoint(2.0, 11.0))
        baseline = write(tmp_path / "baseline.json", datapoint(2.2, 10.0))
        result = run_gate(
            "--current", str(current), "--baseline", str(baseline),
            "--warn", "0.05", "--fail", "0.5",
        )
        assert result.returncode == 0
        assert (
            "| cold wall (s) | 10.000 | 11.000 | +10.0% ⚠ |"
            in result.stdout
        )
        assert "WARNING" in result.stdout

    def test_rows_missing_on_either_side_are_skipped(self, tmp_path):
        # A baseline from before a metric was retired still carries it,
        # and a new metric has no baseline yet: both rows are skipped,
        # so old and new datapoints keep comparing.
        baseline = write(
            tmp_path / "baseline.json",
            {**datapoint(), "vectorized_wall_s": 9.0, "rebuild_speedup_x": 3.3},
        )
        current = write(
            tmp_path / "current.json", {**datapoint(), "profiled_wall_s": 11.0}
        )
        result = run_gate(
            "--current", str(current), "--baseline", str(baseline)
        )
        assert result.returncode == 0
        assert "| cold tasks/s | 2.000 | 2.000 | +0.0% |" in result.stdout
        assert "vectorized" not in result.stdout
        assert "rebuild" not in result.stdout
        assert "profiled" not in result.stdout

    def test_summary_file_appended(self, tmp_path):
        current = write(tmp_path / "current.json", datapoint())
        summary = tmp_path / "summary.md"
        result = run_gate(
            "--current", str(current),
            "--baseline", str(tmp_path / "missing.json"),
            "--summary", str(summary),
        )
        assert result.returncode == 0
        assert "Campaign perf gate" in summary.read_text()

    def test_unreadable_current_exits_2(self, tmp_path):
        result = run_gate("--current", str(tmp_path / "missing.json"))
        assert result.returncode == 2


class TestTrajectory:
    def test_append_accumulates_per_commit_lines(self, tmp_path):
        trajectory = tmp_path / "BENCH_trajectory.jsonl"
        for i, sha in enumerate(("aaa111", "bbb222")):
            current = write(
                tmp_path / "current.json", datapoint(2.0 + i * 0.1)
            )
            result = run_gate(
                "--current", str(current),
                "--trajectory", str(trajectory), "--append",
                "--commit", sha,
            )
            assert result.returncode == 0
        lines = trajectory.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["commit"] == "aaa111"
        assert json.loads(lines[1])["tasks_per_s"] == 2.1

    def test_trend_table_shows_recent_commits(self, tmp_path):
        trajectory = tmp_path / "t.jsonl"
        current = write(tmp_path / "current.json", datapoint())
        for sha in ("aaa111", "bbb222", "ccc333"):
            run_gate(
                "--current", str(current),
                "--trajectory", str(trajectory), "--append",
                "--commit", sha,
            )
        result = run_gate(
            "--current", str(current),
            "--trajectory", str(trajectory),
            "--window", "2",
        )
        assert "Perf trajectory (last 2 commits)" in result.stdout
        assert "`bbb222`" in result.stdout and "`ccc333`" in result.stdout
        assert "`aaa111`" not in result.stdout

    def test_rerun_of_one_commit_keeps_latest_datapoint(self, tmp_path):
        trajectory = tmp_path / "t.jsonl"
        for value in (2.0, 9.0):
            current = write(tmp_path / "current.json", datapoint(value))
            run_gate(
                "--current", str(current),
                "--trajectory", str(trajectory), "--append",
                "--commit", "same-sha",
            )
        current = write(tmp_path / "current.json", datapoint())
        result = run_gate(
            "--current", str(current), "--trajectory", str(trajectory)
        )
        assert result.stdout.count("`same-sha`") == 1
        assert "9.000" in result.stdout

    def test_damaged_trajectory_lines_skipped(self, tmp_path):
        trajectory = tmp_path / "t.jsonl"
        trajectory.write_text(
            json.dumps({"commit": "good", "tasks_per_s": 2.0}) + "\n"
            "{ torn line\n"
        )
        current = write(tmp_path / "current.json", datapoint())
        result = run_gate(
            "--current", str(current), "--trajectory", str(trajectory)
        )
        assert result.returncode == 0
        assert "`good`" in result.stdout
