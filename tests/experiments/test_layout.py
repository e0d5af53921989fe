"""Tests for the run-directory layout authority.

The artifact names are frozen history: run dirs written by earlier
releases use exactly these strings and resume/watch read them back, so
every name here is pinned byte-for-byte — renaming one is a format
break, and this file is where that break gets caught.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments.layout import RunLayout


class TestFrozenNames:
    def test_artifact_names_are_pinned(self):
        assert RunLayout.spec_name() == "spec.json"
        assert RunLayout.merged_name() == "campaign.jsonl"
        assert RunLayout.hosts_name() == "hosts.json"
        assert RunLayout.stream_name(0) == "shard0.jsonl"
        assert RunLayout.log_name(7) == "shard7.log"
        assert RunLayout.assignment_name(12) == "shard12.tasks.json"
        assert RunLayout.events_name() == "events.jsonl"
        assert RunLayout.shard_events_name(4) == "shard4.events"
        assert RunLayout.STREAM_GLOB == "shard*.jsonl"

    def test_paths_resolve_names_under_the_root(self, tmp_path):
        layout = RunLayout(tmp_path)
        assert layout.root == tmp_path
        assert layout.spec == tmp_path / "spec.json"
        assert layout.merged_stream == tmp_path / "campaign.jsonl"
        assert layout.hosts_file == tmp_path / "hosts.json"
        assert layout.stream(2) == tmp_path / "shard2.jsonl"
        assert layout.log(2) == tmp_path / "shard2.log"
        assert layout.assignment(2) == tmp_path / "shard2.tasks.json"
        assert layout.events == tmp_path / "events.jsonl"
        assert layout.shard_events(2) == tmp_path / "shard2.events"

    def test_accepts_string_roots(self):
        layout = RunLayout("some/run")
        assert layout.stream(0) == Path("some/run/shard0.jsonl")


class TestShardStreams:
    def test_orders_numerically_not_lexicographically(self, tmp_path):
        layout = RunLayout(tmp_path)
        for index in (10, 2, 0, 1):
            layout.stream(index).write_text("x", encoding="utf-8")
        assert [path.name for path in layout.shard_streams()] == [
            "shard0.jsonl",
            "shard1.jsonl",
            "shard2.jsonl",
            "shard10.jsonl",
        ]

    def test_matches_only_shard_streams(self, tmp_path):
        layout = RunLayout(tmp_path)
        layout.stream(0).write_text("x", encoding="utf-8")
        # Neighbours that must NOT count as shard streams (a
        # ``.heartbeat`` file is an older release's leftover).
        for name in (
            "spec.json",
            "campaign.jsonl",
            "shard0.tasks.json",
            "shard0.heartbeat",
            "shard0.log",
            "shard0.jsonl.quarantined",
            f"shard0.jsonl.{12345}.tmp",
            "events.jsonl",
            "shard0.events",
        ):
            (tmp_path / name).write_text("x", encoding="utf-8")
        assert [path.name for path in layout.shard_streams()] == [
            "shard0.jsonl"
        ]

    def test_empty_dir_yields_nothing(self, tmp_path):
        assert RunLayout(tmp_path / "missing").shard_streams() == []


class TestRecordAge:
    """A worker's liveness reading: its event log's age, at most the
    time since its launch."""

    def _log(self, tmp_path, mtime):
        layout = RunLayout(tmp_path)
        layout.shard_events(0).write_text("x", encoding="utf-8")
        os.utime(layout.shard_events(0), (mtime, mtime))
        return layout

    def test_unknown_without_a_log_or_a_launch(self, tmp_path):
        assert RunLayout(tmp_path).record_age(0, 1000.0) is None

    def test_age_of_the_event_log(self, tmp_path):
        layout = self._log(tmp_path, 1000.0)
        assert layout.record_age(0, 1030.0) == 30.0
        assert layout.record_age(1, 1030.0) is None

    def test_a_log_older_than_the_launch_counts_from_the_launch(
        self, tmp_path
    ):
        layout = self._log(tmp_path, 1000.0)
        assert layout.record_age(0, 5000.0, launched=4990.0) == 10.0
        assert layout.record_age(0, 1030.0, launched=900.0) == 30.0

    def test_a_launched_worker_without_a_log_counts_from_the_launch(
        self, tmp_path
    ):
        assert RunLayout(tmp_path).record_age(0, 50.0, launched=20.0) == 30.0

    def test_never_negative(self, tmp_path):
        assert self._log(tmp_path, 1000.0).record_age(0, 990.0) == 0.0


class TestEnsure:
    def test_creates_root_with_parents_and_chains(self, tmp_path):
        root = tmp_path / "a" / "b" / "run"
        layout = RunLayout(root).ensure()
        assert root.is_dir()
        assert layout.root == root
        # Idempotent.
        assert RunLayout(root).ensure().root == root
