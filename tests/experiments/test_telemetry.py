"""Tests for the telemetry fabric: event log, profiler, CLI surface."""

import gc
import json
import os
import re
import time

import pytest

from repro.cli import main
from repro.experiments.layout import RunLayout
from repro.experiments.runner import build_world
from repro.experiments.scenarios import Scenario
from repro.telemetry.events import (
    EVENT_TYPES,
    EventLog,
    EventLogError,
    filter_events,
    load_events,
    make_event,
    make_events_header,
    merge_events,
    render_event,
    unknown_event_types,
)
from repro.telemetry.profile import (
    NULL_PROFILER,
    PHASE_CALENDAR,
    PHASE_GC,
    PHASE_MAC,
    PHASE_PROTOCOL,
    PHASES,
    PROFILE_ENV,
    PhaseProfiler,
    aggregate_phase_profiles,
    make_profiler,
    profiling_enabled,
)


def _encode(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _write_log(path, origin: str, records: list[dict]) -> None:
    """Hand-author an events file (controlled timestamps for merges)."""
    lines = [make_events_header(origin), *records]
    path.write_text("".join(_encode(r) for r in lines), encoding="utf-8")


class TestEventSchema:
    #: Representative payloads per type, mirroring what the supervisor
    #: and workers actually emit.
    PAYLOADS = {
        "run_start": {"shards": 2, "total_tasks": 8},
        "run_end": {"outcome": "complete", "records": 8, "requeues": 0},
        "launch": {"pid": 4242, "leased": 4},
        "exit": {"exit_code": 0, "outcome": "done", "recorded": 4},
        "stall": {"heartbeat_age_s": 12.5},
        "requeue": {"exit_code": -9, "recorded": 1, "remaining": 3},
        "steal": {"moved": 2, "to": 1, "victim_remaining": 2},
        "reclaim": {"moved": 2, "slot_kind": "workerless", "to": [1]},
        "chaos": {"action": "kill", "fired": True},
        "host_join": {"joined_mid_run": True},
        "host_lost": {"why": "vanished", "remaining": 1},
        "shard_summary": {"requeues": 1, "recorded": 4, "state": "done"},
        "heartbeat": {"reason": "task-done"},
        "adversary": {"specs": ["blackhole:0.2", "location_lying:0.3"]},
        "report": {
            "format": "markdown", "out": "report.md",
            "cells": 4, "records": 8,
        },
    }

    def test_payload_fixture_covers_every_type(self):
        assert set(self.PAYLOADS) == EVENT_TYPES

    def test_every_type_round_trips(self, tmp_path):
        """emit -> load preserves every field of every event type."""
        log = EventLog(tmp_path / "events.jsonl", origin="supervisor")
        emitted = {}
        for type_name in sorted(EVENT_TYPES):
            emitted[type_name] = log.emit(
                type_name,
                shard=1,
                host="p0",
                attempt=2,
                msg=f"human text for {type_name}",
                **self.PAYLOADS[type_name],
            )
        info = load_events(log.path)
        assert info.origin == "supervisor"
        assert info.quarantined == 0
        by_type = {r["type"]: r for r in info.records}
        assert set(by_type) == EVENT_TYPES
        for type_name, record in by_type.items():
            assert record == emitted[type_name]
            assert record["shard"] == 1
            assert record["host"] == "p0"
            assert record["attempt"] == 2
            assert record["payload"] == self.PAYLOADS[type_name]

    def test_identity_fields_default_to_null(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl", origin="shard0")
        log.emit("run_start")
        record = load_events(log.path).records[0]
        assert record["shard"] is None
        assert record["host"] is None
        assert record["attempt"] is None
        assert record["msg"] is None
        assert record["payload"] == {}

    def test_timestamps_are_real_numbers(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl", origin="shard0")
        before = time.time()
        log.emit("launch", shard=0)
        record = load_events(log.path).records[0]
        assert before <= record["t_wall"] <= time.time()
        assert record["t_mono"] > 0

    def test_bool_timestamps_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bad = make_event("launch", t_mono=True, t_wall=1.0)
        _write_log(path, "shard0", [bad])
        info = load_events(path, quarantine=False)
        assert info.records == []
        assert info.quarantined == 1

    def test_no_file_without_emit(self, tmp_path):
        EventLog(tmp_path / "events.jsonl", origin="supervisor")
        assert not (tmp_path / "events.jsonl").exists()

    def test_ensure_adopts_existing_file(self, tmp_path):
        """A merged file keeps its header when a resume re-opens it."""
        path = tmp_path / "events.jsonl"
        _write_log(path, "merged", [])
        log = EventLog(path, origin="supervisor").ensure()
        assert load_events(log.path).origin == "merged"


class TestQuarantine:
    def _torn_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = make_event("launch", t_mono=1.0, t_wall=10.0, shard=0)
        _write_log(path, "shard0", [good])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "event", "type": "exi')
        return path, good

    def test_reader_leaves_torn_tail_in_place(self, tmp_path):
        """quarantine=False must not repair a possibly-live file."""
        path, good = self._torn_log(tmp_path)
        before = path.read_bytes()
        info = load_events(path, quarantine=False)
        assert info.records == [good]
        assert info.quarantined == 1
        assert path.read_bytes() == before
        assert not path.with_name("events.jsonl.quarantined").exists()

    def test_writer_repairs_and_keeps_raw_sidecar(self, tmp_path):
        path, good = self._torn_log(tmp_path)
        info = load_events(path, quarantine=True)
        assert info.records == [good]
        assert info.quarantined == 1
        sidecar = path.with_name("events.jsonl.quarantined")
        assert sidecar.read_text().startswith('{"kind": "event", "type"')
        repaired = load_events(path)
        assert repaired.quarantined == 0
        assert repaired.records == [good]

    def test_missing_header_is_an_error_not_damage(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(_encode(make_event("launch", t_mono=1.0, t_wall=1.0)))
        with pytest.raises(EventLogError, match="no valid header"):
            load_events(path, quarantine=False)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(EventLogError, match="cannot read"):
            load_events(tmp_path / "absent.jsonl")


class TestMerge:
    def _origins(self, tmp_path):
        """Two origin files whose second events tie on t_mono."""
        a = tmp_path / "events.jsonl"
        b = tmp_path / "shard1.events"
        _write_log(
            a,
            "supervisor",
            [
                make_event("run_start", t_mono=1.0, t_wall=10.0),
                make_event("launch", t_mono=2.0, t_wall=11.0, shard=0),
            ],
        )
        _write_log(
            b,
            "shard1",
            [
                make_event(
                    "heartbeat",
                    t_mono=2.0,
                    t_wall=11.0,
                    shard=1,
                    payload={"reason": "task-done"},
                ),
                make_event("exit", t_mono=3.0, t_wall=12.0, shard=1),
            ],
        )
        return a, b

    def test_merge_orders_by_mono_with_deterministic_ties(self, tmp_path):
        a, b = self._origins(tmp_path)
        out = tmp_path / "merged.jsonl"
        info = merge_events(out, [a, b])
        assert info.origin == "merged"
        assert [r["type"] for r in info.records] == [
            "run_start",
            "heartbeat",  # ties with launch at t_mono=2.0; encoded
            "launch",  # line "…heartbeat…" sorts before "…launch…"
            "exit",
        ]

    def test_merge_is_input_order_independent(self, tmp_path):
        a, b = self._origins(tmp_path)
        merge_events(tmp_path / "ab.jsonl", [a, b])
        merge_events(tmp_path / "ba.jsonl", [b, a])
        assert (tmp_path / "ab.jsonl").read_bytes() == (
            tmp_path / "ba.jsonl"
        ).read_bytes()

    def test_remerge_is_idempotent(self, tmp_path):
        """The supervisor re-merges into events.jsonl on every collect."""
        a, b = self._origins(tmp_path)
        merge_events(a, [a, b])
        first = a.read_bytes()
        merge_events(a, [a, b])
        assert a.read_bytes() == first

    def test_missing_inputs_are_skipped(self, tmp_path):
        a, _ = self._origins(tmp_path)
        info = merge_events(
            tmp_path / "m.jsonl", [a, tmp_path / "never-written.events"]
        )
        assert len(info.records) == 2

    def test_all_inputs_missing_raises(self, tmp_path):
        with pytest.raises(EventLogError, match="nothing to merge"):
            merge_events(tmp_path / "m.jsonl", [tmp_path / "nope.events"])


class TestFilterAndRender:
    RECORDS = [
        make_event("launch", t_mono=1.0, t_wall=100.0, shard=0),
        make_event("launch", t_mono=2.0, t_wall=200.0, shard=1),
        make_event("requeue", t_mono=3.0, t_wall=300.0, shard=0),
    ]

    def test_filter_by_type(self):
        assert len(filter_events(self.RECORDS, type="launch")) == 2

    def test_filter_by_shard(self):
        got = filter_events(self.RECORDS, shard=0)
        assert [r["type"] for r in got] == ["launch", "requeue"]

    def test_filter_by_since_wall(self):
        got = filter_events(self.RECORDS, since_wall=150.0)
        assert [r["t_wall"] for r in got] == [200.0, 300.0]

    def test_filters_compose(self):
        assert filter_events(self.RECORDS, type="launch", shard=0, since_wall=150.0) == []

    def test_unknown_event_types(self):
        rogue = make_event("warp_core_breach", t_mono=1.0, t_wall=1.0)
        assert unknown_event_types([*self.RECORDS, rogue]) == {
            "warp_core_breach"
        }
        assert unknown_event_types(self.RECORDS) == set()

    def test_render_event_shows_identity_and_msg(self):
        record = make_event(
            "requeue",
            t_mono=1.0,
            t_wall=100.0,
            shard=2,
            host="p1",
            attempt=3,
            msg="shard 2 died (exit -9); requeued",
        )
        line = render_event(record)
        assert "requeue" in line
        assert "[shard 2, host p1, attempt 3]" in line
        assert line.endswith(": shard 2 died (exit -9); requeued")

    def test_render_event_falls_back_to_payload(self):
        record = make_event(
            "heartbeat",
            t_mono=1.0,
            t_wall=100.0,
            shard=0,
            payload={"reason": "idle-wait"},
        )
        assert render_event(record).endswith(': {"reason": "idle-wait"}')


class TestThrottle:
    def test_throttle_suppresses_within_interval(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl", origin="shard0")
        first = log.emit_throttled(
            "hb:0:task-done", 60.0, "heartbeat", shard=0, reason="task-done"
        )
        second = log.emit_throttled(
            "hb:0:task-done", 60.0, "heartbeat", shard=0, reason="task-done"
        )
        assert first is not None
        assert second is None
        assert len(load_events(log.path).records) == 1

    def test_throttle_keys_are_independent(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl", origin="shard0")
        assert log.emit_throttled("hb:0:task-done", 60.0, "heartbeat")
        assert log.emit_throttled("hb:0:idle-wait", 60.0, "heartbeat")
        assert len(load_events(log.path).records) == 2

    def test_throttle_expires(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl", origin="shard0")
        assert log.emit_throttled("k", 0.0, "heartbeat")
        assert log.emit_throttled("k", 0.0, "heartbeat")

    def test_suppressed_call_freshens_the_stall_clock(self, tmp_path):
        # A task finishing inside the throttle window writes no line,
        # yet the worker is alive: the log's age (the stall check's
        # reading) must restart, or a long task after a short one could
        # read as a stall.
        layout = RunLayout(tmp_path)
        log = EventLog(layout.shard_events(0), origin="shard0")
        assert log.emit_throttled("hb:task-done", 60.0, "heartbeat")
        before = log.path.read_bytes()
        stale = time.time() - 3600.0
        os.utime(log.path, (stale, stale))
        assert log.emit_throttled("hb:task-done", 60.0, "heartbeat") is None
        assert log.path.read_bytes() == before
        assert layout.record_age(0, time.time()) < 1.0


class TestPhaseProfiler:
    def test_snapshot_always_carries_every_phase(self):
        profiler = PhaseProfiler()
        t0 = profiler.start()
        profiler.add(PHASE_MAC, t0)
        snap = profiler.snapshot()
        assert set(snap) == set(PHASES)
        assert all(v >= 0.0 for v in snap.values())

    def test_exclusive_attribution_subtracts_child_time(self):
        """An outer phase is charged only its own time, not its child's."""
        profiler = PhaseProfiler()
        outer = profiler.start()
        inner = profiler.start()
        time.sleep(0.02)
        profiler.add(PHASE_MAC, inner)
        profiler.add(PHASE_PROTOCOL, outer)
        snap = profiler.snapshot()
        assert snap[PHASE_MAC] >= 0.02
        assert snap[PHASE_PROTOCOL] < snap[PHASE_MAC]

    def test_accumulates_across_calls(self):
        profiler = PhaseProfiler()
        for _ in range(3):
            profiler.add(PHASE_MAC, profiler.start())
        assert profiler.snapshot()[PHASE_MAC] >= 0.0

    def test_null_profiler_is_inert(self):
        assert NULL_PROFILER.enabled is False
        assert NULL_PROFILER.start() == 0
        NULL_PROFILER.add(PHASE_MAC, 0)
        assert NULL_PROFILER.snapshot() == {}

    def test_env_gates_make_profiler(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert not profiling_enabled()
        assert make_profiler() is NULL_PROFILER
        monkeypatch.setenv(PROFILE_ENV, "0")
        assert make_profiler() is NULL_PROFILER
        monkeypatch.setenv(PROFILE_ENV, "1")
        assert profiling_enabled()
        assert isinstance(make_profiler(), PhaseProfiler)

    def test_aggregate_sums_per_cell_and_skips_unprofiled(self):
        records = [
            {
                "scenario": "s/r=100",
                "protocol": "glr",
                "phase_profile": {"mac": 1.0, "mobility": 0.5},
            },
            {
                "scenario": "s/r=100",
                "protocol": "glr",
                "phase_profile": {"mac": 2.0},
            },
            {"scenario": "s/r=100", "protocol": "epidemic"},
        ]
        cells = aggregate_phase_profiles(records)
        assert set(cells) == {("s/r=100", "glr")}
        assert cells[("s/r=100", "glr")] == {
            "tasks": 2,
            "mac": 3.0,
            "mobility": 0.5,
        }


class TestRunPhaseCoverage:
    """Phases of a real run: timers charged, residual on the calendar."""

    SCENARIO = Scenario(n_nodes=20, active_nodes=10, message_count=30,
                        sim_time=40.0)

    @pytest.mark.parametrize("protocol", ["one_hop", "glr"])
    def test_phases_sum_to_run_wall_time(self, protocol):
        """``calendar`` brackets the event loop and keeps only what no
        other phase claims, and ``gc`` takes collector pauses out of the
        phase they interrupt, so a run's phases add up to its wall
        time."""
        profiler = PhaseProfiler()
        world = build_world(self.SCENARIO, protocol, profiler=profiler)
        # Collections in the middle of the run, from a protocol timer
        # and from the calendar itself.
        world.protocols[0].api.schedule(10.0, gc.collect)
        world.sim.schedule_at(20.0, gc.collect)
        before = sum(profiler.snapshot().values())
        start = time.perf_counter()
        world.run(until=self.SCENARIO.sim_time)
        wall = time.perf_counter() - start
        snap = profiler.snapshot()
        assert 0.95 * wall <= sum(snap.values()) - before <= wall + 1e-6
        assert snap[PHASE_CALENDAR] > 0.0
        assert snap[PHASE_GC] > 0.0

    def test_forced_collection_lands_in_gc(self):
        """A pause inside a protocol timer is charged to ``gc``, not to
        the protocol phase that was open when it fired."""
        profiler = PhaseProfiler()
        world = build_world(
            self.SCENARIO.but(message_count=0), "one_hop", profiler=profiler
        )
        garbage = [[] for _ in range(200_000)]
        for item in garbage:
            item.append(item)
        paused = []

        def collect() -> None:
            garbage.clear()  # 200,000 unreachable cycles
            start = time.perf_counter()
            gc.collect()
            paused.append(time.perf_counter() - start)

        world.protocols[0].api.schedule(1.0, collect)
        hooks = list(gc.callbacks)
        world.run(until=5.0)
        snap = profiler.snapshot()
        assert snap[PHASE_GC] >= 0.8 * paused[0]
        assert snap[PHASE_PROTOCOL] < 0.5 * paused[0]
        assert gc.callbacks == hooks

    def test_no_gc_hook_with_profiling_off(self):
        world = build_world(self.SCENARIO.but(message_count=0), "one_hop")
        during = []
        world.sim.schedule_at(1.0, lambda: during.append(list(gc.callbacks)))
        hooks = list(gc.callbacks)
        world.run(until=2.0)
        assert during == [hooks]

    @pytest.mark.parametrize("kind", ["schedule", "periodic"])
    def test_node_timers_are_charged_to_protocol(self, kind):
        profiler = PhaseProfiler()
        world = build_world(
            self.SCENARIO.but(message_count=0), "one_hop", profiler=profiler
        )
        api = world.protocols[0].api

        def sleep() -> None:
            time.sleep(0.02)

        if kind == "schedule":
            api.schedule(1.0, sleep)
        else:
            api.periodic(4.0, sleep)  # first fire within [0, 4) s
        world.run(until=5.0)
        assert profiler.snapshot()[PHASE_PROTOCOL] >= 0.02

    def test_timers_are_not_wrapped_with_profiling_off(self):
        world = build_world(self.SCENARIO, "one_hop")

        def callback() -> None:
            pass

        handle = world.protocols[0].api.schedule(1.0, callback)
        assert handle.callback is callback


#: One tiny orchestrated run via the CLI, shared by the status/events
#: surface tests below (2 tasks, 2 shards; seconds of wall time).
@pytest.fixture(scope="module")
def cli_run_dir(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("telemetry-cli") / "run"
    code = main(
        [
            "campaign",
            "orchestrate",
            "--name",
            "telemetry-cli",
            "--radii",
            "100,150",
            "--node-counts",
            "10",
            "--protocols",
            "glr",
            "--replicates",
            "1",
            "--messages",
            "2",
            "--sim-time",
            "15",
            "--shards",
            "2",
            "--poll-interval",
            "0.05",
            "--dir",
            str(run_dir),
        ]
    )
    assert code == 0
    return run_dir


class TestStatusCli:
    def test_status_reports_coverage_and_shards(self, cli_run_dir, capsys):
        assert main(["campaign", "status", str(cli_run_dir)]) == 0
        out = capsys.readouterr().out
        assert "2/2 tasks recorded" in out
        assert "run complete (run_end recorded)" in out
        assert "shard 0" in out
        assert "last beat" in out

    def test_status_json_is_machine_readable(self, cli_run_dir, capsys):
        assert main(["campaign", "status", "--json", str(cli_run_dir)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["finished"] is True
        assert doc["tasks_done"] == 2
        assert doc["tasks_total"] == 2
        assert doc["events_origin"] == "merged"
        assert {row["shard"] for row in doc["shards"]} >= {0}
        assert doc["event_counts"].get("run_end") == 1

    def test_status_json_reports_the_runs_stall_timeout(
        self, cli_run_dir, capsys
    ):
        assert main(["campaign", "status", "--json", str(cli_run_dir)]) == 0
        assert json.loads(capsys.readouterr().out)["stall_timeout_s"] == 600

    def test_watch_dir_prints_the_status_rows(self, cli_run_dir, capsys):
        def rows(argv):
            assert main(argv) == 0
            return [
                re.sub(r"last beat \d+s ago", "last beat", line)
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("  shard ")
            ]

        status = rows(["campaign", "status", str(cli_run_dir)])
        assert status
        assert rows(
            ["campaign", "watch", "--dir", str(cli_run_dir), "--once"]
        ) == status

    def test_status_missing_dir_exits_2(self, tmp_path, capsys):
        assert main(["campaign", "status", str(tmp_path / "nope")]) == 2
        assert capsys.readouterr().err

    def test_status_does_not_repair_the_event_log(self, cli_run_dir):
        """The status reader must never quarantine a live writer's tail."""
        events = RunLayout(cli_run_dir).events
        with open(events, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "event", "ty')
        before = events.read_bytes()
        try:
            assert main(["campaign", "status", str(cli_run_dir)]) == 0
            assert events.read_bytes() == before
            assert not events.with_name(
                events.name + ".quarantined"
            ).exists()
        finally:
            events.write_bytes(before[: -len('{"kind": "event", "ty')])


class TestStallMarker:
    """``status`` marks a shard stalled by the supervisor's own rule:
    its event log's age, floored at its latest launch, against the
    stall timeout the run's ``run_start`` event records."""

    def _run_dir(self, tmp_path, launch=False, **run_start):
        layout = RunLayout(tmp_path)
        supervisor = EventLog(layout.events, origin="supervisor")
        supervisor.emit("run_start", shards=1, total_tasks=1, **run_start)
        if launch:
            supervisor.emit("launch", shard=0, attempt=1)
        worker = EventLog(layout.shard_events(0), origin="shard0")
        worker.emit("heartbeat", shard=0, reason="idle-wait")
        quiet = time.time() - 100
        os.utime(layout.shard_events(0), (quiet, quiet))
        return tmp_path

    def _status(self, run_dir, capsys, *flags):
        assert main(["campaign", "status", *flags, str(run_dir)]) == 0
        return capsys.readouterr().out

    def test_recorded_stall_timeout_earns_the_marker(self, tmp_path, capsys):
        run_dir = self._run_dir(tmp_path, stall_timeout=30.0)
        assert "⚠ stalled?" in self._status(run_dir, capsys)
        doc = json.loads(self._status(run_dir, capsys, "--json"))
        assert doc["stall_timeout_s"] == 30.0
        assert doc["shards"][0]["heartbeat_age_s"] >= 100

    def test_a_log_without_one_falls_back_to_the_default(
        self, tmp_path, capsys
    ):
        out = self._status(self._run_dir(tmp_path), capsys)
        assert "last beat" in out
        assert "⚠ stalled?" not in out
        doc = json.loads(self._status(tmp_path, capsys, "--json"))
        assert doc["stall_timeout_s"] == 600

    def test_a_log_older_than_the_latest_launch_counts_from_it(
        self, tmp_path, capsys
    ):
        run_dir = self._run_dir(tmp_path, launch=True, stall_timeout=30.0)
        out = self._status(run_dir, capsys)
        assert "⚠ stalled?" not in out
        doc = json.loads(self._status(run_dir, capsys, "--json"))
        assert doc["shards"][0]["heartbeat_age_s"] < 30


class TestEventsCli:
    def test_events_renders_history(self, cli_run_dir, capsys):
        assert main(["campaign", "events", str(cli_run_dir)]) == 0
        out = capsys.readouterr().out
        assert "run_start" in out
        assert "launch" in out
        assert "run_end" in out

    def test_events_type_filter(self, cli_run_dir, capsys):
        code = main(
            ["campaign", "events", "--type", "launch", str(cli_run_dir)]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all("launch" in line for line in lines)

    def test_events_shard_filter_and_json(self, cli_run_dir, capsys):
        code = main(
            ["campaign", "events", "--shard", "1", "--json", str(cli_run_dir)]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert records
        assert all(r["shard"] == 1 for r in records)

    def test_events_rejects_unknown_type(self, cli_run_dir, capsys):
        with pytest.raises(SystemExit):  # argparse choices= rejects it
            main(["campaign", "events", "--type", "nonsense", str(cli_run_dir)])
        assert "--type" in capsys.readouterr().err

    def test_merged_log_validates_against_schema(self, cli_run_dir):
        """The ISSUE's acceptance check, as a test: one merged history."""
        info = load_events(RunLayout(cli_run_dir).events, quarantine=False)
        assert info.origin == "merged"
        assert unknown_event_types(info.records) == set()
        types = {r["type"] for r in info.records}
        assert {"run_start", "launch", "exit", "run_end"} <= types
