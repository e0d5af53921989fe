"""Tests for the campaign orchestrator: supervise, requeue, watch.

The orchestrator's contract: one call fans a campaign out over real
worker subprocesses and the collected result is bit-identical to a
serial run — through worker death (chaos SIGKILL), run-dir resume, and
permanently failing shards (clean abort with the worker's log tail).
The watcher is strictly read-only: partial aggregates with honest run
counts, and it never mutates or repairs a live stream.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

from repro.cli import main
from repro.experiments import orchestrator as orchestrator_module
from repro.experiments.campaign import (
    CampaignSpec,
    campaign_spec_hash,
    run_campaign,
    task_key,
)
from repro.experiments.orchestrator import (
    OrchestratorError,
    orchestrate_campaign,
)
from repro.experiments.scenarios import Scenario
from repro.experiments.stream import StreamError, load_stream, stream_task_count
from repro.experiments.transport import LocalTransport, TransportError
from repro.telemetry.events import EventLog, load_events

TINY = Scenario(
    name="orch-tiny",
    n_nodes=10,
    active_nodes=5,
    radius=150.0,
    message_count=2,
    sim_time=15.0,
    seed=3,
)

#: 2 radii x 2 protocols x 2 replicates = 8 tasks; small enough that a
#: full orchestrated run (subprocess workers included) takes seconds.
SPEC = CampaignSpec(
    name="orch",
    base=TINY,
    grid=(("radius", (120.0, 180.0)),),
    protocols=("glr", "epidemic"),
    replicates=2,
)


@pytest.fixture(scope="module")
def orchestrated(tmp_path_factory):
    """One orchestrated run of SPEC, shared by the read-only tests."""
    run_dir = tmp_path_factory.mktemp("orchestrated")
    events: list[str] = []
    outcome = orchestrate_campaign(
        SPEC,
        shards=2,
        run_dir=run_dir,
        poll_interval=0.05,
        on_event=events.append,
    )
    return outcome, events, run_dir


@pytest.fixture(scope="module")
def serial_reference():
    return run_campaign(SPEC)


class TestOrchestratedRun:
    def test_matches_serial_reference_bit_for_bit(
        self, orchestrated, serial_reference
    ):
        outcome, _, _ = orchestrated
        assert outcome.result.render() == serial_reference.render()
        assert outcome.result.metrics == serial_reference.metrics

    def test_shard_accounting_covers_every_task(self, orchestrated):
        # Every shard launches once (an empty initial lease set is a
        # steal target) and finishes done; each shard's recorded count
        # is its own stream's, and together the streams hold every task.
        outcome, _, _ = orchestrated
        keys = {
            task_key(task)
            for _, cell_spec in SPEC.cell_specs()
            for task in cell_spec.tasks()
        }
        recorded: set[str] = set()
        for status in outcome.shards:
            assert status.state == "done"
            assert status.attempts == 1
            stream_keys = load_stream(status.stream, quarantine=False).keys()
            assert status.recorded == len(stream_keys)
            recorded |= stream_keys
        assert recorded == keys

    def test_merged_stream_holds_every_record(self, orchestrated):
        outcome, _, run_dir = orchestrated
        assert outcome.merged_stream == run_dir / "campaign.jsonl"
        assert stream_task_count(outcome.merged_stream) == SPEC.total_tasks()

    def test_run_dir_artifacts(self, orchestrated):
        outcome, _, run_dir = orchestrated
        spec_doc = json.loads((run_dir / "spec.json").read_text())
        restored = CampaignSpec.from_dict(spec_doc)
        assert campaign_spec_hash(restored) == campaign_spec_hash(SPEC)
        for status in outcome.shards:
            assert status.stream.exists()
            assert (run_dir / f"shard{status.index}.events").exists()
            assert status.log.exists()
        assert not list(run_dir.glob("*.heartbeat"))

    def test_events_narrate_launch_and_completion(self, orchestrated):
        _, events, _ = orchestrated
        assert any(event.startswith("launched shard") for event in events)
        assert any("done" in event for event in events)
        assert any("merged" in event for event in events)

    def test_final_summary_reports_per_shard_attempts(self, orchestrated):
        # Requeues used to be the only rebalancing that surfaced; the
        # final summary now carries per-shard attempt counts too.
        outcome, events, _ = orchestrated
        for status in outcome.shards:
            assert any(
                event.startswith(f"summary: shard {status.index}: ")
                and f"{status.attempts} attempt(s)" in event
                for event in events
            )
        assert outcome.requeues == 0

    def test_rerun_with_same_dir_resumes_streams_untouched(
        self, orchestrated
    ):
        outcome, _, run_dir = orchestrated
        before = {
            status.stream: status.stream.read_bytes()
            for status in outcome.shards
        }
        events: list[str] = []
        again = orchestrate_campaign(
            SPEC,
            shards=2,
            run_dir=run_dir,
            poll_interval=0.05,
            on_event=events.append,
        )
        # The relaunched workers stream-resume: every task is already
        # recorded, so the shard streams do not change by one byte.
        for stream, payload in before.items():
            assert stream.read_bytes() == payload
        assert any("resuming" in event for event in events)
        assert again.result.render() == outcome.result.render()

    def test_mismatched_run_dir_is_refused(self, orchestrated, tmp_path):
        _, _, run_dir = orchestrated
        other = CampaignSpec(
            name="orch", base=TINY, protocols=("glr",), replicates=1
        )
        with pytest.raises(StreamError, match="spec hash"):
            orchestrate_campaign(
                other, shards=2, run_dir=run_dir, poll_interval=0.05
            )


class TestRunDirSlots:
    """``shards=N`` slots are transports too: ``LocalTransport`` on the
    run dir, on the same supervision path as host slots."""

    def test_shards_launch_through_the_run_dir_transport(
        self, tmp_path, monkeypatch, serial_reference
    ):
        launched: list[tuple] = []
        real_launch = LocalTransport.launch

        def spy(transport, command, stdout, env=None):
            launched.append((transport.root, list(command), env))
            return real_launch(transport, command, stdout, env)

        monkeypatch.setattr(LocalTransport, "launch", spy)
        run_dir = tmp_path / "run"
        outcome = orchestrate_campaign(
            SPEC, shards=2, run_dir=run_dir, poll_interval=0.05
        )
        assert len(launched) == sum(s.attempts for s in outcome.shards) == 2
        for root, command, env in launched:
            assert root == run_dir
            assert command[:3] == [sys.executable, "-m", "repro.cli"]
            assert str(run_dir / "spec.json") in command
            assert "PYTHONPATH" in env
        # Run-dir slots carry no host label anywhere.
        assert outcome.hosts == ()
        assert all(status.host == "" for status in outcome.shards)
        records = load_events(run_dir / "events.jsonl", quarantine=False).records
        assert all(record["host"] is None for record in records)
        assert "host_join" not in {record["type"] for record in records}
        assert outcome.result.metrics == serial_reference.metrics

    def test_failing_run_dir_slot_is_declared_lost_and_reclaimed(
        self, tmp_path, monkeypatch, serial_reference
    ):
        # A run-dir slot whose beacon touch keeps failing takes the
        # host path: VANISH_AFTER strikes, lost, leases reclaimed.
        real_touch = LocalTransport.touch

        def failing_for_shard1(transport, rel):
            if rel == "shard1.tasks.json":
                raise TransportError("simulated unwritable run dir")
            return real_touch(transport, rel)

        monkeypatch.setattr(LocalTransport, "touch", failing_for_shard1)
        events: list[str] = []
        outcome = orchestrate_campaign(
            SPEC, shards=2, run_dir=tmp_path / "run", poll_interval=0.05,
            on_event=events.append,
        )
        assert outcome.shards[1].state == "lost"
        assert outcome.shards[0].state == "done"
        assert any(
            "(shard 1) vanished (3 consecutive transport failures" in event
            for event in events
        )
        assert outcome.result.metrics == serial_reference.metrics

    def test_hosts_json_join_reaches_a_shards_run(
        self, tmp_path, serial_reference
    ):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "hosts.json").write_text(
            json.dumps({"join": [f"store:{tmp_path}/h-late"]}),
            encoding="utf-8",
        )
        events: list[str] = []
        outcome = orchestrate_campaign(
            SPEC, shards=1, run_dir=run_dir, poll_interval=0.05,
            lease_batch=1, steal_threshold=1, on_event=events.append,
        )
        assert outcome.hosts == (f"store:{tmp_path}/h-late",)
        assert [status.host for status in outcome.shards] == [
            "", f"store:{tmp_path}/h-late",
        ]
        assert any("registered as shard 1" in event for event in events)
        late = outcome.shards[1]
        assert late.attempts >= 1
        assert late.stolen_to >= 1
        assert outcome.result.metrics == serial_reference.metrics


class TestChaosRecovery:
    def test_sigkilled_worker_is_requeued_and_campaign_completes(
        self, tmp_path, serial_reference
    ):
        events: list[str] = []
        outcome = orchestrate_campaign(
            SPEC,
            shards=2,
            run_dir=tmp_path / "chaos",
            poll_interval=0.05,
            on_event=events.append,
            chaos_kill_shard=0,
            chaos_kill_after=0,  # at launch: deterministic
        )
        assert any("chaos: SIGKILL shard 0" in event for event in events)
        assert any("requeuing" in event for event in events)
        assert outcome.requeues >= 1
        assert outcome.shards[0].attempts >= 2
        # Recovery is invisible in the result: still bit-identical.
        assert outcome.result.render() == serial_reference.render()
        assert outcome.result.metrics == serial_reference.metrics

    @pytest.mark.parametrize("fires", [True, False])
    @pytest.mark.parametrize("kind", ["shard", "host"])
    def test_injection_records_one_typed_chaos_event(
        self, tmp_path, serial_reference, kind, fires
    ):
        # One injector serves both kills; when the worker outruns it
        # (chaos_kill_after above the campaign's size) it says so.
        placement = (
            {"shards": 2, "chaos_kill_shard": 0} if kind == "shard"
            else {
                "hosts": [f"store:{tmp_path}/h0", f"store:{tmp_path}/h1"],
                "chaos_kill_host": 0,
            }
        )
        events: list[str] = []
        run_dir = tmp_path / "run"
        outcome = orchestrate_campaign(
            SPEC,
            run_dir=run_dir,
            poll_interval=0.05,
            on_event=events.append,
            chaos_kill_after=0 if fires else SPEC.total_tasks() + 1,
            **placement,
        )
        chaos = [
            record
            for record in load_events(
                run_dir / "events.jsonl", quarantine=False
            ).records
            if record["type"] == "chaos"
        ]
        assert len(chaos) == 1
        assert chaos[0]["shard"] == 0
        assert chaos[0]["host"] == (
            None if kind == "shard" else f"store:{tmp_path}/h0"
        )
        assert chaos[0]["payload"] == {
            "action": "kill" if kind == "shard" else "kill_host",
            "fired": fires,
        }
        missed = any(
            "finished before the injection could fire" in event
            for event in events
        )
        assert missed == (not fires)
        assert (outcome.requeues >= 1) == fires
        assert outcome.result.metrics == serial_reference.metrics

    def test_chaos_shard_must_exist(self, tmp_path):
        with pytest.raises(ValueError, match="chaos_kill_shard"):
            orchestrate_campaign(
                SPEC, shards=2, run_dir=tmp_path, chaos_kill_shard=5
            )


class TestFailureHandling:
    def test_persistently_failing_shard_aborts_with_log_tail(
        self, tmp_path, monkeypatch
    ):
        # Replace the worker command with one that dies instantly, so
        # the abort path runs without simulating anything.
        monkeypatch.setattr(
            orchestrator_module,
            "_worker_command",
            lambda *args, **kwargs: [
                sys.executable,
                "-c",
                "print('worker log line'); raise SystemExit(7)",
            ],
        )
        with pytest.raises(OrchestratorError, match="shard") as excinfo:
            orchestrate_campaign(
                SPEC,
                shards=1,
                run_dir=tmp_path,
                poll_interval=0.05,
                max_attempts=2,
            )
        message = str(excinfo.value)
        assert "[7, 7]" in message  # both attempts' exit codes
        assert "worker log line" in message  # the log tail is surfaced

    def test_bad_scheduler_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="lease_batch"):
            orchestrate_campaign(
                SPEC, shards=2, run_dir=tmp_path, lease_batch=0
            )
        with pytest.raises(ValueError, match="steal_threshold"):
            orchestrate_campaign(
                SPEC, shards=2, run_dir=tmp_path, steal_threshold=0
            )
        with pytest.raises(ValueError, match="chaos_slow_shard"):
            orchestrate_campaign(
                SPEC, shards=2, run_dir=tmp_path, chaos_slow_shard=5
            )
        with pytest.raises(ValueError, match="chaos_slow_s"):
            orchestrate_campaign(
                SPEC, shards=2, run_dir=tmp_path,
                chaos_slow_shard=0, chaos_slow_s=0.0,
            )

    def test_bad_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            orchestrate_campaign(SPEC, shards=0, run_dir=tmp_path)
        with pytest.raises(ValueError, match="workers_per_shard"):
            orchestrate_campaign(
                SPEC, shards=1, run_dir=tmp_path, workers_per_shard=0
            )
        with pytest.raises(ValueError, match="max_attempts"):
            orchestrate_campaign(
                SPEC, shards=1, run_dir=tmp_path, max_attempts=0
            )
        with pytest.raises(ValueError, match="max_concurrent"):
            orchestrate_campaign(
                SPEC, shards=2, run_dir=tmp_path, max_concurrent=0
            )
        with pytest.raises(ValueError, match="poll_interval"):
            orchestrate_campaign(
                SPEC, shards=1, run_dir=tmp_path, poll_interval=0.0
            )
        # An idle worker writes its event log every HEARTBEAT_EVERY_S
        # seconds, so a threshold under twice that would kill it.
        floor = 2 * orchestrator_module.HEARTBEAT_EVERY_S
        for stall_timeout in (0.0, floor - 1):
            with pytest.raises(ValueError, match="stall_timeout"):
                orchestrate_campaign(
                    SPEC, shards=1, run_dir=tmp_path,
                    stall_timeout=stall_timeout,
                )


class TestStealingScheduler:
    """Supervision behaviours of the lease board and work stealing.

    (Result equivalence through steals, slow shards, and mid-steal
    worker death lives in ``test_equivalence.py``.)
    """

    def test_every_shard_launches_even_with_an_empty_partition(
        self, tmp_path, serial_reference
    ):
        # A tiny campaign can leave a shard's hash partition empty;
        # that worker still launches — an idle worker is a steal
        # target, not noise.
        tiny = CampaignSpec(
            name="orch", base=TINY, protocols=("glr",), replicates=1
        )
        events: list[str] = []
        outcome = orchestrate_campaign(
            tiny,
            shards=4,
            run_dir=tmp_path / "wide",
            poll_interval=0.05,
            on_event=events.append,
        )
        assert all(status.attempts >= 1 for status in outcome.shards)
        assert sum(s.recorded for s in outcome.shards) == tiny.total_tasks()
        assert any("closing assignments" in event for event in events)

    def test_max_concurrent_below_shards_reclaims_queued_leases(
        self, tmp_path, serial_reference
    ):
        # Regression: with fewer slots than shards, the launched
        # workers used to go idle waiting on never-closed assignment
        # files while the queued slots' keep-window leases could never
        # move — a silent deadlock.  A queued slot has no worker in
        # flight, so its leases are reclaimed wholesale onto the idle
        # live workers and the campaign completes on one slot.
        events: list[str] = []
        outcome = orchestrate_campaign(
            SPEC,
            shards=3,
            run_dir=tmp_path / "capped",
            poll_interval=0.05,
            max_concurrent=1,
            on_event=events.append,
        )
        assert any(
            event.startswith("reclaim: moved") for event in events
        )
        assert outcome.steals >= 1
        assert sum(s.recorded for s in outcome.shards) >= (
            SPEC.total_tasks()
        )
        assert outcome.result.render() == serial_reference.render()
        assert outcome.result.metrics == serial_reference.metrics

    def test_assignment_files_live_next_to_the_streams(self, tmp_path):
        run_dir = tmp_path / "run"
        outcome = orchestrate_campaign(
            SPEC,
            shards=2,
            run_dir=run_dir,
            poll_interval=0.05,
        )
        for status in outcome.shards:
            assert (run_dir / f"shard{status.index}.tasks.json").exists()
            assert status.stream.exists()

    def test_finished_run_dir_resumes_without_running_anything(
        self, tmp_path, serial_reference
    ):
        run_dir = tmp_path / "resume"
        first = orchestrate_campaign(
            SPEC, shards=2, run_dir=run_dir, poll_interval=0.05,
        )
        before = {
            status.stream: status.stream.read_bytes()
            for status in first.shards
            if status.stream.exists()
        }
        events: list[str] = []
        again = orchestrate_campaign(
            SPEC, shards=2, run_dir=run_dir, poll_interval=0.05,
            on_event=events.append,
        )
        # Everything was recorded already: zero launches, streams
        # untouched, same aggregate.
        assert all(status.attempts == 0 for status in again.shards)
        for stream, payload in before.items():
            assert stream.read_bytes() == payload
        assert any("resuming" in event for event in events)
        assert again.result.render() == serial_reference.render()

    def test_run_dir_of_a_fixed_shard_worker_resumes(
        self, tmp_path, serial_reference
    ):
        """A run dir whose shard 0 ran as a fixed hash shard (a stream,
        no assignment file) resumes under leases: its records are kept
        byte for byte and none of its tasks runs again."""
        from collections import Counter

        run_dir = tmp_path / "fixed-shard"
        old_stream = run_dir / "shard0.jsonl"
        run_campaign(
            SPEC, stream_path=old_stream, shard_index=0, shard_count=2
        )
        old_bytes = old_stream.read_bytes()
        old_keys = load_stream(old_stream, quarantine=False).keys()
        assert old_keys
        outcome = orchestrate_campaign(
            SPEC, shards=2, run_dir=run_dir, poll_interval=0.05
        )
        assert old_stream.read_bytes().startswith(old_bytes)
        counts = Counter(
            record["key"]
            for status in outcome.shards
            for record in load_stream(status.stream, quarantine=False).records
        )
        assert all(counts[key] == 1 for key in old_keys)
        assert outcome.result.render() == serial_reference.render()
        assert outcome.result.metrics == serial_reference.metrics

    def test_mismatched_run_dir_is_refused(self, tmp_path):
        run_dir = tmp_path / "mismatch"
        orchestrate_campaign(
            SPEC, shards=2, run_dir=run_dir, poll_interval=0.05,
        )
        other = CampaignSpec(
            name="orch", base=TINY, protocols=("glr",), replicates=1
        )
        with pytest.raises(StreamError, match="spec hash"):
            orchestrate_campaign(
                other, shards=2, run_dir=run_dir, poll_interval=0.05,
            )

    def test_persistently_failing_worker_aborts_with_log_tail(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            orchestrator_module,
            "_worker_command",
            lambda *args, **kwargs: [
                sys.executable,
                "-c",
                "print('stealing worker log'); raise SystemExit(9)",
            ],
        )
        with pytest.raises(OrchestratorError, match="shard") as excinfo:
            orchestrate_campaign(
                SPEC,
                shards=1,
                run_dir=tmp_path,
                poll_interval=0.05,
                max_attempts=2,
            )
        message = str(excinfo.value)
        assert "[9, 9]" in message
        assert "stealing worker log" in message


class TestWatch:
    """``campaign watch`` over in-process shard streams (no
    subprocesses): a read-only result store over the streams."""

    @pytest.fixture()
    def shard_streams(self, tmp_path):
        streams = []
        for index in range(2):
            stream = tmp_path / f"shard{index}.jsonl"
            run_campaign(
                SPEC,
                stream_path=stream,
                shard_index=index,
                shard_count=2,
            )
            streams.append(stream)
        return streams

    @staticmethod
    def _watch(capsys, streams) -> str:
        assert main(
            ["campaign", "watch", *map(str, streams), "--once"]
        ) == 0
        return capsys.readouterr().out

    def test_partial_view_reports_honest_counts(self, shard_streams, capsys):
        out = self._watch(capsys, shard_streams[:1])
        done, total = stream_task_count(shard_streams[0]), SPEC.total_tasks()
        assert 0 < done < total
        assert (
            f"{done}/{total} tasks recorded ({100.0 * done / total:.1f}%)"
            in out
        )
        assert f"/{len(SPEC.cells())} cells complete" in out

    def test_full_view_matches_live_aggregate(
        self, shard_streams, serial_reference, capsys
    ):
        total, cells = SPEC.total_tasks(), len(SPEC.cells())
        assert self._watch(capsys, shard_streams) == (
            f"campaign orch: {total}/{total} tasks recorded (100.0%), "
            f"{cells}/{cells} cells complete\n"
            f"{serial_reference.render()}\n"
        )

    def test_watching_never_mutates_a_live_stream(
        self, shard_streams, capsys
    ):
        # Simulate a worker mid-append: torn tail on one stream.
        with open(shard_streams[0], "a") as handle:
            handle.write('{"kind": "task", "key": "in-fli')
        before = [stream.read_bytes() for stream in shard_streams]
        out = self._watch(capsys, shard_streams)
        assert "1 in-flight/undecodable line(s) skipped" in out
        assert [s.read_bytes() for s in shard_streams] == before
        for stream in shard_streams:
            sidecar = stream.with_name(stream.name + ".quarantined")
            assert not sidecar.exists()

    def test_empty_cells_render_as_waiting(self, tmp_path, capsys):
        from repro.experiments.stream import init_stream

        stream = tmp_path / "fresh.jsonl"
        init_stream(stream, campaign_spec_hash(SPEC), SPEC.to_dict())
        out = self._watch(capsys, [stream])
        assert f"0/{SPEC.total_tasks()} tasks recorded" in out
        assert "no task records yet" in out

    def test_mixed_campaign_streams_refused(
        self, shard_streams, tmp_path, capsys
    ):
        other_spec = CampaignSpec(
            name="other", base=TINY, protocols=("glr",), replicates=1
        )
        other = tmp_path / "other.jsonl"
        run_campaign(other_spec, stream_path=other)
        argv = ["campaign", "watch", str(shard_streams[0]), str(other)]
        assert main([*argv, "--once"]) == 2
        assert "spec hash" in capsys.readouterr().err

    def test_no_streams_refused(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        assert main(["campaign", "watch", str(missing), "--once"]) == 2
        assert "no campaign streams" in capsys.readouterr().err


class TestSpawnLeakFix:
    """A failed worker launch must not leak the already-open log handle."""

    def test_launch_failure_closes_log_handle(self, tmp_path, monkeypatch):
        import builtins

        opened: list = []
        real_open = builtins.open

        def tracking_open(file, *args, **kwargs):
            handle = real_open(file, *args, **kwargs)
            if str(file).endswith(".log"):
                opened.append(handle)
            return handle

        def exploding_popen(*args, **kwargs):
            raise OSError("simulated launch failure")

        monkeypatch.setattr(builtins, "open", tracking_open)
        monkeypatch.setattr(
            orchestrator_module.subprocess, "Popen", exploding_popen
        )
        with pytest.raises(OSError, match="simulated launch failure"):
            orchestrate_campaign(
                SPEC,
                shards=2,
                run_dir=tmp_path / "run",
                poll_interval=0.05,
            )
        assert opened, "the launch path never opened a worker log"
        assert all(handle.closed for handle in opened)


class TestHostsValidation:
    def test_hosts_and_shards_conflict(self, tmp_path):
        with pytest.raises(ValueError, match="hosts or shards"):
            orchestrate_campaign(
                SPEC, shards=2, run_dir=tmp_path,
                hosts=[f"store:{tmp_path}/h0"],
            )

    def test_one_of_hosts_or_shards_required(self, tmp_path):
        with pytest.raises(ValueError, match="shards is required"):
            orchestrate_campaign(SPEC, run_dir=tmp_path)

    def test_run_dir_required(self):
        with pytest.raises(ValueError, match="run_dir"):
            orchestrate_campaign(SPEC, shards=2)

    def test_per_shard_chaos_conflicts_with_hosts(self, tmp_path):
        with pytest.raises(ValueError, match="single-machine only"):
            orchestrate_campaign(
                SPEC, run_dir=tmp_path,
                hosts=[f"store:{tmp_path}/h0"], chaos_kill_shard=0,
            )
        with pytest.raises(ValueError, match="single-machine only"):
            orchestrate_campaign(
                SPEC, run_dir=tmp_path,
                hosts=[f"store:{tmp_path}/h0"], chaos_slow_shard=0,
            )

    def test_chaos_kill_host_needs_hosts(self, tmp_path):
        with pytest.raises(ValueError, match="hosts mode"):
            orchestrate_campaign(
                SPEC, shards=2, run_dir=tmp_path, chaos_kill_host=0
            )

    def test_chaos_kill_host_must_be_a_slot(self, tmp_path):
        with pytest.raises(ValueError, match="chaos_kill_host"):
            orchestrate_campaign(
                SPEC, run_dir=tmp_path,
                hosts=[f"store:{tmp_path}/h0"], chaos_kill_host=1,
            )

    def test_duplicate_hosts_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="twice"):
            orchestrate_campaign(
                SPEC, run_dir=tmp_path,
                hosts=[f"store:{tmp_path}/h0", f"store:{tmp_path}/h0"],
            )

    def test_bad_host_spec_rejected_before_anything_runs(self, tmp_path):
        with pytest.raises(ValueError, match="host spec"):
            orchestrate_campaign(SPEC, run_dir=tmp_path / "r", hosts=["@bad"])
        assert not (tmp_path / "r").exists()


class TestHostedOrchestration:
    """Cross-machine orchestration over ObjectStoreTransport pseudo-hosts.

    A pseudo-host is just a store root whose worker is a local
    subprocess — the full transport path (spec push, assignment push,
    stream/event-log mirror pull, remote-root worker command) runs
    exactly as it would against a real fleet, minus the network.
    """

    def test_two_hosts_match_serial_bit_for_bit(
        self, tmp_path, serial_reference
    ):
        events: list[str] = []
        outcome = orchestrate_campaign(
            SPEC,
            run_dir=tmp_path / "run",
            hosts=[f"store:{tmp_path}/h0", f"store:{tmp_path}/h1"],
            poll_interval=0.05,
            on_event=events.append,
        )
        assert outcome.hosts == (
            f"store:{tmp_path}/h0", f"store:{tmp_path}/h1",
        )
        assert outcome.result.render() == serial_reference.render()
        assert outcome.result.metrics == serial_reference.metrics
        # The workers really ran against the store roots, not the
        # run dir: each host holds its own stream object...
        stored = [
            [path.name for path in (tmp_path / f"h{index}").iterdir()]
            for index in range(2)
        ]
        assert any(f"shard{i}.jsonl" in keys
                   for i, keys in enumerate(stored))
        assert all("spec.json" in keys for keys in stored)
        # ...and the run dir holds the supervisor-side mirrors.
        assert (tmp_path / "run" / "shard0.jsonl").exists() or (
            tmp_path / "run" / "shard1.jsonl"
        ).exists()

    def test_host_killed_at_launch_reclaims_onto_survivor(
        self, tmp_path, serial_reference
    ):
        """chaos_kill_after=0 vanishes the host deterministically at
        launch: every one of its leases must reclaim onto the
        survivor and the final aggregate stay byte-identical."""
        events: list[str] = []
        outcome = orchestrate_campaign(
            SPEC,
            run_dir=tmp_path / "run",
            hosts=[f"store:{tmp_path}/h0", f"store:{tmp_path}/h1"],
            poll_interval=0.05,
            on_event=events.append,
            chaos_kill_host=0,
            chaos_kill_after=0,
        )
        lost = outcome.shards[0]
        assert lost.state == "lost"
        assert lost.requeues == 1
        assert any("vanished" in event for event in events)
        assert any("requeuing" in event for event in events)
        assert any(event.startswith("reclaim: moved") for event in events)
        assert outcome.result.render() == serial_reference.render()
        assert outcome.result.metrics == serial_reference.metrics

    def test_elastic_join_gets_leases_mid_campaign(
        self, tmp_path, serial_reference
    ):
        """A host appended to hosts.json mid-run registers a slot and
        work rebalances onto it through the normal steal path."""
        run_dir = tmp_path / "run"
        events: list[str] = []
        joined = {"done": False}

        def on_event(message: str) -> None:
            events.append(message)
            if not joined["done"] and message.startswith("launched shard"):
                joined["done"] = True
                (run_dir / "hosts.json").write_text(
                    json.dumps({"join": [f"store:{tmp_path}/h-late"]}),
                    encoding="utf-8",
                )

        outcome = orchestrate_campaign(
            SPEC,
            run_dir=run_dir,
            hosts=[f"store:{tmp_path}/h0"],
            poll_interval=0.05,
            lease_batch=1,
            steal_threshold=1,
            on_event=on_event,
        )
        assert len(outcome.shards) == 2
        assert outcome.hosts == (
            f"store:{tmp_path}/h0", f"store:{tmp_path}/h-late",
        )
        assert any(
            event.startswith("join: host") and "registered as shard 1"
            in event
            for event in events
        )
        late = outcome.shards[1]
        assert late.attempts >= 1
        assert late.stolen_to >= 1
        assert late.recorded >= 1
        assert outcome.result.render() == serial_reference.render()
        assert outcome.result.metrics == serial_reference.metrics

    @pytest.mark.parametrize("slot", ["store-host", "run-dir"])
    def test_stale_heartbeat_from_an_earlier_worker_is_not_a_stall(
        self, tmp_path, serial_reference, slot
    ):
        """An event log left by an earlier worker (an interrupted run of
        the same dir, or the worker whose stall caused a relaunch) must
        not kill the new worker before its own first heartbeat.  A host
        slot used to mirror the stale liveness file over the new
        worker's and lose every attempt to the stall check."""
        run_dir = tmp_path / "run"
        root = tmp_path / "h0" if slot == "store-host" else run_dir
        root.mkdir()
        earlier = EventLog(root / "shard0.events", origin="shard0")
        earlier.emit("heartbeat", shard=0, reason="task-done")
        stale = time.time() - 3600
        os.utime(earlier.path, (stale, stale))
        placement = (
            {"hosts": [f"store:{root}"]} if slot == "store-host"
            else {"shards": 1}
        )
        events: list[str] = []
        outcome = orchestrate_campaign(
            SPEC,
            run_dir=run_dir,
            poll_interval=0.05,
            stall_timeout=60,
            max_attempts=2,
            on_event=events.append,
            **placement,
        )
        assert not any("stalled" in event for event in events)
        assert outcome.shards[0].attempts == 1
        assert outcome.result.metrics == serial_reference.metrics

    def test_silent_worker_is_killed_as_stalled_until_the_run_aborts(
        self, tmp_path, monkeypatch
    ):
        """A worker that never writes its liveness record is declared
        stalled, killed and relaunched, and the campaign gives up once
        the slot has used every attempt."""
        launched: list = []

        class SilentTransport(LocalTransport):
            def launch(self, command, stdout, env=None):
                process = super().launch(
                    [sys.executable, "-c", "import time; time.sleep(60)"],
                    stdout,
                    env,
                )
                launched.append(process)
                return process

        monkeypatch.setattr(orchestrator_module, "HEARTBEAT_EVERY_S", 0.1)
        run_dir = tmp_path / "run"
        with pytest.raises(OrchestratorError, match="kept failing"):
            orchestrate_campaign(
                SPEC,
                run_dir=run_dir,
                hosts=[SilentTransport(tmp_path / "h0", scheme="store")],
                poll_interval=0.05,
                stall_timeout=0.5,
                max_attempts=2,
            )
        stalls = [
            record
            for record in load_events(
                run_dir / "events.jsonl", quarantine=False
            ).records
            if record["type"] == "stall"
        ]
        assert [record["shard"] for record in stalls] == [0, 0]
        assert len(launched) == 2
        assert all(process.poll() is not None for process in launched)

    def test_join_of_bad_spec_burns_the_entry_not_the_run(
        self, tmp_path, serial_reference
    ):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "hosts.json").write_text(
            json.dumps({"join": ["@nonsense"]}), encoding="utf-8"
        )
        events: list[str] = []
        outcome = orchestrate_campaign(
            SPEC,
            run_dir=run_dir,
            hosts=[f"store:{tmp_path}/h0"],
            poll_interval=0.05,
            on_event=events.append,
        )
        assert any(event.startswith("join: bad host spec") for event in events)
        assert len(outcome.shards) == 1
        assert outcome.result.metrics == serial_reference.metrics
