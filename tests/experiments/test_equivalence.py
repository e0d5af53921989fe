"""Golden determinism/equivalence harness for campaign engine v2.

Locks down the properties every v2 surface must preserve:

- serial, parallel, sharded-then-merged, and *orchestrated* (shard
  worker subprocesses supervised by
  :mod:`repro.experiments.orchestrator` — under both the static and
  the work-stealing scheduler, through steals, slow workers, and
  workers that die mid-steal) executions of one campaign are
  bit-identical per (scenario, protocol, seed);
- a default-protocol v2 campaign reproduces the v1 serial reference
  path (``run_replicates`` / ``run_single``, unchanged since the seed)
  on probe scenarios;
- stream-rebuilt aggregates equal live aggregates, byte for byte;
- a campaign killed after K tasks resumes from its stream alone (no
  result cache), runs exactly the remaining tasks, and converges to
  the uninterrupted stream;
- trace mobility cache keys follow file *content*, not the path;
- entries of an older cache format are recomputed, never read;
- spec hashes and task keys of a fixed campaign never drift;
- the phase profiler attributes time without changing results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.campaign import (
    CACHE_FORMAT,
    CampaignSpec,
    ReplicateSpec,
    ReplicateTask,
    ResultCache,
    campaign_result_from_stream,
    campaign_spec_hash,
    execute_tasks,
    run_campaign,
    task_key,
    task_payload,
)
from repro.experiments.orchestrator import orchestrate_campaign
from repro.experiments.protocols import ProtocolConfig
from repro.experiments.runner import run_replicates, run_single
from repro.experiments.scenarios import Scenario
from repro.experiments.stream import merge_streams
from repro.mobility.base import Region
from repro.mobility.registry import MobilityConfig
from repro.seeding import replicate_seed, stable_shard

TINY = Scenario(
    name="tiny",
    n_nodes=10,
    active_nodes=5,
    radius=150.0,
    message_count=2,
    sim_time=15.0,
    seed=3,
)

#: Three scenario/protocol probes spanning the surfaces v1 covered:
#: the paper RWP default path, a registry mobility model, and a
#: non-GLR baseline protocol.
PROBES = (
    (TINY, "glr"),
    (TINY.but(name="probe-gm", mobility="gauss-markov", radius=120.0),
     "glr"),
    (TINY.but(name="probe-epi", seed=7), "epidemic"),
)


def fingerprint(metrics):
    return dataclasses.asdict(metrics)


def stream_essence(path):
    """A stream's lines with per-run provenance stripped.

    ``wall_time_s`` (timing), ``cached`` (where the result came from),
    and ``phase_profile`` (opt-in wall-time attribution) legitimately
    differ between two executions of the same campaign; everything
    else — header, keys, seeds, metrics, order — must not.
    """
    essence = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record.pop("wall_time_s", None)
        record.pop("cached", None)
        record.pop("phase_profile", None)
        essence.append(json.dumps(record, sort_keys=True))
    return essence


def cell_fingerprints(result):
    return {
        cell: [fingerprint(m) for m in runs]
        for cell, runs in result.metrics.items()
    }


@pytest.fixture
def v2_spec():
    """A campaign exercising all v2 axes: grid x mobility x protocol."""
    return CampaignSpec(
        name="equiv",
        base=TINY,
        grid=(
            ("radius", (120.0, 180.0)),
            ("mobility", (MobilityConfig.of("random_waypoint"),
                          MobilityConfig.of("gauss_markov"))),
        ),
        protocols=(
            "glr",
            ProtocolConfig.of("glr", custody=False),
        ),
        replicates=2,
    )


class TestSerialParallelShardEquivalence:
    def test_serial_equals_parallel_equals_sharded_merged(
        self, v2_spec, tmp_path
    ):
        serial = run_campaign(
            v2_spec, workers=1, stream_path=tmp_path / "serial.jsonl"
        )
        parallel = run_campaign(
            v2_spec, workers=4, stream_path=tmp_path / "parallel.jsonl"
        )
        shards = []
        for index in range(2):
            shards.append(
                run_campaign(
                    v2_spec,
                    workers=2,
                    stream_path=tmp_path / f"shard{index}.jsonl",
                    shard_index=index,
                    shard_count=2,
                )
            )
        merge_streams(
            tmp_path / "merged.jsonl",
            [tmp_path / "shard0.jsonl", tmp_path / "shard1.jsonl"],
        )
        merged = campaign_result_from_stream(tmp_path / "merged.jsonl")

        reference = cell_fingerprints(serial)
        assert cell_fingerprints(parallel) == reference
        assert cell_fingerprints(merged) == reference
        assert merged.render() == serial.render()

    def test_orchestrated_equals_sharded_by_hand_equals_serial(
        self, v2_spec, tmp_path
    ):
        """The acceptance property: `repro campaign orchestrate
        --shards 2 --workers-per-shard 2` == hand-launched shards ==
        serial, bit for bit."""
        serial = run_campaign(
            v2_spec, workers=1, stream_path=tmp_path / "serial.jsonl"
        )
        for index in range(2):
            run_campaign(
                v2_spec,
                workers=2,
                stream_path=tmp_path / f"hand{index}.jsonl",
                shard_index=index,
                shard_count=2,
            )
        merge_streams(
            tmp_path / "hand.jsonl",
            [tmp_path / "hand0.jsonl", tmp_path / "hand1.jsonl"],
        )
        by_hand = campaign_result_from_stream(tmp_path / "hand.jsonl")
        orchestrated = orchestrate_campaign(
            v2_spec,
            shards=2,
            workers_per_shard=2,
            run_dir=tmp_path / "orchestrated",
            poll_interval=0.05,
        )

        reference = cell_fingerprints(serial)
        assert cell_fingerprints(by_hand) == reference
        assert cell_fingerprints(orchestrated.result) == reference
        assert orchestrated.result.render() == serial.render()
        # The orchestrator's merged stream holds the same records as
        # the hand merge, in the same canonical order — identical up
        # to per-run provenance (wall_time_s, cached).
        assert stream_essence(orchestrated.merged_stream) == stream_essence(
            tmp_path / "hand.jsonl"
        )

    def test_shards_partition_tasks_exactly(self, v2_spec):
        tasks = [t for s in v2_spec.specs() for t in s.tasks()]
        assignment = [stable_shard(task_key(t), 3) for t in tasks]
        assert all(0 <= shard < 3 for shard in assignment)
        # Every task lands in exactly one shard; together they cover
        # the whole campaign (partition, not sampling).
        per_shard = [assignment.count(i) for i in range(3)]
        assert sum(per_shard) == v2_spec.total_tasks()

    def test_shard_assignment_stable_across_expansion(self, v2_spec):
        tasks = [t for s in v2_spec.specs() for t in s.tasks()]
        again = [t for s in v2_spec.specs() for t in s.tasks()]
        assert [stable_shard(task_key(t), 5) for t in tasks] == [
            stable_shard(task_key(t), 5) for t in again
        ]

    def test_bad_shard_arguments_rejected(self, v2_spec, tmp_path):
        with pytest.raises(ValueError, match="together"):
            run_campaign(v2_spec, shard_index=0)
        with pytest.raises(ValueError, match="shard_index"):
            run_campaign(v2_spec, shard_index=2, shard_count=2)
        with pytest.raises(ValueError, match="shard_count"):
            run_campaign(v2_spec, shard_index=0, shard_count=0)


class TestStealingSchedulerEquivalence:
    """Scheduling must not change results: stolen/rebalanced runs merge
    to the same streams and aggregates as serial and static runs."""

    def _reference(self, v2_spec, tmp_path):
        serial = run_campaign(
            v2_spec, workers=1, stream_path=tmp_path / "serial.jsonl"
        )
        for index in range(2):
            run_campaign(
                v2_spec,
                workers=2,
                stream_path=tmp_path / f"hand{index}.jsonl",
                shard_index=index,
                shard_count=2,
            )
        merge_streams(
            tmp_path / "hand.jsonl",
            [tmp_path / "hand0.jsonl", tmp_path / "hand1.jsonl"],
        )
        return serial

    def test_stealing_equals_static_equals_serial(self, v2_spec, tmp_path):
        serial = self._reference(v2_spec, tmp_path)
        stolen = orchestrate_campaign(
            v2_spec,
            shards=2,
            workers_per_shard=2,
            run_dir=tmp_path / "stealing",
            poll_interval=0.05,
            scheduler="stealing",
            steal_threshold=1,
            lease_batch=1,
        )
        assert stolen.scheduler == "stealing"
        assert cell_fingerprints(stolen.result) == cell_fingerprints(serial)
        assert stolen.result.render() == serial.render()
        # The merged stream is the hand-sharded merge, up to per-run
        # provenance — wherever each task actually executed.
        assert stream_essence(stolen.merged_stream) == stream_essence(
            tmp_path / "hand.jsonl"
        )

    def test_chaos_slow_shard_forces_steals_same_result(
        self, v2_spec, tmp_path
    ):
        """A lagging worker's leases migrate (>= 1 steal fires) and the
        rebalanced run still merges bit-identically."""
        serial = self._reference(v2_spec, tmp_path)
        events: list[str] = []
        stolen = orchestrate_campaign(
            v2_spec,
            shards=2,
            run_dir=tmp_path / "slow",
            poll_interval=0.05,
            scheduler="stealing",
            steal_threshold=1,
            lease_batch=1,
            chaos_slow_shard=0,
            chaos_slow_s=0.6,
            on_event=events.append,
        )
        assert stolen.steals >= 1
        assert any(event.startswith("steal: moved") for event in events)
        assert sum(s.stolen_to for s in stolen.shards) == stolen.steals
        assert cell_fingerprints(stolen.result) == cell_fingerprints(serial)
        assert stolen.result.render() == serial.render()
        assert stream_essence(stolen.merged_stream) == stream_essence(
            tmp_path / "hand.jsonl"
        )

    def test_worker_death_composes_with_stealing(self, v2_spec, tmp_path):
        """Lease reclaim + requeue compose: the slow shard's worker is
        SIGKILLed mid-run, its replacement stream-resumes while steals
        keep draining its leases — and nothing changes in the result."""
        serial = self._reference(v2_spec, tmp_path)
        events: list[str] = []
        stolen = orchestrate_campaign(
            v2_spec,
            shards=2,
            run_dir=tmp_path / "die",
            poll_interval=0.05,
            scheduler="stealing",
            steal_threshold=1,
            lease_batch=1,
            chaos_kill_shard=0,
            chaos_kill_after=0,  # at launch: deterministic
            chaos_slow_shard=0,
            chaos_slow_s=0.4,
            on_event=events.append,
        )
        assert any("chaos: SIGKILL shard 0" in event for event in events)
        assert stolen.requeues >= 1
        assert stolen.shards[0].attempts >= 2
        # The replacement worker resumed the same stream while its
        # slot's leases stayed stealable; both mechanisms fired.
        assert stolen.steals >= 1
        assert cell_fingerprints(stolen.result) == cell_fingerprints(serial)
        assert stolen.result.render() == serial.render()

    def test_profiled_run_bit_identical_modulo_profile(
        self, v2_spec, tmp_path, monkeypatch
    ):
        """``REPRO_PROFILE_PHASES=1`` adds a ``phase_profile`` block to
        every task record and changes nothing else: metrics, keys,
        seeds, and order are bit-identical to the unprofiled run."""
        from repro.telemetry.profile import PHASES

        serial = self._reference(v2_spec, tmp_path)
        monkeypatch.setenv("REPRO_PROFILE_PHASES", "1")
        profiled = orchestrate_campaign(
            v2_spec,
            shards=2,
            workers_per_shard=2,
            run_dir=tmp_path / "profiled",
            poll_interval=0.05,
            scheduler="stealing",
            steal_threshold=1,
            lease_batch=1,
        )
        assert cell_fingerprints(profiled.result) == cell_fingerprints(
            serial
        )
        assert profiled.result.render() == serial.render()
        # Same records as the unprofiled hand-sharded reference, up to
        # provenance (stream_essence strips phase_profile).
        assert stream_essence(profiled.merged_stream) == stream_essence(
            tmp_path / "hand.jsonl"
        )
        records = [
            json.loads(line)
            for line in
            profiled.merged_stream.read_text().splitlines()[1:]
        ]
        assert records and all(
            set(record["phase_profile"]) == set(PHASES)
            for record in records
        )
        assert all(
            value >= 0.0
            for record in records
            for value in record["phase_profile"].values()
        )

    def test_balanced_run_with_high_threshold_never_steals(
        self, v2_spec, tmp_path
    ):
        """Zero-steal behaviour: with no imbalance worth moving, the
        run IS the static partition (assignment files included)."""
        from repro.experiments.scheduler import read_assignment
        from repro.seeding import shard_partition

        serial = self._reference(v2_spec, tmp_path)
        stolen = orchestrate_campaign(
            v2_spec,
            shards=2,
            run_dir=tmp_path / "balanced",
            poll_interval=0.05,
            scheduler="stealing",
            steal_threshold=10**6,
        )
        assert stolen.steals == 0
        keys = [
            task_key(task)
            for _, cell_spec in stolen.result.spec.cell_specs()
            for task in cell_spec.tasks()
        ]
        partition = shard_partition(keys, 2)
        for index, status in enumerate(stolen.shards):
            doc = read_assignment(tmp_path / "balanced"
                                  / f"shard{index}.tasks.json")
            # Closed files prune recorded keys, so compare the keys
            # each stream actually recorded to the static partition.
            assert doc.closed and doc.keys == ()
            assert status.recorded == len(partition[index])
        assert cell_fingerprints(stolen.result) == cell_fingerprints(serial)


class TestV1Reproduction:
    """Default-protocol v2 campaigns == the pre-PR serial reference."""

    @pytest.mark.parametrize(
        "scenario,protocol", PROBES,
        ids=[s.name for s, _ in PROBES],
    )
    def test_campaign_reproduces_reference_metrics(
        self, scenario, protocol, tmp_path
    ):
        reference = run_replicates(scenario, protocol, runs=2)
        spec = CampaignSpec(
            name=scenario.name,
            base=scenario,
            protocols=(protocol,),
            replicates=2,
        )
        result = run_campaign(
            spec,
            workers=2,
            cache_dir=tmp_path / "cache",
            stream_path=tmp_path / "stream.jsonl",
        )
        [runs] = result.metrics.values()
        assert [fingerprint(m) for m in runs] == [
            fingerprint(m) for m in reference
        ]

    def test_replicate_seeds_unchanged_from_v1(self):
        spec = ReplicateSpec(scenario=TINY, protocol="glr", runs=3)
        assert [t.scenario.seed for t in spec.tasks()] == [
            replicate_seed(TINY.seed, i) for i in range(3)
        ]
        assert [t.scenario.seed for t in spec.tasks()] == [3, 1003, 2003]


class TestStreamAggregationEquivalence:
    def test_stream_rebuild_equals_live_result(self, v2_spec, tmp_path):
        live = run_campaign(
            v2_spec, workers=2, stream_path=tmp_path / "s.jsonl"
        )
        rebuilt = campaign_result_from_stream(tmp_path / "s.jsonl")
        assert cell_fingerprints(rebuilt) == cell_fingerprints(live)
        assert rebuilt.render() == live.render()
        assert rebuilt.spec == v2_spec

    def test_stream_resume_skips_everything(self, v2_spec, tmp_path):
        run_campaign(v2_spec, stream_path=tmp_path / "s.jsonl")
        resumed = run_campaign(v2_spec, stream_path=tmp_path / "s.jsonl")
        assert resumed.stream_hits == v2_spec.total_tasks()
        assert resumed.cache_misses == 0

    def test_aggregate_reads_around_torn_tail_without_repairing(
        self, v2_spec, tmp_path
    ):
        # Aggregation is read-only: on a live stream, the "torn" tail
        # may be a record some writer is about to finish — report what
        # is valid, mutate nothing.
        stream = tmp_path / "s.jsonl"
        live = run_campaign(v2_spec, stream_path=stream)
        with open(stream, "a") as handle:
            handle.write('{"kind": "task", "key": "in-flight')
        before = stream.read_bytes()
        rebuilt = campaign_result_from_stream(stream)
        assert cell_fingerprints(rebuilt) == cell_fingerprints(live)
        assert stream.read_bytes() == before
        assert not stream.with_name(stream.name + ".quarantined").exists()

    def test_partial_stream_renders_actual_run_counts(
        self, v2_spec, tmp_path
    ):
        # A single shard's aggregate must not read like the full
        # campaign: the runs column shows what each cell aggregates.
        run_campaign(
            v2_spec,
            stream_path=tmp_path / "s0.jsonl",
            shard_index=0,
            shard_count=2,
        )
        partial = campaign_result_from_stream(tmp_path / "s0.jsonl")
        assert "runs" in partial.render()
        counts = {len(runs) for runs in partial.metrics.values()}
        assert counts  # the shard covers something...
        assert any(
            len(runs) < v2_spec.replicates
            for runs in partial.metrics.values()
        ) or len(partial.metrics) < len(v2_spec.cells())

    def test_aggregate_refuses_superseded_task_generations(
        self, v2_spec, tmp_path
    ):
        # If task keys change under a stream (e.g. a trace file edited
        # in place), resumed runs append a second generation of
        # records for the same cells.  Stream-alone aggregation cannot
        # tell which generation is current and must refuse rather than
        # mix populations into one CI.
        import json as jsonlib

        stream = tmp_path / "s.jsonl"
        run_campaign(v2_spec, stream_path=stream)
        lines = stream.read_text().splitlines()
        clone = jsonlib.loads(lines[1])
        assert clone["kind"] == "task"
        clone["key"] = "f" * 64  # same cell+replicate, different key
        with open(stream, "a") as handle:
            handle.write(jsonlib.dumps(clone) + "\n")
        with pytest.raises(ValueError, match="superseded"):
            campaign_result_from_stream(stream)

    def test_spec_hash_sensitive_to_spec_and_format(self, v2_spec):
        assert campaign_spec_hash(v2_spec) == campaign_spec_hash(v2_spec)
        bumped = dataclasses.replace(v2_spec, replicates=3)
        assert campaign_spec_hash(bumped) != campaign_spec_hash(v2_spec)

    def test_spec_survives_header_round_trip(self, v2_spec, tmp_path):
        run_campaign(
            v2_spec,
            stream_path=tmp_path / "s.jsonl",
            shard_index=0,
            shard_count=4,
        )
        rebuilt = campaign_result_from_stream(tmp_path / "s.jsonl")
        assert rebuilt.spec == v2_spec
        assert campaign_spec_hash(rebuilt.spec) == campaign_spec_hash(v2_spec)


class TestStreamBackedResume:
    """Streams are the primary resume medium: no cache dir required."""

    def test_killed_after_k_tasks_resumes_stream_only(
        self, v2_spec, tmp_path
    ):
        total = v2_spec.total_tasks()
        kill_after = 5
        assert 0 < kill_after < total

        # The uninterrupted reference run (serial, streamed).
        full = tmp_path / "full.jsonl"
        run_campaign(v2_spec, stream_path=full)

        # Simulate a campaign killed after K tasks: its stream is the
        # header plus the first K records (append_record fsyncs line by
        # line, so this is exactly what a SIGKILL leaves behind).
        interrupted = tmp_path / "interrupted.jsonl"
        lines = full.read_text().splitlines(keepends=True)
        interrupted.write_text("".join(lines[: 1 + kill_after]))

        # Resume with *no cache dir*: only the remaining tasks run.
        sources = []
        resumed = run_campaign(
            v2_spec,
            stream_path=interrupted,
            progress=lambda event: sources.append(event.source),
        )
        assert sources.count("stream") == kill_after
        assert sources.count("ran") == total - kill_after
        assert len(sources) == total
        assert resumed.stream_hits == kill_after
        assert resumed.cache_enabled is False

        # The resumed stream converges to the uninterrupted one:
        # identical lines in identical order, up to per-run provenance
        # (wall_time_s/cached), and a bit-identical aggregate.
        assert stream_essence(interrupted) == stream_essence(full)
        assert cell_fingerprints(resumed) == cell_fingerprints(
            campaign_result_from_stream(full)
        )
        assert resumed.render() == campaign_result_from_stream(full).render()

    def test_resume_handles_torn_tail_from_a_real_kill(
        self, v2_spec, tmp_path
    ):
        # A SIGKILL mid-append can also tear the final line; the
        # *writer's* resume path quarantines it and recomputes that
        # task (plus the never-run remainder).
        full = tmp_path / "full.jsonl"
        run_campaign(v2_spec, stream_path=full)
        interrupted = tmp_path / "interrupted.jsonl"
        lines = full.read_text().splitlines(keepends=True)
        torn = lines[3][: len(lines[3]) // 2]
        interrupted.write_text("".join(lines[:3]) + torn)

        resumed = run_campaign(v2_spec, stream_path=interrupted)
        assert resumed.stream_hits == 2  # the two intact records
        assert interrupted.with_name(
            interrupted.name + ".quarantined"
        ).exists()
        assert stream_essence(interrupted) == stream_essence(full)


class TestTraceContentHashKeys:
    def _write_trace(self, path, x=10.0):
        path.write_text(
            f"$node_(0) set X_ {x}\n$node_(0) set Y_ 10.0\n"
            "$node_(1) set X_ 20.0\n$node_(1) set Y_ 20.0\n"
        )

    def _task(self, trace_path):
        scenario = Scenario(
            name="traced",
            n_nodes=2,
            active_nodes=2,
            region=Region(100.0, 100.0),
            message_count=1,
            sim_time=10.0,
            mobility=MobilityConfig.of("trace", path=str(trace_path)),
        )
        return ReplicateTask(scenario, "glr", 0)

    def test_editing_trace_invalidates_key(self, tmp_path):
        trace = tmp_path / "a.ns2"
        self._write_trace(trace)
        before = task_key(self._task(trace))
        self._write_trace(trace, x=11.0)
        after = task_key(self._task(trace))
        assert before != after

    def test_same_content_rename_hits_same_key(self, tmp_path):
        original = tmp_path / "a.ns2"
        self._write_trace(original)
        key = task_key(self._task(original))
        renamed = tmp_path / "subdir" / "b.ns2"
        renamed.parent.mkdir()
        renamed.write_bytes(original.read_bytes())
        assert task_key(self._task(renamed)) == key

    def test_edited_trace_misses_cache_and_recomputes(self, tmp_path):
        trace = tmp_path / "a.ns2"
        self._write_trace(trace)
        cache = ResultCache(tmp_path / "cache")
        task = self._task(trace)
        execute_tasks([task], cache=cache)
        assert cache.load(task) is not None

        self._write_trace(trace, x=11.0)
        edited = self._task(trace)
        assert cache.load(edited) is None

    def test_renamed_trace_resumes_from_cache(self, tmp_path):
        trace = tmp_path / "a.ns2"
        self._write_trace(trace)
        cache = ResultCache(tmp_path / "cache")
        [metrics] = execute_tasks([self._task(trace)], cache=cache)

        copy = tmp_path / "copy.ns2"
        copy.write_bytes(trace.read_bytes())
        assert cache.load(self._task(copy)) == metrics

    def test_missing_trace_file_fails_key_computation(self, tmp_path):
        task = self._task(tmp_path / "gone.ns2")
        with pytest.raises(OSError):
            task_key(task)


class TestHostedEquivalence:
    """Distribution must not change results: a campaign spread over
    simulated remote hosts (ObjectStoreTransport roots) merges to the
    same streams and aggregates as serial — even through a host that
    vanishes mid-campaign."""

    def _serial(self, v2_spec, tmp_path):
        serial = run_campaign(
            v2_spec, workers=1, stream_path=tmp_path / "serial.jsonl"
        )
        # Canonical-merge reference: what any sharded run's merged
        # stream must match, independent of where each task executed.
        for index in range(2):
            run_campaign(
                v2_spec,
                workers=2,
                stream_path=tmp_path / f"hand{index}.jsonl",
                shard_index=index,
                shard_count=2,
            )
        merge_streams(
            tmp_path / "hand.jsonl",
            [tmp_path / "hand0.jsonl", tmp_path / "hand1.jsonl"],
        )
        return serial

    def test_two_simulated_hosts_equal_serial(self, v2_spec, tmp_path):
        serial = self._serial(v2_spec, tmp_path)
        hosted = orchestrate_campaign(
            v2_spec,
            run_dir=tmp_path / "hosted",
            hosts=[f"store:{tmp_path}/h0", f"store:{tmp_path}/h1"],
            workers_per_shard=2,
            poll_interval=0.05,
        )
        assert hosted.scheduler == "stealing"
        assert len(hosted.hosts) == 2
        assert cell_fingerprints(hosted.result) == cell_fingerprints(serial)
        assert hosted.result.render() == serial.render()
        # The supervisor-side mirrors merge to the same records as a
        # local sharded run would, up to per-run provenance.
        assert stream_essence(hosted.merged_stream) == stream_essence(
            tmp_path / "hand.jsonl"
        )

    def test_host_vanishing_mid_run_changes_nothing(
        self, v2_spec, tmp_path
    ):
        serial = self._serial(v2_spec, tmp_path)
        events: list[str] = []
        hosted = orchestrate_campaign(
            v2_spec,
            run_dir=tmp_path / "chaos",
            hosts=[f"store:{tmp_path}/c0", f"store:{tmp_path}/c1"],
            poll_interval=0.05,
            steal_threshold=1,
            lease_batch=1,
            chaos_kill_host=0,
            chaos_kill_after=0,  # at launch: deterministic
            on_event=events.append,
        )
        assert hosted.shards[0].state == "lost"
        assert hosted.requeues >= 1
        assert any(event.startswith("reclaim: moved") for event in events)
        assert cell_fingerprints(hosted.result) == cell_fingerprints(serial)
        assert hosted.result.render() == serial.render()
        assert stream_essence(hosted.merged_stream) == stream_essence(
            tmp_path / "hand.jsonl"
        )

    def test_profiled_hosted_run_bit_identical_modulo_profile(
        self, v2_spec, tmp_path, monkeypatch
    ):
        """Profiling composes with distribution: hosted workers inherit
        ``REPRO_PROFILE_PHASES`` and their merged stream still matches
        the unprofiled reference up to the phase_profile blocks."""
        serial = self._serial(v2_spec, tmp_path)
        monkeypatch.setenv("REPRO_PROFILE_PHASES", "1")
        hosted = orchestrate_campaign(
            v2_spec,
            run_dir=tmp_path / "profhost",
            hosts=[f"store:{tmp_path}/p0", f"store:{tmp_path}/p1"],
            workers_per_shard=2,
            poll_interval=0.05,
        )
        assert cell_fingerprints(hosted.result) == cell_fingerprints(serial)
        assert stream_essence(hosted.merged_stream) == stream_essence(
            tmp_path / "hand.jsonl"
        )
        records = [
            json.loads(line)
            for line in hosted.merged_stream.read_text().splitlines()[1:]
        ]
        assert records and all(
            "phase_profile" in record for record in records
        )


class TestPhaseAttribution:
    """The profiler charges each per-epoch layer to its own phase and
    leaves the metrics untouched."""

    def _profiled(self, scenario, protocol):
        from repro.telemetry.profile import PhaseProfiler

        bare = run_single(scenario, protocol)
        profiler = PhaseProfiler()
        profiled = run_single(scenario, protocol, profiler=profiler)
        assert fingerprint(profiled) == fingerprint(bare)
        return profiler.snapshot()

    def test_glr_probe_charges_planarization_separately(self):
        from repro.telemetry.profile import (
            PHASE_MOBILITY,
            PHASE_PLANARIZE,
            PHASE_UDG,
        )

        snapshot = self._profiled(*PROBES[0])
        assert snapshot[PHASE_PLANARIZE] > 0.0
        assert snapshot[PHASE_UDG] > 0.0
        assert snapshot[PHASE_MOBILITY] > 0.0

    def test_epidemic_probe_never_planarizes(self):
        from repro.telemetry.profile import PHASE_PLANARIZE

        snapshot = self._profiled(*PROBES[2])
        assert snapshot[PHASE_PLANARIZE] == 0.0

    @pytest.mark.parametrize(
        "scenario,protocol", PROBES,
        ids=[s.name for s, _ in PROBES],
    )
    def test_profiler_leaves_every_probe_unchanged(self, scenario, protocol):
        from repro.telemetry.profile import PHASES

        snapshot = self._profiled(scenario, protocol)
        assert set(snapshot) == set(PHASES)
        assert sum(snapshot.values()) > 0.0


class TestLargePopulationProbe:
    """A population spread over many grid cells (80 nodes, radius 120 on
    the paper's 1500 m x 300 m region): the campaign path through a
    worker pool reproduces the serial reference run bit for bit."""

    SCENARIO = TINY.but(
        name="probe-large", n_nodes=80, active_nodes=10, radius=120.0
    )

    def test_pool_execution_equals_serial_reference(self):
        reference = run_single(self.SCENARIO, "glr")
        task = ReplicateTask(self.SCENARIO, "glr", 0)
        [pooled, again] = execute_tasks([task, task], workers=2)
        assert fingerprint(pooled) == fingerprint(reference)
        assert fingerprint(again) == fingerprint(reference)


class TestOlderCacheFormats:
    """Entries from an older ``CACHE_FORMAT`` are ordinary misses."""

    def test_cache_format_is_three(self):
        task = ReplicateTask(TINY, "glr", 0)
        assert CACHE_FORMAT == 3
        assert task_payload(task)["format"] == CACHE_FORMAT

    def test_v2_era_entry_is_recomputed_not_read(self, tmp_path):
        task = ReplicateTask(TINY, "glr", 0)
        # Lay the entry out the way a format-2 cache stored it: no
        # protocol_config field, format 2, at the key of that payload.
        legacy_payload = task_payload(task)
        legacy_payload.pop("protocol_config")
        legacy_payload["format"] = 2
        legacy_key = hashlib.sha256(
            json.dumps(
                legacy_payload, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        ).hexdigest()
        reference = run_single(task.scenario, "glr")
        cache = ResultCache(tmp_path)
        legacy_path = cache.path_for(legacy_key)
        legacy_path.parent.mkdir(parents=True)
        legacy_text = json.dumps(
            {
                "format": 2,
                "key": legacy_payload,
                "metrics": reference.to_json(),
            }
        )
        legacy_path.write_text(legacy_text)

        assert cache.load(task) is None
        assert (cache.hits, cache.misses) == (0, 1)
        [metrics] = execute_tasks([task], cache=cache)
        assert fingerprint(metrics) == fingerprint(reference)
        current = json.loads(cache.path_for(task_key(task)).read_text())
        assert current["format"] == CACHE_FORMAT
        # The old entry is neither migrated nor removed.
        assert legacy_path.read_text() == legacy_text


class TestPinnedIdentities:
    """Spec hashes and task keys are the identity of every stream and
    cache entry; these values were computed before the ``engine`` field
    was removed and must never drift."""

    SPEC = CampaignSpec(
        name="identity",
        base=Scenario(name="identity", sim_time=90.0, seed=1),
        grid=(("radius", (60.0, 100.0)),),
        protocols=("one_hop", "spray_and_wait"),
        replicates=2,
    )

    def test_spec_hash_and_task_keys_are_pinned(self):
        tasks = [task for cell in self.SPEC.specs() for task in cell.tasks()]
        assert campaign_spec_hash(self.SPEC) == (
            "db7e9090acb37b7f8f8af15f97d14c07fc58863ba437a5f67de6b32a39bb462d"
        )
        assert len(tasks) == 8
        assert task_key(tasks[0]) == (
            "e8ff95c39df640447526b9c45f342ec2666b7b3a5767c6b5bde4deb59c29bfbf"
        )
        assert task_key(tasks[-1]) == (
            "fd64644194d429c89ff544cc3e21cc29cd48d587bab4e9f427efa3a52e4a0b35"
        )

    #: One task per identity-bearing axis: protocol, protocol config,
    #: buffer limit, mobility model and parameters, adversary.
    AXIS_TASKS = {
        "glr": ReplicateTask(TINY, "glr", 0),
        "epidemic": ReplicateTask(TINY, "epidemic", 1),
        "one_hop": ReplicateTask(TINY, "one_hop", 0),
        "spray-config": ReplicateTask(
            TINY, "spray_and_wait", 0,
            protocol_config=ProtocolConfig.of(
                "spray_and_wait", initial_copies=4
            ),
        ),
        "glr-two-face": ReplicateTask(
            TINY, "glr", 0,
            protocol_config=ProtocolConfig.of("glr", two_face=True),
        ),
        "buffer-limit": ReplicateTask(TINY, "glr", 2, buffer_limit=20),
        "gauss-markov": ReplicateTask(
            TINY.but(mobility="gauss-markov"), "glr", 0
        ),
        "manhattan-param": ReplicateTask(
            TINY.but(mobility=MobilityConfig.of("manhattan", blocks_x=3)),
            "glr", 0,
        ),
        "blackhole": ReplicateTask(
            TINY.but(adversary="blackhole:0.2"), "epidemic", 0
        ),
    }

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("glr", "9df1cd03bb8adcb9340a94c6215d93ae459fb0502bb63f32148ffbe2b27ec6ad"),
            ("epidemic", "90a8382ba716d3d0ac040f940c1c890da0704fbfedffdcea091981af4d7ff1e1"),
            ("one_hop", "6f31c77db322e4324ee5e3f7adafcf77047d4af4e464d0a5b6f8f590e49de8ef"),
            ("spray-config", "da58bd569871b6517cd880ee368165137b04f1c12282a547c2e0ef1df77fd84d"),
            ("glr-two-face", "1240042c446bd838c3028129832881a3a0e04001f8cd8e4955cb16399765948b"),
            ("buffer-limit", "adaec1fc19637f0847d43aec3a620237b6c7f6b890910d98a3f73603bc7ed4dc"),
            ("gauss-markov", "d0914c7085ee4258a3e0bfdb6efca57783ec82d4d36c250a298e7c8955ac88fc"),
            ("manhattan-param", "1619db780fd45de9738e66f71912cc91f49224e0bafb788dd303dc4b8442d3c0"),
            ("blackhole", "0c81dcd82f4c7a7d33dc02e5b3648f777b37490373c673f4539725d9e13244a4"),
        ],
    )
    def test_axis_task_key_is_pinned(self, name, expected):
        assert task_key(self.AXIS_TASKS[name]) == expected

    def test_multi_axis_spec_hash_is_pinned(self):
        spec = CampaignSpec(
            name="axes",
            base=TINY,
            grid=(
                ("mobility", (MobilityConfig.of("random_waypoint"),
                              MobilityConfig.of("rpgm"))),
                ("adversary", ("none", "blackhole:0.1")),
            ),
            protocols=("glr", ProtocolConfig.of("glr", custody=False)),
            replicates=2,
        )
        assert campaign_spec_hash(spec) == (
            "31727df52f55d37aba93d99afd2176d38382625a3a8e855e45ea7f5149d479e7"
        )

    @pytest.mark.parametrize("where", ["base", "grid"])
    def test_spec_pinning_an_engine_is_rejected(self, where):
        document = self.SPEC.to_dict()
        if where == "base":
            document["base"]["engine"] = "reference"
        else:
            document["grid"].append(["engine", ["reference"]])
        with pytest.raises(ValueError, match="engine"):
            CampaignSpec.from_dict(document)
