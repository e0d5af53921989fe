"""Tests for the JSONL metrics stream: appends, repair, and merging.

The failure modes that matter operationally: a campaign killed
mid-append leaves a torn tail (quarantined, never trusted); a merge of
shards from different specs is refused; overlapping shards dedupe by
task key.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.stream import (
    STREAM_FORMAT,
    StreamError,
    StreamTailKeys,
    append_record,
    init_stream,
    load_stream,
    make_header,
    make_task_record,
    merge_streams,
    stream_task_count,
    union_records,
)

HASH_A = "a" * 64
HASH_B = "b" * 64


def metrics_json(value: float = 1.0) -> dict:
    """A complete, valid SimulationMetrics JSON payload."""
    return {
        "protocol": "glr",
        "duration": 30.0,
        "messages_created": 2,
        "messages_delivered": 1,
        "delivery_ratio": value,
        "average_latency": 5.0,
        "average_hops": 2.0,
        "max_peak_storage": 3,
        "average_peak_storage": 1.5,
        "time_average_storage": 0.8,
        "frames_sent": 10,
        "frames_delivered": 9,
        "frames_lost_collision": 0,
        "frames_lost_range": 1,
        "frames_dropped_queue": 0,
        "retries": 0,
        "data_bytes_sent": 1000,
        "control_bytes_sent": 200,
        "events_processed": 42,
        "per_node_peak_storage": {"0": 3},
        "latencies": [5.0],
        "hop_counts": [2],
    }


def record(key: str, scenario: str = "cell", protocol: str = "glr",
           replicate: int = 0, value: float = 1.0) -> dict:
    return make_task_record(
        key=key,
        scenario=scenario,
        protocol=protocol,
        replicate=replicate,
        seed=3,
        metrics_json=metrics_json(value),
        cached=False,
        wall_time_s=0.5,
    )


def new_stream(path, spec_hash=HASH_A, records=()):
    init_stream(path, spec_hash, {"name": "spec"})
    for rec in records:
        append_record(path, rec)
    return path


class TestInitAndAppend:
    def test_creates_header(self, tmp_path):
        path = tmp_path / "s.jsonl"
        info = init_stream(path, HASH_A, {"name": "spec"})
        assert info.spec_hash == HASH_A
        assert info.records == []
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "header"

    def test_append_and_load_round_trip(self, tmp_path):
        path = new_stream(tmp_path / "s.jsonl",
                          records=[record("k1"), record("k2", replicate=1)])
        info = load_stream(path)
        assert [r["key"] for r in info.records] == ["k1", "k2"]
        assert info.keys() == {"k1", "k2"}
        assert info.quarantined == 0

    def test_reopen_existing_stream_validates_hash(self, tmp_path):
        path = new_stream(tmp_path / "s.jsonl", records=[record("k1")])
        info = init_stream(path, HASH_A, {"name": "spec"})
        assert [r["key"] for r in info.records] == ["k1"]
        with pytest.raises(StreamError, match="refusing to mix"):
            init_stream(path, HASH_B, {"name": "other"})

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(StreamError, match="cannot read"):
            load_stream(tmp_path / "nope.jsonl")

    def test_load_wrong_hash_raises(self, tmp_path):
        path = new_stream(tmp_path / "s.jsonl")
        with pytest.raises(StreamError, match="refusing to mix"):
            load_stream(path, expected_spec_hash=HASH_B)

    def test_not_a_stream_raises(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"some": "json"}\n')
        with pytest.raises(StreamError, match="no valid header"):
            load_stream(path)

    def test_future_format_header_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        header = make_header(HASH_A, {"name": "spec"})
        header["format"] = STREAM_FORMAT + 1
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(StreamError, match="no valid header"):
            load_stream(path)


class TestQuarantine:
    def test_torn_tail_quarantined_on_resume(self, tmp_path):
        path = new_stream(tmp_path / "s.jsonl",
                          records=[record("k1"), record("k2")])
        # Simulate a crash mid-append: truncate the last line.
        text = path.read_text()
        path.write_text(text[:-20])
        info = load_stream(path)
        assert [r["key"] for r in info.records] == ["k1"]
        assert info.quarantined == 1
        sidecar = path.with_name(path.name + ".quarantined")
        assert sidecar.exists()
        assert '"k2"' in sidecar.read_text()
        # The stream itself was repaired in place: clean reload.
        again = load_stream(path)
        assert again.quarantined == 0
        assert [r["key"] for r in again.records] == ["k1"]

    def test_corrupt_middle_line_keeps_later_records(self, tmp_path):
        path = new_stream(tmp_path / "s.jsonl", records=[record("k1")])
        with open(path, "a") as handle:
            handle.write("{ not json !!!\n")
        append_record(path, record("k2"))
        info = load_stream(path)
        assert [r["key"] for r in info.records] == ["k1", "k2"]
        assert info.quarantined == 1

    def test_task_record_missing_fields_quarantined(self, tmp_path):
        path = new_stream(tmp_path / "s.jsonl", records=[record("k1")])
        with open(path, "a") as handle:
            handle.write(json.dumps({"kind": "task", "key": "k2"}) + "\n")
        info = load_stream(path)
        assert [r["key"] for r in info.records] == ["k1"]
        assert info.quarantined == 1

    def test_decodable_but_invalid_metrics_quarantined(self, tmp_path):
        # A record that parses as JSON but whose metrics payload the
        # aggregation would reject must count as damage here: trusting
        # its key on resume would skip the task forever while every
        # rebuild fails on it.
        path = new_stream(tmp_path / "s.jsonl", records=[record("k1")])
        bad = record("k2")
        bad["metrics"] = {"delivery_ratio": 1.0}  # wrong field set
        append_record(path, bad)
        info = load_stream(path)
        assert [r["key"] for r in info.records] == ["k1"]
        assert info.quarantined == 1
        # The writer's resume path sees only the valid record, so the
        # quarantined task recomputes.
        assert init_stream(path, HASH_A, {"name": "spec"}).keys() == {"k1"}

    def test_duplicate_header_line_quarantined(self, tmp_path):
        path = new_stream(tmp_path / "s.jsonl", records=[record("k1")])
        append_record(path, make_header(HASH_B, {"name": "other"}))
        info = load_stream(path)
        assert info.spec_hash == HASH_A  # the first header wins
        assert info.quarantined == 1

    def test_quarantine_false_leaves_file_untouched(self, tmp_path):
        path = new_stream(tmp_path / "s.jsonl", records=[record("k1")])
        with open(path, "a") as handle:
            handle.write("torn")
        before = path.read_text()
        info = load_stream(path, quarantine=False)
        assert info.quarantined == 1
        assert path.read_text() == before

    def test_resume_skips_only_surviving_records(self, tmp_path):
        """The operational contract: quarantined tasks rerun on resume."""
        path = new_stream(tmp_path / "s.jsonl",
                          records=[record("k1"), record("k2")])
        text = path.read_text()
        path.write_text(text[:-15])  # tear the k2 record
        info = init_stream(path, HASH_A, {"name": "spec"})
        assert info.keys() == {"k1"}


class TestMerge:
    def test_merges_disjoint_shards(self, tmp_path):
        s0 = new_stream(tmp_path / "s0.jsonl",
                        records=[record("k1"), record("k3", replicate=1)])
        s1 = new_stream(tmp_path / "s1.jsonl", records=[record("k2")])
        out = tmp_path / "merged.jsonl"
        info = merge_streams(out, [s0, s1])
        assert info.keys() == {"k1", "k2", "k3"}
        reloaded = load_stream(out, expected_spec_hash=HASH_A)
        assert reloaded.keys() == {"k1", "k2", "k3"}

    def test_refuses_mismatched_spec_hashes(self, tmp_path):
        s0 = new_stream(tmp_path / "s0.jsonl", records=[record("k1")])
        s1 = new_stream(
            tmp_path / "s1.jsonl", spec_hash=HASH_B, records=[record("k2")]
        )
        with pytest.raises(StreamError, match="same campaign spec"):
            merge_streams(tmp_path / "m.jsonl", [s0, s1])
        assert not (tmp_path / "m.jsonl").exists()

    def test_overlapping_shards_dedupe_by_key(self, tmp_path):
        shared = record("k1")
        s0 = new_stream(tmp_path / "s0.jsonl",
                        records=[shared, record("k2")])
        s1 = new_stream(tmp_path / "s1.jsonl",
                        records=[shared, record("k3")])
        info = merge_streams(tmp_path / "m.jsonl", [s0, s1])
        assert sorted(r["key"] for r in info.records) == ["k1", "k2", "k3"]

    def test_conflicting_duplicate_metrics_refused(self, tmp_path):
        s0 = new_stream(tmp_path / "s0.jsonl",
                        records=[record("k1", value=1.0)])
        s1 = new_stream(tmp_path / "s1.jsonl",
                        records=[record("k1", value=0.5)])
        with pytest.raises(StreamError, match="disagree"):
            merge_streams(tmp_path / "m.jsonl", [s0, s1])

    def test_merge_order_invariant_byte_identical(self, tmp_path):
        s0 = new_stream(tmp_path / "s0.jsonl",
                        records=[record("k2"), record("k1", replicate=1)])
        s1 = new_stream(tmp_path / "s1.jsonl", records=[record("k3")])
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        merge_streams(a, [s0, s1])
        merge_streams(b, [s1, s0])
        assert a.read_bytes() == b.read_bytes()

    def test_merge_order_invariant_across_provenance_fields(self, tmp_path):
        # The same task can legitimately appear with different
        # provenance: one shard simulated it (cached=False, real wall
        # time), another cache-resumed it (cached=True, 0.0).  Equal
        # metrics must dedupe to a canonical winner, not first-seen,
        # or merge output would depend on input order.
        fresh = record("k1")
        fresh["cached"] = False
        fresh["wall_time_s"] = 1.7
        resumed = record("k1")
        resumed["cached"] = True
        resumed["wall_time_s"] = 0.0
        s0 = new_stream(tmp_path / "s0.jsonl", records=[fresh])
        s1 = new_stream(tmp_path / "s1.jsonl", records=[resumed])
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        merge_streams(a, [s0, s1])
        merge_streams(b, [s1, s0])
        assert a.read_bytes() == b.read_bytes()

    def test_merge_never_mutates_inputs(self, tmp_path):
        # A shard stream may still be live (its campaign appending);
        # merge must read around a torn tail, not repair it away.
        s0 = new_stream(tmp_path / "s0.jsonl",
                        records=[record("k1"), record("k2")])
        with open(s0, "a") as handle:
            handle.write('{"kind": "task", "key": "k3", "in-fli')
        before = s0.read_bytes()
        info = merge_streams(tmp_path / "m.jsonl", [s0])
        assert info.keys() == {"k1", "k2"}
        assert s0.read_bytes() == before
        assert not (tmp_path / "s0.jsonl.quarantined").exists()
        # ... but the skipped line is reported, so callers can warn.
        assert info.quarantined == 1

    def test_merge_nothing_refused(self, tmp_path):
        with pytest.raises(StreamError, match="nothing to merge"):
            merge_streams(tmp_path / "m.jsonl", [])

    def test_merge_is_idempotent(self, tmp_path):
        s0 = new_stream(tmp_path / "s0.jsonl", records=[record("k1")])
        out = tmp_path / "m.jsonl"
        merge_streams(out, [s0])
        first = out.read_bytes()
        merge_streams(out, [s0, out])
        assert out.read_bytes() == first


class TestUnionRecords:
    """The in-memory half of merge, shared with the live watcher."""

    def test_union_equals_merge_records(self, tmp_path):
        s0 = new_stream(tmp_path / "s0.jsonl",
                        records=[record("k1"), record("k2", replicate=1)])
        s1 = new_stream(tmp_path / "s1.jsonl",
                        records=[record("k2", replicate=1), record("k3",
                                                                   replicate=2)])
        infos = [load_stream(s0, quarantine=False),
                 load_stream(s1, quarantine=False)]
        merged = merge_streams(tmp_path / "m.jsonl", [s0, s1])
        assert union_records(infos) == merged.records

    def test_union_refuses_mixed_specs(self, tmp_path):
        s0 = new_stream(tmp_path / "s0.jsonl", records=[record("k1")])
        s1 = new_stream(tmp_path / "s1.jsonl", spec_hash=HASH_B,
                        records=[record("k2")])
        infos = [load_stream(s0, quarantine=False),
                 load_stream(s1, quarantine=False)]
        with pytest.raises(StreamError, match="same campaign spec"):
            union_records(infos)

    def test_union_refuses_conflicting_metrics(self, tmp_path):
        s0 = new_stream(tmp_path / "s0.jsonl",
                        records=[record("k1", value=1.0)])
        s1 = new_stream(tmp_path / "s1.jsonl",
                        records=[record("k1", value=0.5)])
        infos = [load_stream(s0, quarantine=False),
                 load_stream(s1, quarantine=False)]
        with pytest.raises(StreamError, match="disagree"):
            union_records(infos)

    def test_union_of_nothing_refused(self):
        with pytest.raises(StreamError, match="nothing to union"):
            union_records([])


class TestStreamTaskCount:
    """The supervisor's cheap progress probe: complete lines only."""

    def test_counts_records_without_decoding(self, tmp_path):
        path = new_stream(tmp_path / "s.jsonl",
                          records=[record("k1"), record("k2", replicate=1)])
        assert stream_task_count(path) == 2

    def test_missing_and_header_only_count_zero(self, tmp_path):
        assert stream_task_count(tmp_path / "nope.jsonl") == 0
        assert stream_task_count(new_stream(tmp_path / "s.jsonl")) == 0

    def test_in_flight_tail_not_counted(self, tmp_path):
        path = new_stream(tmp_path / "s.jsonl", records=[record("k1")])
        with open(path, "a") as handle:
            handle.write('{"kind": "task", "key": "k2", "in-fli')
        assert stream_task_count(path) == 1


class TestStreamTailKeys:
    """Incremental key reader the orchestrator polls with."""

    def test_emits_keys_incrementally(self, tmp_path):
        path = new_stream(tmp_path / "s.jsonl", records=[record("k1")])
        tailer = StreamTailKeys(path)
        assert tailer.poll() == ["k1"]  # header line yields no key
        assert tailer.poll() == []
        append_record(path, record("k2", replicate=1))
        append_record(path, record("k3", replicate=2))
        assert tailer.poll() == ["k2", "k3"]

    def test_in_flight_tail_deferred_until_complete(self, tmp_path):
        path = new_stream(tmp_path / "s.jsonl", records=[record("k1")])
        tailer = StreamTailKeys(path)
        assert tailer.poll() == ["k1"]
        torn = json.dumps(record("k2", replicate=1))
        with open(path, "a") as handle:
            handle.write(torn[: len(torn) // 2])
        assert tailer.poll() == []  # half a line is not a record yet
        with open(path, "a") as handle:
            handle.write(torn[len(torn) // 2:] + "\n")
        assert tailer.poll() == ["k2"]

    def test_undecodable_complete_lines_skipped(self, tmp_path):
        path = new_stream(tmp_path / "s.jsonl", records=[record("k1")])
        with open(path, "a") as handle:
            handle.write("{ not json\n")
        append_record(path, record("k2", replicate=1))
        assert StreamTailKeys(path).poll() == ["k1", "k2"]

    def test_missing_file_polls_empty(self, tmp_path):
        assert StreamTailKeys(tmp_path / "nope.jsonl").poll() == []

    def test_rewritten_shorter_file_re_emits_from_scratch(self, tmp_path):
        path = new_stream(
            tmp_path / "s.jsonl",
            records=[record("k1"), record("k2", replicate=1)],
        )
        tailer = StreamTailKeys(path)
        assert tailer.poll() == ["k1", "k2"]
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]))  # header + first record
        # Re-emitted keys are fine: consumers keep keys in a set.
        assert tailer.poll() == ["k1"]
