"""Streamed per-task campaign metrics: append-only JSONL files.

A campaign *stream* is the durable record of a campaign run: one JSON
line per finished simulation task, preceded by a header line carrying
the campaign spec and its content hash.  Streams replace monolithic
whole-campaign JSON results — each task appends its own record the
moment it finishes, so

- a killed campaign has lost nothing but the task that was in flight;
- a resumed campaign skips every task already recorded;
- shard runs on different machines each write their own stream, and
  :func:`merge_streams` unions them into one (refusing streams built
  from different specs and deduplicating overlap by task key);
- aggregation (:func:`repro.experiments.campaign
  .campaign_result_from_stream`) consumes the stream, not in-memory
  state, so "run" and "report" fully decouple.

Appends are crash-safe, not transactional: each record is a single
``write`` of one ``\\n``-terminated line followed by a flush+fsync, so
the only possible damage from a crash or a full disk is a torn *tail*.
:func:`load_stream` detects any undecodable line, moves the raw bytes
to a ``<stream>.quarantined`` sidecar, and atomically rewrites the
stream with the surviving records — a resume then recomputes exactly
the quarantined tasks.  That line discipline lives in
:mod:`repro.jsonl`, shared with the run-event logs.

Record schema (``kind == "task"``)::

    {"kind": "task", "key": <task content hash>,
     "scenario": <cell scenario name>, "protocol": <protocol label>,
     "replicate": <int>, "seed": <int>, "cached": <bool>,
     "wall_time_s": <float>, "metrics": {<SimulationMetrics JSON>}}

Header (first line, ``kind == "header"``)::

    {"kind": "header", "format": 1, "spec_hash": <sha256 hex>,
     "spec": {<CampaignSpec JSON document>}}
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.jsonl import (
    append_line,
    encode_line,
    quarantine_lines,
    scan_lines,
    write_lines,
)
from repro.sim.stats import SimulationMetrics

#: Bump when the stream record schema changes incompatibly.
STREAM_FORMAT = 1

#: Fields every task record must carry to be loadable.
_TASK_FIELDS = frozenset(
    {"key", "scenario", "protocol", "replicate", "metrics"}
)


class StreamError(ValueError):
    """A stream file is unusable as a whole (bad header, wrong spec)."""


@dataclass(frozen=True)
class StreamInfo:
    """A loaded stream: its header, task records, and repair count."""

    path: Path
    header: dict
    records: list[dict]
    quarantined: int = 0

    @property
    def spec_hash(self) -> str:
        """The campaign spec hash the stream was built from."""
        return self.header["spec_hash"]

    def keys(self) -> set[str]:
        """Task content keys already recorded in the stream."""
        return {record["key"] for record in self.records}


def make_header(spec_hash: str, spec_doc: dict) -> dict:
    """The header record for a new stream."""
    return {
        "kind": "header",
        "format": STREAM_FORMAT,
        "spec_hash": spec_hash,
        "spec": spec_doc,
    }


def make_task_record(
    key: str,
    scenario: str,
    protocol: str,
    replicate: int,
    seed: int,
    metrics_json: dict,
    cached: bool,
    wall_time_s: float,
    phase_profile: dict | None = None,
) -> dict:
    """One task's stream record.

    ``phase_profile`` (per-phase seconds from the opt-in telemetry
    profiler) is provenance, like ``wall_time_s``/``cached``: it rides
    beside the metrics payload, never inside it, so profiler-on streams
    stay metric-identical to profiler-off ones.  The key is simply
    absent when profiling is off — readers tolerate extra fields
    (:data:`_TASK_FIELDS` is a subset check), so no format bump.
    """
    record = {
        "kind": "task",
        "key": key,
        "scenario": scenario,
        "protocol": protocol,
        "replicate": replicate,
        "seed": seed,
        "cached": cached,
        "wall_time_s": wall_time_s,
        "metrics": metrics_json,
    }
    if phase_profile is not None:
        record["phase_profile"] = phase_profile
    return record


def init_stream(
    path: str | Path, spec_hash: str, spec_doc: dict
) -> StreamInfo:
    """Open a stream for appending: create it, or validate and repair.

    A missing or empty file gets a fresh header.  An existing stream is
    loaded (quarantining any torn tail) and must carry ``spec_hash`` —
    appending records of one campaign to another campaign's stream is
    refused rather than silently mixing incomparable results.
    """
    target = Path(path)
    if target.exists() and target.stat().st_size > 0:
        return load_stream(target, expected_spec_hash=spec_hash)
    target.parent.mkdir(parents=True, exist_ok=True)
    header = make_header(spec_hash, spec_doc)
    write_lines(target, [header])
    return StreamInfo(path=target, header=header, records=[])


def append_record(path: str | Path, record: dict) -> None:
    """Append one record, crash-safely.

    One line, one ``write``, then flush+fsync: a crash can tear only
    the final line, which the next :func:`load_stream` quarantines.
    """
    append_line(path, record)


def _parse_line(line: str) -> dict | None:
    """A validated record, or ``None`` for anything undecodable."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    kind = record.get("kind")
    if kind == "header":
        if record.get("format") != STREAM_FORMAT:
            return None
        if not isinstance(record.get("spec_hash"), str):
            return None
        if not isinstance(record.get("spec"), dict):
            return None
        return record
    if kind == "task":
        if not _TASK_FIELDS <= set(record):
            return None
        try:
            # Validate as strictly as the aggregation that will consume
            # the record.  A line that decodes as JSON but carries an
            # unusable metrics payload must count as damage *here* —
            # otherwise resume would trust its key, skip the task, and
            # every later rebuild would fail on it forever.
            SimulationMetrics.from_json(record.get("metrics"))
        except ValueError:
            return None
        return record
    return None


def load_stream(
    path: str | Path,
    expected_spec_hash: str | None = None,
    quarantine: bool = True,
) -> StreamInfo:
    """Load a stream, quarantining undecodable lines.

    The common damage is a torn tail from a crash mid-append; any line
    that does not decode into a valid record is moved (raw) to
    ``<stream>.quarantined`` and the stream is atomically rewritten
    with the surviving records, so the quarantined tasks simply rerun
    on resume.  A missing/invalid header or a ``spec_hash`` mismatch
    raises :class:`StreamError` — that is not damage, it is the wrong
    file.

    Pass ``quarantine=False`` on read-only paths (aggregation, merge):
    when the stream's campaign is still running, a reader can catch the
    final line mid-append, and repairing would *delete* a record whose
    writer completes it a moment later.  Only the stream's own writer
    (the resume path) should repair.
    """
    target = Path(path)
    try:
        text = target.read_text(encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise StreamError(f"cannot read stream {target}: {exc}") from exc

    header, records, bad_lines = scan_lines(text, _parse_line)
    if header is None:
        raise StreamError(
            f"stream {target} has no valid header line; not a campaign "
            f"stream (or format {STREAM_FORMAT} mismatch)"
        )
    if (
        expected_spec_hash is not None
        and header["spec_hash"] != expected_spec_hash
    ):
        raise StreamError(
            f"stream {target} was built from spec hash "
            f"{header['spec_hash'][:12]}..., expected "
            f"{expected_spec_hash[:12]}...; refusing to mix campaigns"
        )

    if bad_lines and quarantine:
        quarantine_lines(target, bad_lines, [header, *records])

    return StreamInfo(
        path=target,
        header=header,
        records=records,
        quarantined=len(bad_lines),
    )


def _record_sort_key(record: dict) -> tuple:
    return (
        record["scenario"],
        record["protocol"],
        record["replicate"],
        record["key"],
    )


def stream_task_count(path: str | Path) -> int:
    """How many *complete* task lines ``path`` holds right now, cheaply.

    A monitoring probe, not a loader: it counts ``\\n``-terminated lines
    (minus the header) without JSON-decoding anything.  An in-flight
    tail (no trailing newline yet) is simply not counted.  Missing or
    empty files count as zero — the worker has not started writing.
    ``campaign status`` and the watch health panel use it.
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.read().count(b"\n")
    except OSError:
        return 0
    return max(0, lines - 1)


class StreamTailKeys:
    """Incremental reader of the task *keys* appended to a live stream.

    The orchestrator polls every worker stream several times a second
    for the whole campaign to learn *which* tasks are recorded (which
    leases are done, which are safe to steal); re-reading a growing
    file from byte zero each tick would make supervision I/O quadratic
    in stream size.  One delicate invariant: read only the bytes
    appended since the last poll, never advance past the last complete
    line (an in-flight tail is re-examined next time, not mis-read),
    and start over when the file shrinks or vanishes (a relaunched
    worker's resume repaired a torn tail and atomically rewrote the
    stream) — keys are then re-emitted from scratch, which is harmless
    because callers keep keys in a set.  Complete lines that do not
    decode into a task record (the header, damage) are skipped —
    classifying damage is the writer's resume path's job, not the
    supervisor's.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._offset = 0

    def poll(self) -> list[str]:
        """Task keys on complete lines appended since the last poll."""
        try:
            size = os.stat(self.path).st_size
        except OSError:
            self._offset = 0
            return []
        if size < self._offset:
            self._offset = 0
        if size <= self._offset:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read(size - self._offset)
        last_newline = chunk.rfind(b"\n")
        if last_newline < 0:
            return []
        self._offset += last_newline + 1
        keys = []
        for raw in chunk[: last_newline + 1].splitlines():
            line = raw.decode("utf-8", errors="surrogateescape")
            record = _parse_line(line)
            if record is not None and record["kind"] == "task":
                keys.append(record["key"])
        return keys


def union_records(infos: Sequence[StreamInfo]) -> list[dict]:
    """Union already-loaded streams' records, deduplicating by task key.

    The in-memory half of :func:`merge_streams`, shared with the live
    watcher (which unions *growing* shard streams every tick without
    writing anything).  All inputs must carry the same spec hash;
    duplicate keys collapse to one record, but records that *disagree*
    about a task's metrics raise :class:`StreamError` rather than pick
    a winner.  Duplicates that agree on metrics may still differ in
    provenance (``wall_time_s``, ``cached`` — one shard simulated the
    task, another cache-resumed it); the lexicographically smallest
    encoded record wins, so the output is invariant to input order.
    Records come back sorted by (scenario, protocol, replicate, key).
    """
    if not infos:
        raise StreamError("nothing to union: no input streams")
    first = infos[0]
    for info in infos[1:]:
        if info.spec_hash != first.spec_hash:
            raise StreamError(
                f"cannot merge {info.path} (spec hash "
                f"{info.spec_hash[:12]}...) into a merge of {first.path} "
                f"(spec hash {first.spec_hash[:12]}...); shards must come "
                f"from the same campaign spec"
            )
    by_key: dict[str, dict] = {}
    for info in infos:
        for record in info.records:
            existing = by_key.get(record["key"])
            if existing is None:
                by_key[record["key"]] = record
            elif existing["metrics"] != record["metrics"]:
                raise StreamError(
                    f"shards disagree on task {record['key'][:12]}... "
                    f"({record['scenario']} {record['protocol']} "
                    f"#{record['replicate']}); refusing to merge "
                    f"conflicting metrics"
                )
            elif encode_line(record) < encode_line(existing):
                by_key[record["key"]] = record
    return sorted(by_key.values(), key=_record_sort_key)


def discover_streams(path: str | Path) -> list[Path]:
    """The stream files behind ``path``, a stream file or a run dir.

    The read-side entry point shared by the result store and the
    ``report`` CLI: a stream file stands for itself; a run directory
    resolves through :class:`~repro.experiments.layout.RunLayout` to
    its merged stream when one exists (the orchestrator wrote it at
    collection), else to every non-empty shard stream (a mid-run or
    uncollected dir).  Raises :class:`StreamError` when the directory
    holds no stream data at all, and for a missing file path.
    """
    target = Path(path)
    if target.is_dir():
        from repro.experiments.layout import RunLayout

        layout = RunLayout(target)
        merged = layout.merged_stream
        if merged.exists() and merged.stat().st_size > 0:
            return [merged]
        shards = [
            p for p in layout.shard_streams() if p.stat().st_size > 0
        ]
        if not shards:
            raise StreamError(
                f"run directory {target} holds no campaign streams "
                f"(no {layout.merged_name()}, no non-empty "
                f"{RunLayout.STREAM_GLOB})"
            )
        return shards
    if not target.exists():
        raise StreamError(f"no stream file or run directory at {target}")
    return [target]


def load_union(
    paths: Sequence[str | Path],
    expected_spec_hash: str | None = None,
) -> StreamInfo:
    """Load and union several streams without writing anything.

    The in-memory counterpart of :func:`merge_streams` for read-only
    consumers (the result store, one-shot reports): every input is
    loaded with ``quarantine=False`` — a live writer may be mid-append
    — and deduplicated through :func:`union_records`, so the returned
    record list is exactly what a :func:`merge_streams` output file
    would hold.  The returned info's ``path`` is the first input and
    its ``quarantined`` count sums undecodable lines across all inputs
    (those tasks are missing from the union).
    """
    if not paths:
        raise StreamError("nothing to load: no input streams")
    infos = [
        load_stream(p, expected_spec_hash=expected_spec_hash,
                    quarantine=False)
        for p in paths
    ]
    return StreamInfo(
        path=infos[0].path,
        header=infos[0].header,
        records=union_records(infos),
        quarantined=sum(info.quarantined for info in infos),
    )


def merge_streams(
    out_path: str | Path, in_paths: Sequence[str | Path]
) -> StreamInfo:
    """Union shard streams into one file, deduplicating by task key.

    All inputs must carry the same spec hash (shards of one campaign);
    anything else raises :class:`StreamError` naming the offending
    file.  Dedup/conflict semantics are :func:`union_records`'s; the
    (scenario, protocol, replicate, key) output sort plus its canonical
    duplicate winner mean merging the same shards in any order produces
    byte-identical files.
    """
    if not in_paths:
        raise StreamError("nothing to merge: no input streams")
    # Read-only with respect to the inputs: a shard stream may still be
    # live (its campaign appending); repair belongs to the writer's
    # resume path, not to a reader that might catch a line mid-append.
    infos = [load_stream(p, quarantine=False) for p in in_paths]
    merged = union_records(infos)
    target = Path(out_path)
    target.parent.mkdir(parents=True, exist_ok=True)
    write_lines(target, [infos[0].header, *merged])
    return StreamInfo(
        path=target,
        header=infos[0].header,
        records=merged,
        # Undecodable lines skipped across the inputs: the caller
        # should surface this — those tasks are absent from the merge.
        quarantined=sum(info.quarantined for info in infos),
    )
