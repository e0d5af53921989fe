"""Structured run-event log: append-only ``events.jsonl`` per run dir.

Supervision used to narrate itself through throwaway callback strings;
this module gives every supervision fact a durable, typed record.  The
file discipline is the metric streams' (:mod:`repro.jsonl`, which
:mod:`repro.experiments.stream` uses too):

- each event is one ``\\n``-terminated JSON line written with a single
  ``write`` + flush + fsync, so a crash can tear only the tail;
- :func:`load_events` quarantines undecodable lines to an
  ``<events>.quarantined`` sidecar and atomically rewrites the file —
  but only the file's *writer* should repair; every read-only path
  (merge, status, the CLI) passes ``quarantine=False`` because a live
  writer may be mid-append on the final line;
- :func:`merge_events` unions per-origin event files (the supervisor's
  and each shard worker's, possibly mirror-pulled from remote hosts)
  into one history, ordered by ``(t_mono, encoded line)`` so ties in
  the monotonic timestamp break deterministically and merging the same
  inputs in any order is byte-identical.  Dedup is by exact encoded
  line, which makes re-merging an already-merged file idempotent.

Event schema (``kind == "event"``)::

    {"kind": "event", "type": <EVENT_TYPES member>,
     "t_mono": <monotonic seconds>, "t_wall": <unix seconds>,
     "shard": <int | null>, "host": <str | null>,
     "attempt": <int | null>, "msg": <str | null>,
     "payload": {<type-specific fields>}}

Header (first line, ``kind == "header"``)::

    {"kind": "header", "format": 1, "log": "events", "origin": <str>}

``t_mono`` orders events *within* one origin process; across hosts the
monotonic clocks are unrelated, which is why the merge key includes the
encoded line — the merged order is deterministic, not globally causal.
``t_wall`` is for humans and ``--since`` filtering.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.jsonl import (
    append_line,
    encode_line,
    quarantine_lines,
    scan_lines,
    write_lines,
)

#: Bump when the event record schema changes incompatibly.
EVENTS_FORMAT = 1

#: Every event type the fabric emits.  ``campaign events --type`` and
#: the CI schema check validate against this set.
EVENT_TYPES = frozenset(
    {
        "run_start",  # supervisor: orchestration began (shard/host plan)
        "run_end",  # supervisor: orchestration finished (totals)
        "launch",  # a shard worker process was spawned
        "exit",  # a shard worker process ended (exit code)
        "stall",  # heartbeat silence crossed the stall threshold
        "requeue",  # a dead/stalled shard was relaunched
        "steal",  # leases moved from a busy shard to an idle one
        "reclaim",  # leases reclaimed from a workerless slot
        "chaos",  # fault injection fired (kill/slow)
        "host_join",  # elastic membership: a host joined mid-run
        "host_lost",  # a host stopped answering and was declared lost
        "shard_summary",  # per-shard end-of-run totals
        "heartbeat",  # a liveness touch, with its reason
        "adversary",  # the campaign injects Byzantine nodes (specs)
        "report",  # a trade-off report was generated from the run dir
    }
)

#: Fields every event record must carry to be loadable (``msg`` is
#: optional).  Extra fields are tolerated, mirroring the task streams'
#: superset rule, so a later format can add fields without stranding
#: old readers.
_EVENT_FIELDS = frozenset(
    {"type", "t_mono", "t_wall", "shard", "host", "attempt", "payload"}
)

#: Heartbeat events are throttled to this interval per (shard, reason)
#: so a tight supervisor tick or idle-wait loop cannot flood the log.
HEARTBEAT_EVERY_S = 5.0


class EventLogError(ValueError):
    """An events file is unusable as a whole (bad header, wrong file)."""


@dataclass(frozen=True)
class EventLogInfo:
    """A loaded events file: header, event records, repair count."""

    path: Path
    header: dict
    records: list[dict]
    quarantined: int = 0

    @property
    def origin(self) -> str:
        """Which process wrote this file (``supervisor``, ``shard3``...)."""
        return self.header["origin"]


def make_events_header(origin: str) -> dict:
    """The header record for a new events file."""
    return {
        "kind": "header",
        "format": EVENTS_FORMAT,
        "log": "events",
        "origin": origin,
    }


def make_event(
    type: str,
    *,
    t_mono: float,
    t_wall: float,
    shard: int | None = None,
    host: str | None = None,
    attempt: int | None = None,
    msg: str | None = None,
    payload: dict | None = None,
) -> dict:
    """One typed event record (see the module schema)."""
    return {
        "kind": "event",
        "type": type,
        "t_mono": t_mono,
        "t_wall": t_wall,
        "shard": shard,
        "host": host,
        "attempt": attempt,
        "msg": msg,
        "payload": payload if payload is not None else {},
    }


def _is_real(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_event_line(line: str) -> dict | None:
    """A validated record, or ``None`` for anything undecodable."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    kind = record.get("kind")
    if kind == "header":
        if record.get("format") != EVENTS_FORMAT:
            return None
        if record.get("log") != "events":
            return None
        if not isinstance(record.get("origin"), str):
            return None
        return record
    if kind == "event":
        if not _EVENT_FIELDS <= set(record):
            return None
        if not isinstance(record["type"], str) or not record["type"]:
            return None
        if not _is_real(record["t_mono"]) or not _is_real(record["t_wall"]):
            return None
        for field in ("shard", "attempt"):
            value = record[field]
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                return None
        if record["host"] is not None and not isinstance(record["host"], str):
            return None
        if not isinstance(record["payload"], dict):
            return None
        msg = record.get("msg")
        if msg is not None and not isinstance(msg, str):
            return None
        return record
    return None


def load_events(
    path: str | Path, quarantine: bool = True
) -> EventLogInfo:
    """Load an events file, quarantining undecodable lines.

    Same contract as :func:`repro.experiments.stream.load_stream`: a
    torn tail (or any undecodable line) moves raw to
    ``<events>.quarantined`` and the file is atomically rewritten with
    the survivors — but **only when** ``quarantine=True``, which only
    the file's own writer should pass.  Readers of a possibly-live file
    (merge, status, CLI) pass ``quarantine=False`` so they cannot
    delete a record whose writer completes it a moment later.  A
    missing or invalid header raises :class:`EventLogError` — wrong
    file, not damage.
    """
    target = Path(path)
    try:
        text = target.read_text(encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise EventLogError(
            f"cannot read events file {target}: {exc}"
        ) from exc

    header, records, bad_lines = scan_lines(text, _parse_event_line)
    if header is None:
        raise EventLogError(
            f"events file {target} has no valid header line; not an "
            f"event log (or format {EVENTS_FORMAT} mismatch)"
        )

    if bad_lines and quarantine:
        quarantine_lines(target, bad_lines, [header, *records])

    return EventLogInfo(
        path=target,
        header=header,
        records=records,
        quarantined=len(bad_lines),
    )


class EventLog:
    """One origin's append-only event writer.

    Lazily writes its header on the first emit, so constructing a log
    for a run dir that never produces events leaves no file behind.
    """

    def __init__(self, path: str | Path, origin: str) -> None:
        self.path = Path(path)
        self.origin = origin
        self._ready = False
        self._last_emit: dict[str, float] = {}

    def ensure(self) -> "EventLog":
        """Create the file with a header, or adopt an existing one."""
        if not self._ready:
            if not self.path.exists() or self.path.stat().st_size == 0:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                write_lines(self.path, [make_events_header(self.origin)])
            self._ready = True
        return self

    def emit(
        self,
        type: str,
        *,
        shard: int | None = None,
        host: str | None = None,
        attempt: int | None = None,
        msg: str | None = None,
        **payload: object,
    ) -> dict:
        """Append one event, crash-safely, and return its record."""
        self.ensure()
        record = make_event(
            type,
            t_mono=time.monotonic(),
            t_wall=time.time(),
            shard=shard,
            host=host,
            attempt=attempt,
            msg=msg,
            payload=dict(payload),
        )
        append_line(self.path, record)
        return record

    def emit_throttled(
        self,
        throttle_key: str,
        min_interval_s: float,
        type: str,
        **kwargs: object,
    ) -> dict | None:
        """Emit unless ``throttle_key`` fired within ``min_interval_s``.

        The throttle is per writer instance and per key — heartbeat
        touches use ``"hb:<shard>:<reason>"`` so each reason stays
        independently visible without per-tick flooding.  A suppressed
        call writes no line but still sets the log's mtime to now: the
        stall check reads a worker's silence off that mtime, which
        would otherwise lag the worker by up to ``min_interval_s``.
        """
        now = time.monotonic()
        last = self._last_emit.get(throttle_key)
        if last is not None and now - last < min_interval_s:
            self.path.touch()
            return None
        self._last_emit[throttle_key] = now
        return self.emit(type, **kwargs)  # type: ignore[arg-type]


def _merge_sort_key(record: dict) -> tuple:
    return (record["t_mono"], encode_line(record))


def merge_events(
    out_path: str | Path, in_paths: Sequence[str | Path]
) -> EventLogInfo:
    """Union per-origin event files into one deterministic history.

    Missing inputs are skipped (a worker killed before its first emit
    never wrote a file); at least one input must exist.  Records are
    deduplicated by exact encoded line — identical events from an
    earlier merge collapse, so re-merging the merged file with the same
    shard files is idempotent.  Output order is ``(t_mono, encoded)``:
    monotonic timestamps order each origin's own events, and the
    encoded-line tiebreak makes cross-origin ties deterministic.
    """
    infos: list[EventLogInfo] = []
    for path in in_paths:
        target = Path(path)
        if not target.exists():
            continue
        infos.append(load_events(target, quarantine=False))
    if not infos:
        raise EventLogError("nothing to merge: no event files exist")

    seen: set[str] = set()
    merged: list[dict] = []
    for info in infos:
        for record in info.records:
            encoded = encode_line(record)
            if encoded in seen:
                continue
            seen.add(encoded)
            merged.append(record)
    merged.sort(key=_merge_sort_key)

    target = Path(out_path)
    target.parent.mkdir(parents=True, exist_ok=True)
    header = make_events_header("merged")
    write_lines(target, [header, *merged])
    return EventLogInfo(
        path=target,
        header=header,
        records=merged,
        quarantined=sum(info.quarantined for info in infos),
    )


def filter_events(
    records: Iterable[dict],
    *,
    type: str | None = None,
    shard: int | None = None,
    since_wall: float | None = None,
) -> list[dict]:
    """Events matching every given filter (``None`` = don't care)."""
    out = []
    for record in records:
        if type is not None and record["type"] != type:
            continue
        if shard is not None and record["shard"] != shard:
            continue
        if since_wall is not None and record["t_wall"] < since_wall:
            continue
        out.append(record)
    return out


def unknown_event_types(records: Iterable[dict]) -> set[str]:
    """Event types outside :data:`EVENT_TYPES` (schema validation)."""
    return {r["type"] for r in records} - EVENT_TYPES


def render_event(record: dict) -> str:
    """One human-readable line for ``campaign events``."""
    stamp = time.strftime(
        "%H:%M:%S", time.localtime(record["t_wall"])
    )
    who = []
    if record["shard"] is not None:
        who.append(f"shard {record['shard']}")
    if record["host"] is not None:
        who.append(f"host {record['host']}")
    if record["attempt"] is not None:
        who.append(f"attempt {record['attempt']}")
    identity = f" [{', '.join(who)}]" if who else ""
    detail = record["msg"] if record.get("msg") else ""
    if not detail and record["payload"]:
        detail = json.dumps(record["payload"], sort_keys=True)
    tail = f": {detail}" if detail else ""
    return f"{stamp} {record['type']:<13}{identity}{tail}"
