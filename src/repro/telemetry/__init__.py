"""Run telemetry: structured event log, phase profiler, status surface.

Everything the supervision fabric knows but used to throw away —
launch/death/requeue/steal events, heartbeat touch reasons, where the
simulation hot path spends its time — lands here in queryable form:

- :mod:`repro.telemetry.events` — the append-only ``events.jsonl``
  run-event log (same single-write+fsync and torn-line quarantine
  discipline as the metric streams);
- :mod:`repro.telemetry.profile` — the opt-in per-task phase profiler
  (``REPRO_PROFILE_PHASES=1``), a no-op object when off.
"""

from repro.telemetry.events import (
    EVENT_TYPES,
    EVENTS_FORMAT,
    EventLog,
    EventLogError,
    EventLogInfo,
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
    PHASE_DELIVERY,
    PHASE_GC,
    PHASE_MAC,
    PHASE_MOBILITY,
    PHASE_PLANARIZE,
    PHASE_PROTOCOL,
    PHASE_UDG,
    PHASES,
    PROFILE_ENV,
    PhaseProfiler,
    aggregate_phase_profiles,
    make_profiler,
    profiling_enabled,
)

__all__ = [
    "EVENT_TYPES",
    "EVENTS_FORMAT",
    "EventLog",
    "EventLogError",
    "EventLogInfo",
    "filter_events",
    "load_events",
    "make_event",
    "make_events_header",
    "merge_events",
    "render_event",
    "unknown_event_types",
    "NULL_PROFILER",
    "PHASE_CALENDAR",
    "PHASE_DELIVERY",
    "PHASE_GC",
    "PHASE_MAC",
    "PHASE_MOBILITY",
    "PHASE_PLANARIZE",
    "PHASE_PROTOCOL",
    "PHASE_UDG",
    "PHASES",
    "PROFILE_ENV",
    "PhaseProfiler",
    "aggregate_phase_profiles",
    "make_profiler",
    "profiling_enabled",
]
