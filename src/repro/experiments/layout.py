"""Run-directory layout: the single authority for every artifact path.

An orchestrated campaign's run dir holds one spec document, one
stream/event-log/log/assignment file per shard slot, the merged output
stream, and (for multi-host runs) the elastic-membership hosts file.
Before this module those names were spelled independently in
``orchestrator.py``, ``scheduler.py``, and the ``campaign`` CLI — the
classic path-drift bug surface (one renamed artifact silently breaking
resume or ``watch --dir``).  :class:`RunLayout` is now the one place a
shard path is spelled:

- the *name* functions define the naming convention (pure strings, no
  filesystem), shared by local run dirs and the remote roots a
  :class:`~repro.experiments.transport.Transport` addresses — a
  supervisor's mirror copy of ``shard0.jsonl`` and the worker's copy on
  the remote host are the same name under two roots;
- the *path* accessors resolve names under this layout's root.

The names are frozen history: PR 4/5 run dirs already on disk use
exactly these strings, and resume reads them, so changing any of them
is a format break (``tests/experiments/test_layout.py`` pins them).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["RunLayout"]


@dataclass(frozen=True)
class RunLayout:
    """All artifact paths of one campaign run directory.

    Construct with any root — a local supervisor run dir, or the root a
    transport maps onto a remote host — and every artifact path follows.
    """

    root: Path

    def __init__(self, root: str | Path) -> None:
        object.__setattr__(self, "root", Path(root))

    # -- the naming convention (pure, no filesystem) --------------------

    @staticmethod
    def spec_name() -> str:
        """The campaign spec document handed to every worker."""
        return "spec.json"

    @staticmethod
    def merged_name() -> str:
        """The final merged stream the aggregate is built from."""
        return "campaign.jsonl"

    @staticmethod
    def hosts_name() -> str:
        """The elastic-membership file the supervisor polls for joins."""
        return "hosts.json"

    @staticmethod
    def stream_name(shard: int) -> str:
        """Shard ``shard``'s append-only JSONL metrics stream."""
        return f"shard{shard}.jsonl"

    @staticmethod
    def log_name(shard: int) -> str:
        """Shard ``shard``'s worker stdout/stderr log."""
        return f"shard{shard}.log"

    @staticmethod
    def assignment_name(shard: int) -> str:
        """Shard ``shard``'s scheduler assignment (lease) file."""
        return f"shard{shard}.tasks.json"

    @staticmethod
    def events_name() -> str:
        """The supervisor's (and, after merge, the run's) event log."""
        return "events.jsonl"

    @staticmethod
    def shard_events_name(shard: int) -> str:
        """Shard ``shard``'s worker-side event log.

        It is also the worker's liveness record: the worker appends a
        throttled ``heartbeat`` event per finished task and while it
        idles, so the file's age is how long the worker has been
        silent.  Deliberately **not** ``.jsonl`` — it must never match
        :data:`STREAM_GLOB`, or the merge would try to union events
        into the metric stream.
        """
        return f"shard{shard}.events"

    #: Glob matching every shard stream (and nothing else) in a run dir.
    STREAM_GLOB = "shard*.jsonl"

    # -- paths under this root ------------------------------------------

    @property
    def spec(self) -> Path:
        return self.root / self.spec_name()

    @property
    def merged_stream(self) -> Path:
        return self.root / self.merged_name()

    @property
    def hosts_file(self) -> Path:
        return self.root / self.hosts_name()

    def stream(self, shard: int) -> Path:
        return self.root / self.stream_name(shard)

    def log(self, shard: int) -> Path:
        return self.root / self.log_name(shard)

    def assignment(self, shard: int) -> Path:
        return self.root / self.assignment_name(shard)

    @property
    def events(self) -> Path:
        return self.root / self.events_name()

    def shard_events(self, shard: int) -> Path:
        return self.root / self.shard_events_name(shard)

    def record_age(
        self, shard: int, now: float, launched: float | None = None
    ) -> float | None:
        """Seconds shard ``shard``'s worker has been silent at ``now``.

        The worker's liveness record is its event log, so this is the
        log's age by its mtime.  A log older than the worker's
        ``launched`` time (wall clock) was left by an earlier worker, so
        the age counts from the launch at most.  ``None`` when neither
        is known.  The supervisor's stall check and the ``campaign
        status``/``watch`` panels all read a worker's age here.
        """
        ages = [] if launched is None else [now - launched]
        try:
            ages.append(now - self.shard_events(shard).stat().st_mtime)
        except OSError:
            pass
        return max(0.0, min(ages)) if ages else None

    def shard_streams(self) -> list[Path]:
        """Every existing shard stream under the root, in shard order.

        Lexicographic sort is wrong past 9 shards (``shard10`` sorts
        before ``shard2``), so order by the parsed shard index.
        """
        def index(path: Path) -> tuple[int, str]:
            digits = path.name[len("shard"):-len(".jsonl")]
            return (int(digits), path.name) if digits.isdigit() else (
                10**9, path.name
            )

        return sorted(self.root.glob(self.STREAM_GLOB), key=index)

    def ensure(self) -> "RunLayout":
        """Create the root directory (parents included); returns self."""
        self.root.mkdir(parents=True, exist_ok=True)
        return self
