"""Campaign orchestrator: launch, supervise, and collect shard workers.

Campaigns are shardable by hand (``--shard-index/--shard-count`` plus
``repro campaign merge``), which leaves launching the shards to a
person or a cluster scheduler.  This module is the in-repo scheduler:
one call fans a :class:`~repro.experiments.campaign.CampaignSpec` out
across N supervised worker subprocesses and comes back with the merged,
aggregated result.

How it works:

- The supervisor keeps a lease board (:mod:`repro.experiments.scheduler`):
  every task key of the campaign, which worker holds its lease, and
  which keys some stream already records.  The initial leases are the
  :func:`repro.seeding.shard_partition` split — the content-key
  partition a hand-launched shard run executes — so a run in which no
  steal fires records exactly that partition.
- Each worker is a ``repro campaign --tasks`` subprocess: it runs the
  task keys its assignment file (``shard<i>.tasks.json``) lists and
  appends one record per task to its own JSONL stream.  Assignment
  files and streams are the only coordination medium: there is no IPC
  to lose, and a worker death costs at most the tasks in flight.
- Every lease-board slot is backed by a
  :class:`~repro.experiments.transport.Transport`.  A ``shards=N`` run
  gets N slots whose transport is a
  :class:`~repro.experiments.transport.LocalTransport` on the run dir
  itself, where every push and pull is a same-file no-op; a
  ``hosts=[...]`` run gets one slot per host.  Both kinds share one
  path for launch, beacon, mirror pulls, transport-failure strikes and
  stall detection.
- Every tick the supervisor runs one transport round per live slot: it
  freshens the slot's assignment file (an idle worker's sign that the
  supervisor lives) and mirrors the worker's stream and event log into
  the run dir (atomic replace, host mtime kept).  It then folds newly
  streamed keys into the board
  (:class:`~repro.experiments.stream.StreamTailKeys` reads only the
  appended bytes) and polls worker liveness: ``Popen.poll`` for
  death, and the age of the worker's event log, which gains a
  throttled ``heartbeat`` event per finished task and while the worker
  idles, for stalls.  A dead or stalled worker's slot is relaunched on
  the next free slot and resumes from its stream; ``max_attempts``
  failures of one slot abort the campaign with that slot's log tail.
- Work stealing: when a worker sits idle while another still holds
  unstarted leases, the supervisor moves some of them over.  Requeue
  granularity is one task, which cuts tail latency on sweeps with
  wildly non-uniform per-cell cost (dense/epidemic cells cost orders of
  magnitude more than sparse forwarding cells).
- Membership is elastic: host specs appended to the run dir's
  ``hosts.json`` join mid-campaign as fresh slots that fill by
  stealing, and a slot whose transport keeps failing (or the
  ``chaos_kill_host`` injection) is declared lost — never relaunched,
  its leases taking the reclaim path onto live workers.
- Once every task is recorded, the supervisor closes the assignment
  files (idle workers exit), merges the streams
  (:func:`~repro.experiments.stream.merge_streams`) and aggregates
  (:func:`~repro.experiments.campaign.campaign_result_from_stream`) —
  bit-identical to an unsharded run of the same spec, however the
  leases moved and whichever hosts ran them, which
  ``tests/experiments/test_equivalence.py`` asserts.

Fault injection: one injector SIGKILLs a slot's first worker once its
stream holds ``chaos_kill_after`` records — ``chaos_kill_shard`` (CI's
orchestrator smoke job proves the requeue path with it) or
``chaos_kill_host``, which also declares the slot's host lost.
``chaos_slow_shard``/``chaos_slow_s`` injects a per-task sleep into
one worker's environment — a simulated slow machine, which the same
job uses to force steals.

The read side is :class:`~repro.analysis.store.ResultStore`: ``repro
campaign watch`` and ``status`` ingest the (possibly still growing)
shard streams into one, read-only, and render the partial aggregate.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.experiments.campaign import (
    CHAOS_TASK_SLEEP_ENV,
    CampaignResult,
    CampaignSpec,
    campaign_result_from_stream,
    campaign_spec_hash,
    task_key,
)
from repro.experiments.layout import RunLayout
from repro.experiments.scheduler import LeaseBoard, plan_steals
from repro.experiments.transport import (
    LocalTransport,
    Transport,
    TransportError,
    parse_host,
)
from repro.experiments.stream import (
    StreamTailKeys,
    load_stream,
    merge_streams,
)
from repro.telemetry.events import (
    HEARTBEAT_EVERY_S,
    EventLog,
    merge_events,
)

__all__ = [
    "STALL_TIMEOUT_S",
    "OrchestratorError",
    "OrchestratorResult",
    "ShardStatus",
    "orchestrate_campaign",
]

#: Default seconds a worker's event log may stay untouched before the
#: worker is declared stalled; monitors fall back to it for a run whose
#: event log does not record its own.
STALL_TIMEOUT_S = 600.0

#: Called with one human-readable line per supervision event (launch,
#: death, requeue, completion, merge).  The CLI prints these; tests and
#: CI grep them.
EventCallback = Callable[[str], None]


class _EventSink:
    """Fans supervision events to the live callback and the event log.

    Calling the sink with a bare string is the legacy path — a
    human-readable line for the ``on_event`` callback only (progress
    ticks, informational notes).  :meth:`emit` is the durable path: the
    same human line goes to the callback *and* a typed record goes to
    the run dir's ``events.jsonl``, so a finished run can be audited
    from files alone.  The human strings are frozen interface — tests
    and CI grep them — which is why the sink carries them unchanged
    instead of re-deriving them from the typed payloads.
    """

    def __init__(
        self, on_event: EventCallback | None, log: EventLog | None
    ) -> None:
        self._on_event = on_event
        self.log = log

    def __call__(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)

    def emit(
        self,
        type: str,
        message: str | None = None,
        *,
        shard: int | None = None,
        host: str | None = None,
        attempt: int | None = None,
        **payload: object,
    ) -> None:
        if message is not None and self._on_event is not None:
            self._on_event(message)
        if self.log is not None:
            self.log.emit(
                type,
                shard=shard,
                host=host or None,
                attempt=attempt,
                msg=message,
                **payload,
            )

    def heartbeat(self, shard: int, reason: str) -> None:
        """A throttled liveness-touch record with its reason."""
        if self.log is not None:
            self.log.emit_throttled(
                f"hb:{shard}:{reason}",
                HEARTBEAT_EVERY_S,
                "heartbeat",
                shard=shard,
                reason=reason,
            )


class OrchestratorError(RuntimeError):
    """The orchestrated campaign cannot complete (shard failed for good)."""


@dataclass
class ShardStatus:
    """One shard's supervision state, across all its launch attempts."""

    index: int
    stream: Path
    log: Path
    #: Launch attempts so far (1 on first launch).
    attempts: int = 0
    #: Times this shard's remaining tasks were requeued after a
    #: dead/stalled worker.
    requeues: int = 0
    #: Task records its stream held at the last poll.
    recorded: int = 0
    #: Leases moved away from this shard to an idle worker / granted
    #: to it from a laggard or a workerless slot.
    stolen_from: int = 0
    stolen_to: int = 0
    #: ``pending`` | ``running`` | ``done`` | ``lost`` (the slot's
    #: transport vanished; never relaunched, its leases reclaimed onto
    #: live workers).
    state: str = "pending"
    exit_codes: list[int] = field(default_factory=list)
    #: Host slots: the backing transport's label (e.g.
    #: ``store:/tmp/h0``); empty for run-dir (``shards``) slots.
    host: str = ""


@dataclass
class OrchestratorResult:
    """A completed orchestrated campaign."""

    result: CampaignResult
    merged_stream: Path
    shards: list[ShardStatus]
    #: One transport label per host slot, in slot order (joined hosts
    #: included).  Empty when every slot ran on the run dir.
    hosts: tuple[str, ...] = ()

    @property
    def requeues(self) -> int:
        """Total dead/stalled-worker requeues across all shards."""
        return sum(status.requeues for status in self.shards)

    @property
    def steals(self) -> int:
        """Total leases moved between workers (steals and reclaims)."""
        return sum(status.stolen_from for status in self.shards)


def _worker_env() -> dict[str, str]:
    """The subprocess environment: inherit, plus make ``repro`` importable.

    The orchestrator may itself be running from a source checkout that
    is only importable through ``PYTHONPATH``; prepending this
    package's root keeps the worker command working in both installed
    and checkout layouts.
    """
    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing
            else package_root
        )
    return env


def _worker_command(
    head: Sequence[str],
    layout: RunLayout,
    index: int,
    workers_per_shard: int,
    cache_dir: str | Path | None,
) -> list[str]:
    """Slot ``index``'s worker command: ``repro campaign --tasks``.

    ``head`` is the transport's command head (the argv prefix that
    invokes the ``repro`` CLI on the worker's machine) and ``layout``
    is the run dir as the worker sees it: the same artifact names under
    the transport's root, which for a ``shards`` slot is the run dir
    itself.  ``cache_dir`` is interpreted on the worker's host (a
    per-host cache, which is the only kind that makes sense without a
    shared filesystem).
    """
    command = [
        *head,
        "campaign",
        "--spec",
        str(layout.spec),
        "--tasks",
        str(layout.assignment(index)),
        "--stream",
        str(layout.stream(index)),
        "--workers",
        str(workers_per_shard),
        "--quiet",
    ]
    if cache_dir is not None:
        command += ["--cache-dir", str(cache_dir)]
    return command


def _spawn_worker(
    transport: Transport,
    command: Sequence[str],
    log_path: Path,
    attempt: int,
    env: dict[str, str] | None,
) -> tuple[subprocess.Popen, object]:
    """Open the worker's log and start its process, leak-free.

    The log handle must exist before the process (the attempt banner
    precedes worker output, and the process inherits the handle as
    stdout), which means a launch failure happens with the handle
    already open — so it is closed on *any* raise instead of lingering
    until garbage collection.
    """
    handle = open(log_path, "a", encoding="utf-8")
    try:
        handle.write(f"--- attempt {attempt} ---\n")
        handle.flush()
        process = transport.launch(command, handle, env)
    except BaseException:
        handle.close()
        raise
    return process, handle


def _tail(path: Path, lines: int = 15) -> str:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return "<no worker log>"
    return "\n".join(text.splitlines()[-lines:])


@dataclass
class _Worker:
    """A live shard worker subprocess plus its log handle."""

    status: ShardStatus
    process: subprocess.Popen
    log_handle: object
    #: Wall-clock launch time, the floor of the worker's record age.
    launched_at: float

    def kill(self) -> None:
        """SIGKILL the worker and everything it spawned.

        Workers launch in their own session (``start_new_session``), so
        killing the process *group* also reaps the worker's
        ``ProcessPoolExecutor`` children — killing only the parent
        would orphan them mid-simulation, blocked forever on a call
        queue nobody will feed again.
        """
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            self.process.kill()
        self.process.wait(timeout=30)

    def close_log(self) -> None:
        try:
            self.log_handle.close()
        except OSError:  # pragma: no cover - close of an append handle
            pass


#: Consecutive transport failures against one slot before it is
#: declared lost and its leases reclaimed (one flaky tick is noise; a
#: streak means the machine is gone).
VANISH_AFTER = 3


def _shard_status(layout: RunLayout, index: int, host: str) -> ShardStatus:
    return ShardStatus(
        index=index,
        stream=layout.stream(index),
        log=layout.log(index),
        host=host,
    )


def orchestrate_campaign(
    spec: CampaignSpec,
    shards: int | None = None,
    run_dir: str | Path | None = None,
    workers_per_shard: int = 1,
    cache_dir: str | Path | None = None,
    poll_interval: float = 0.3,
    stall_timeout: float = STALL_TIMEOUT_S,
    max_attempts: int = 3,
    max_concurrent: int | None = None,
    on_event: EventCallback | None = None,
    lease_batch: int | None = None,
    steal_threshold: int = 2,
    chaos_kill_shard: int | None = None,
    chaos_kill_after: int = 1,
    chaos_slow_shard: int | None = None,
    chaos_slow_s: float = 0.25,
    hosts: Sequence[str | Transport] | None = None,
    chaos_kill_host: int | None = None,
) -> OrchestratorResult:
    """Fan a campaign out over supervised shard workers and collect it.

    ``run_dir`` holds everything: the spec document handed to workers
    (``spec.json``), one assignment file + stream + event log + log per
    shard (``shard<i>.tasks.json`` / ``.jsonl`` / ``.events`` /
    ``.log``), and the final merged stream (``campaign.jsonl``).
    Re-running with the same ``run_dir`` resumes: a task any stream
    already records is never leased again, so a killed orchestrator
    costs at most the tasks that were in flight.  Streams are the
    resume medium; pass ``cache_dir`` only for cross-campaign task
    reuse.

    Every shard launches a worker, even one whose initial lease set is
    empty: an idle worker is a steal target.  When a worker goes idle
    and another still holds at least ``steal_threshold`` unstarted
    leases beyond its in-flight window, the supervisor moves half of
    them over.  ``lease_batch`` caps the keys a worker keeps in flight
    (default: ``workers_per_shard``, one per pool process); it is also
    the keep window a steal never touches.  Stealing changes only the
    wall-clock shape, never the results.  A shard is done once every
    lease it holds is recorded in some stream.

    A worker that dies (any nonzero exit) or stalls (its event log
    untouched for ``stall_timeout`` seconds) is killed and its shard
    requeued onto the next free slot, up to ``max_attempts`` launches
    per shard; after that the campaign aborts with the shard's log
    tail.  A worker touches its event log after every finished task
    and idle poll (writing a heartbeat event at most every
    ``HEARTBEAT_EVERY_S`` seconds), so ``stall_timeout`` must exceed
    the slowest single task, and be at least twice that interval; a
    log older than the worker's launch counts from the launch.
    ``max_concurrent`` caps simultaneous workers (default: no cap); the
    leases of a shard waiting for a slot are reclaimed onto idle
    workers.

    ``chaos_kill_shard``/``chaos_kill_after`` are fault injection for
    tests and CI: SIGKILL that shard's *first* worker once its stream
    holds ``chaos_kill_after`` records, then let supervision recover.
    ``chaos_kill_after=0`` kills at launch — deterministic, where the
    mid-run variant races the worker's own completion (if the worker
    wins, a ``chaos: ... finished before the injection`` event says so).
    ``chaos_slow_shard``/``chaos_slow_s`` injects a per-task sleep of
    ``chaos_slow_s`` seconds into that shard's workers (all attempts —
    it simulates a slow *machine*, not a flaky process), the imbalance
    work stealing recovers from.

    ``hosts`` backs the slots with other machines: one lease-board slot
    per entry, each a transport (a
    :class:`~repro.experiments.transport.Transport` instance, or a
    spec string for :func:`~repro.experiments.transport.parse_host` —
    ``user@h1``, ``h1:/data/run``, ``store:/shared/h1``,
    ``local:/mnt/nfs/h1``).  Pass *either* ``hosts`` or ``shards``,
    never both; the per-shard chaos knobs give way to
    ``chaos_kill_host``: the same kill, which also *declares the host
    vanished* — the slot is never relaunched and its leases reclaim
    onto live workers, which is the path a genuinely unreachable host
    (``VANISH_AFTER`` consecutive transport errors) takes too.  In
    every run, hosts join mid-campaign through ``hosts.json`` in the
    run dir (``{"join": ["store:/tmp/h3", ...]}``, append-only).

    Args:
        spec: the validated campaign to fan out.
        shards: run-dir shard-worker count (exactly one of ``shards`` /
            ``hosts``).
        run_dir: run directory (default: ``orchestrated-<name>``).
        workers_per_shard: process-pool size inside each worker.
        cache_dir: opt-in cross-campaign task cache shared by workers.
        poll_interval / stall_timeout / max_attempts / max_concurrent:
            supervision knobs (see above).
        on_event: callback for supervision events (launch, requeue,
            steal, ...); the CLI prints them, telemetry records them.
        lease_batch / steal_threshold: work-stealing tuning.
        chaos_*: fault injection for tests and CI.
        hosts: transports (or spec strings) for cross-machine slots.

    Returns:
        An :class:`OrchestratorResult`: the aggregated
        :class:`~repro.experiments.campaign.CampaignResult`, the merged
        stream path, and per-shard launch/steal statistics.

    Raises:
        ValueError: conflicting arguments (``hosts`` with ``shards``,
            per-shard chaos with ``hosts``).
        OrchestratorError: a shard exhausted ``max_attempts``, a
            transport failed permanently, or the merged stream does not
            cover the campaign (the CLI maps this to exit code 3).
    """
    transports: dict[int, Transport] = {}
    if hosts is not None:
        if shards is not None:
            raise ValueError("pass hosts or shards, not both")
        if len(hosts) < 1:
            raise ValueError("hosts must name at least one host")
        if chaos_kill_shard is not None or chaos_slow_shard is not None:
            raise ValueError(
                "per-shard chaos injection (chaos_kill_shard/"
                "chaos_slow_shard) is single-machine only; use "
                "chaos_kill_host in hosts mode"
            )
        if chaos_kill_host is not None and not 0 <= chaos_kill_host < len(
            hosts
        ):
            raise ValueError(
                f"chaos_kill_host must be in [0, {len(hosts)}), got "
                f"{chaos_kill_host}"
            )
        transports = {
            index: host if isinstance(host, Transport)
            else parse_host(str(host))
            for index, host in enumerate(hosts)
        }
        labels = [transport.describe() for transport in transports.values()]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(f"host {label} listed twice")
        shards = len(hosts)
    else:
        if shards is None:
            raise ValueError("shards is required without hosts")
        if chaos_kill_host is not None:
            raise ValueError("chaos_kill_host needs hosts mode")
    if run_dir is None:
        raise ValueError("run_dir is required")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if workers_per_shard < 1:
        raise ValueError("workers_per_shard must be >= 1")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if poll_interval <= 0:
        raise ValueError("poll_interval must be positive")
    if stall_timeout < 2 * HEARTBEAT_EVERY_S:
        raise ValueError(
            f"stall_timeout must be at least {2 * HEARTBEAT_EVERY_S:g} s "
            f"(twice an idle worker's heartbeat interval), got "
            f"{stall_timeout:g}"
        )
    if max_concurrent is not None and max_concurrent < 1:
        raise ValueError("max_concurrent must be >= 1")
    if lease_batch is not None and lease_batch < 1:
        raise ValueError("lease_batch must be >= 1")
    if steal_threshold < 1:
        raise ValueError("steal_threshold must be >= 1")
    if chaos_kill_shard is not None and not 0 <= chaos_kill_shard < shards:
        raise ValueError(
            f"chaos_kill_shard must be in [0, {shards}), got "
            f"{chaos_kill_shard}"
        )
    if chaos_slow_shard is not None and not 0 <= chaos_slow_shard < shards:
        raise ValueError(
            f"chaos_slow_shard must be in [0, {shards}), got "
            f"{chaos_slow_shard}"
        )
    if chaos_slow_shard is not None and chaos_slow_s <= 0:
        raise ValueError("chaos_slow_s must be positive")

    layout = RunLayout(run_dir).ensure()
    # A host slot is labelled with its transport; a ``shards`` slot's
    # transport is the run dir itself, so it needs no label and every
    # push and pull below is a same-file no-op for it.
    statuses = [
        _shard_status(
            layout, index,
            transports[index].describe() if index in transports else "",
        )
        for index in range(shards)
    ]
    for index in range(shards):
        transports.setdefault(index, LocalTransport(layout.root))
    cap = max_concurrent if max_concurrent is not None else float("inf")
    # One injector serves both kills; at most one of them is armed.
    chaos_shard = (
        chaos_kill_shard if chaos_kill_host is None else chaos_kill_host
    )
    chaos_action = "kill" if chaos_kill_host is None else "kill_host"
    chaos_pending = chaos_shard is not None

    event = _EventSink(
        on_event, EventLog(layout.events, origin="supervisor").ensure()
    )
    spec_hash = campaign_spec_hash(spec)
    spec_file = layout.spec
    spec_file.write_text(
        json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    # The same expansion the workers compute: the board leases these
    # keys out, and the run is complete once each is recorded somewhere.
    keys = [
        task_key(task)
        for _, cell_spec in spec.cell_specs()
        for task in cell_spec.tasks()
    ]
    total_tasks = len(keys)
    event.emit(
        "run_start",
        shards=shards,
        total_tasks=total_tasks,
        hosts=[status.host for status in statuses if status.host],
        stall_timeout=stall_timeout,
    )
    adversaries = _adversary_specs(spec)
    if adversaries:
        # Adversarial runs are easy to mistake for broken ones (delivery
        # collapses by design), so the injection is a first-class event
        # a post-mortem reads before blaming the protocol or the fleet.
        event.emit("adversary", specs=adversaries)

    lost: set[int] = set()
    failures: dict[int, int] = {status.index: 0 for status in statuses}

    def push_assignment(worker: int, path: Path) -> None:
        """Board ``on_write`` hook: mirror the rewrite to the slot.

        A push to a lost slot is skipped (its leases are reclaimed or
        about to be); a *failing* push feeds the same strike counter
        the mirror pulls use, so an unreachable host converges to lost
        no matter which direction noticed first.
        """
        if worker in lost:
            return
        transport = transports[worker]
        try:
            transport.push(path, RunLayout.assignment_name(worker))
            failures[worker] = 0
        except TransportError as exc:
            failures[worker] = failures.get(worker, 0) + 1
            event(
                f"host {transport.describe()} (shard {worker}): "
                f"assignment push failed ({failures[worker]}/"
                f"{VANISH_AFTER}): {exc}"
            )

    for status in statuses:
        transport = transports[status.index]
        transport.push(spec_file, RunLayout.spec_name())
        if status.host:
            event.emit(
                "host_join",
                f"host {status.host}: registered as shard {status.index}",
                shard=status.index,
                host=status.host,
                joined_mid_run=False,
            )
        # Resume support: mirror whatever stream the host already
        # holds before the board is built, so its records count as
        # done exactly like a local resumed run dir's would.
        transport.pull(RunLayout.stream_name(status.index), status.stream)

    # Resume: anything any existing stream records is done for good;
    # the lease board never hands those keys out again.  Validating
    # every stream against the spec hash up front fails a mismatched
    # run_dir reuse here, not worker by worker.
    pre_done: set[str] = set()
    seen: dict[int, set[str]] = {status.index: set() for status in statuses}
    for status in statuses:
        if status.stream.exists() and status.stream.stat().st_size > 0:
            info = load_stream(
                status.stream, expected_spec_hash=spec_hash,
                quarantine=False,
            )
            stream_keys = info.keys()
            pre_done |= stream_keys
            seen[status.index] = stream_keys
            status.recorded = len(info.records)
            if status.recorded:
                event(
                    f"shard {status.index}: resuming, stream already "
                    f"holds {status.recorded} task record(s)"
                )

    batch = lease_batch if lease_batch is not None else workers_per_shard
    board = LeaseBoard(
        keys,
        workers=shards,
        run_dir=layout.root,
        spec_hash=spec_hash,
        batch=batch,
        done=pre_done,
        on_write=push_assignment,
    )
    for status in statuses:
        event(
            f"shard {status.index}: leased "
            f"{len(board.remaining(status.index))} task(s) initially"
        )

    queue: deque[ShardStatus] = deque(statuses)
    running: list[_Worker] = []
    tailers = {
        status.index: StreamTailKeys(status.stream) for status in statuses
    }
    joined = 0
    closed = False
    last_progress = -1

    def ingest(status: ShardStatus) -> None:
        """Fold a stream's newly appended records into the board."""
        for key in tailers[status.index].poll():
            seen[status.index].add(key)
            board.record_done(key)
        status.recorded = len(seen[status.index])

    def declare_lost(status: ShardStatus, why: str) -> None:
        """A slot's host vanished: retire it, leave its leases to reclaim.

        The slot is never relaunched (unlike a dead *worker*, whose
        machine is still there) — its undone leases stay on the board
        until the reclaim step re-leases them to live idle workers,
        which is the same path a queued workerless slot takes.  Counts
        as a requeue: the work is requeued, just not onto this slot.
        """
        for worker in list(running):
            if worker.status is status:
                running.remove(worker)
                worker.kill()
                worker.close_log()
                if worker.process.returncode is not None:
                    status.exit_codes.append(worker.process.returncode)
        if status in queue:
            queue.remove(status)
        status.state = "lost"
        status.requeues += 1
        lost.add(status.index)
        event.emit(
            "host_lost",
            f"host {status.host or status.index} (shard {status.index}) "
            f"vanished ({why}); requeuing its "
            f"{len(board.remaining(status.index))} remaining lease(s) "
            f"for reclaim by live workers",
            shard=status.index,
            host=status.host,
            attempt=status.attempts or None,
            why=why,
            remaining=len(board.remaining(status.index)),
        )

    def poll_joins() -> None:
        """Fold new ``hosts.json`` entries in as fresh board slots.

        The file is append-only (``{"join": [spec, ...]}``); entries
        are consumed by position, so re-reads are idempotent and a
        malformed tail entry cannot double-register earlier hosts.  A
        bad spec or an unreachable host burns its entry with an event
        instead of aborting a campaign that was running fine.
        """
        nonlocal joined
        try:
            document = json.loads(
                layout.hosts_file.read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return
        entries = (
            document.get("join") if isinstance(document, dict) else None
        )
        if not isinstance(entries, list):
            return
        for entry in entries[joined:]:
            joined += 1
            try:
                transport = parse_host(str(entry))
            except ValueError as exc:
                event(f"join: bad host spec {entry!r}: {exc}")
                continue
            if any(
                transport.describe() == other.describe()
                for other in transports.values()
            ):
                event(
                    f"join: host {transport.describe()} is already a "
                    f"slot; ignoring"
                )
                continue
            index = board.workers
            transports[index] = transport
            try:
                transport.push(spec_file, RunLayout.spec_name())
            except TransportError as exc:
                del transports[index]
                event(
                    f"join: host {transport.describe()} unreachable "
                    f"({exc}); not registered"
                )
                continue
            failures[index] = 0
            seen[index] = set()
            board.add_worker()
            status = _shard_status(layout, index, transport.describe())
            statuses.append(status)
            tailers[index] = StreamTailKeys(status.stream)
            queue.append(status)
            event.emit(
                "host_join",
                f"join: host {transport.describe()} registered as shard "
                f"{index}; leases will rebalance onto it",
                shard=index,
                host=transport.describe(),
                joined_mid_run=True,
            )

    def inject_chaos(worker: _Worker, when: str) -> None:
        """The fault injector, checked at launch and on every poll.

        Fires once, at the armed slot's *first* worker: SIGKILL it once
        its stream holds ``chaos_kill_after`` records — ``kill_host``
        also declares the slot's host lost — or, if the poll already
        saw the worker exit, report that nothing was killed.
        """
        nonlocal chaos_pending
        status = worker.status
        if (
            not chaos_pending
            or status.index != chaos_shard
            or status.attempts != 1
        ):
            return
        exited = worker.process.returncode is not None
        if not exited and len(seen[status.index]) < chaos_kill_after:
            return
        chaos_pending = False
        if exited:
            message = (
                f"chaos: shard {status.index} worker finished before the "
                f"injection could fire; nothing killed"
            )
        else:
            vanishes = (
                "; its host vanishes" if chaos_action == "kill_host" else ""
            )
            message = (
                f"chaos: SIGKILL shard {status.index} worker "
                f"(pid {worker.process.pid}) {when}{vanishes}"
            )
        event.emit(
            "chaos",
            message,
            shard=status.index,
            host=status.host,
            attempt=status.attempts,
            action=chaos_action,
            fired=not exited,
        )
        if exited:
            return
        if chaos_action == "kill_host":
            declare_lost(status, "chaos host kill")
        else:
            worker.kill()

    def launch(status: ShardStatus) -> None:
        status.attempts += 1
        status.state = "running"
        transport = transports[status.index]
        command = _worker_command(
            transport.command_head(), RunLayout(transport.root),
            status.index, workers_per_shard, cache_dir,
        )
        env = _worker_env() if transport.runs_locally else None
        if status.index == chaos_slow_shard:
            env[CHAOS_TASK_SLEEP_ENV] = str(chaos_slow_s)
        process, handle = _spawn_worker(
            transport, command, status.log, status.attempts, env
        )
        worker = _Worker(status, process, handle, time.time())
        running.append(worker)
        host_note = f" on {status.host}" if status.host else ""
        event.emit(
            "launch",
            f"launched shard {status.index} attempt {status.attempts} "
            f"(pid {process.pid}, "
            f"{len(board.remaining(status.index))} leased task(s))"
            f"{host_note}",
            shard=status.index,
            host=status.host,
            attempt=status.attempts,
            pid=process.pid,
            leased=len(board.remaining(status.index)),
        )
        inject_chaos(worker, "at launch")

    def abort(status: ShardStatus, why: str) -> None:
        for worker in running:
            worker.kill()
            worker.close_log()
        running.clear()
        raise OrchestratorError(
            f"shard {status.index} {why} after {status.attempts} launch "
            f"attempt(s) (exit codes {status.exit_codes}); giving up.\n"
            f"--- tail of {status.log} ---\n{_tail(status.log)}"
        )

    try:
        while True:
            if board.complete and not closed:
                closed = True
                board.close_all()
                # Slots still waiting to (re)launch have nothing left
                # to do — their leases finished elsewhere.
                for status in queue:
                    status.state = "done"
                queue.clear()
                event(
                    f"all {total_tasks} task(s) recorded; closing "
                    f"assignments so idle workers exit"
                )
            if not closed:
                while queue and len(running) < cap:
                    launch(queue.popleft())
            if not running and not queue:
                if closed:
                    break
                # Defensive: every worker done/aborted yet tasks remain.
                missing = total_tasks - len(board.done)
                raise OrchestratorError(
                    f"no workers left but {missing} task(s) never "
                    f"recorded; shard streams are incomplete"
                )
            time.sleep(poll_interval)
            poll_joins()
            # Beacon + mirror tick, one transport round per live slot:
            # freshen the slot's assignment mtime, so an idle worker's
            # supervisor-death timeout (`repro campaign --tasks
            # --wait-timeout`) never fires while this loop runs, then
            # pull the worker's stream and event log into the run dir
            # — atomic replace with the host mtime kept, so the tail
            # cursors, the stall clock and the endgame event merge read
            # the mirrors as if the worker were local.  Each pull is a
            # no-op until the worker first writes that file, and every
            # one is a same-file no-op for a ``shards`` slot.
            for status in list(statuses):
                if status.index in lost or status.state == "done":
                    continue
                transport = transports[status.index]
                try:
                    transport.touch(RunLayout.assignment_name(status.index))
                    event.heartbeat(status.index, "supervisor-beacon")
                    transport.pull(
                        RunLayout.stream_name(status.index), status.stream
                    )
                    transport.pull(
                        RunLayout.shard_events_name(status.index),
                        layout.shard_events(status.index),
                    )
                    failures[status.index] = 0
                except TransportError as exc:
                    failures[status.index] += 1
                    if failures[status.index] >= VANISH_AFTER:
                        declare_lost(
                            status,
                            f"{failures[status.index]} consecutive "
                            f"transport failures; last: {exc}",
                        )
            for status in statuses:
                ingest(status)
            for worker in list(running):
                status = worker.status
                worker.process.poll()
                inject_chaos(
                    worker, f"after {status.recorded} recorded task(s)"
                )
                if status.state == "lost":
                    continue
                # The poll's exit code, or the one a chaos kill reaped.
                return_code = worker.process.returncode
                if return_code is None:
                    # An event log older than this launch was left by an
                    # earlier worker (an interrupted run of this run
                    # dir, or the one whose stall caused the relaunch),
                    # so the age counts from the launch at most.
                    heartbeat_age = layout.record_age(
                        status.index, time.time(), worker.launched_at
                    )
                    if heartbeat_age > stall_timeout:
                        event.emit(
                            "stall",
                            f"shard {status.index} stalled (no heartbeat "
                            f"for {heartbeat_age:.0f}s); killing worker "
                            f"pid {worker.process.pid}",
                            shard=status.index,
                            host=status.host,
                            attempt=status.attempts,
                            heartbeat_age_s=round(heartbeat_age, 3),
                        )
                        worker.kill()
                        return_code = worker.process.poll()
                if return_code is None:
                    continue
                running.remove(worker)
                worker.close_log()
                status.exit_codes.append(return_code)
                ingest(status)
                remaining = board.remaining(status.index)
                if not remaining:
                    # Every lease it held is recorded (here or, after a
                    # steal race, in another worker's stream): done,
                    # whatever the exit code says.
                    status.state = "done"
                    event.emit(
                        "exit",
                        f"shard {status.index} done "
                        f"({status.recorded} task record(s) in stream)",
                        shard=status.index,
                        host=status.host,
                        attempt=status.attempts,
                        exit_code=return_code,
                        outcome="done",
                        recorded=status.recorded,
                    )
                    continue
                if status.attempts >= max_attempts:
                    abort(
                        status,
                        "kept failing" if return_code != 0
                        else "exits cleanly but leases stay unrecorded",
                    )
                status.requeues += 1
                status.state = "pending"
                queue.append(status)
                cause = (
                    f"worker died (exit {return_code})"
                    if return_code != 0
                    else "worker exited with unrecorded leases"
                )
                event.emit(
                    "requeue",
                    f"shard {status.index} {cause}; requeuing the slot — "
                    f"its {len(remaining)} remaining lease(s) stay "
                    f"stealable meanwhile",
                    shard=status.index,
                    host=status.host,
                    attempt=status.attempts,
                    exit_code=return_code,
                    recorded=status.recorded,
                    remaining=len(remaining),
                )
            if not closed:
                alive = {
                    worker.status.index
                    for worker in running
                    if worker.process.poll() is None
                }
                idle = [
                    index for index in sorted(alive)
                    if not board.remaining(index)
                ]
                # A queued slot (never launched, or dead and awaiting
                # relaunch) has nothing in flight, so the keep window
                # and steal threshold protect work that provably is
                # not running.  Reclaim such slots wholesale onto idle
                # live workers — without this, ``max_concurrent <
                # shards`` deadlocks: the launched workers go idle and
                # wait on assignment files that never close, running
                # never drops below the cap, and the queued slot's
                # window-protected leases can never move.
                if idle:
                    for status in statuses:
                        if (
                            status.state not in ("pending", "lost")
                            or status.index in alive
                            or not board.remaining(status.index)
                        ):
                            continue
                        reclaimed = board.reclaim(status.index)
                        if not reclaimed:
                            continue
                        status.stolen_from += len(reclaimed)
                        for offset, thief in enumerate(idle):
                            share = reclaimed[offset::len(idle)]
                            board.lease(thief, share)
                            statuses[thief].stolen_to += len(share)
                        slot_why = (
                            "host vanished" if status.state == "lost"
                            else "no worker in flight"
                        )
                        slot_kind = (
                            "lost" if status.state == "lost" else "queued"
                        )
                        event.emit(
                            "reclaim",
                            f"reclaim: moved all {len(reclaimed)} "
                            f"lease(s) from {slot_kind} shard "
                            f"{status.index} ({slot_why}) to "
                            f"idle shard(s) "
                            f"{', '.join(str(t) for t in idle)}",
                            shard=status.index,
                            host=status.host,
                            moved=len(reclaimed),
                            slot_kind=slot_kind,
                            to=list(idle),
                        )
                    idle = [
                        index for index in sorted(alive)
                        if not board.remaining(index)
                    ]
                busy = [
                    index for index in sorted(alive)
                    if board.remaining(index)
                ]
                for victim, thief, count in plan_steals(
                    board, idle, busy, steal_threshold
                ):
                    moved = board.steal(victim, thief, count)
                    if not moved:
                        continue
                    statuses[victim].stolen_from += len(moved)
                    statuses[thief].stolen_to += len(moved)
                    event.emit(
                        "steal",
                        f"steal: moved {len(moved)} unstarted lease(s) "
                        f"from lagging shard {victim} to idle shard "
                        f"{thief} ({len(board.remaining(victim))} "
                        f"remain with {victim})",
                        shard=victim,
                        moved=len(moved),
                        to=thief,
                        victim_remaining=len(board.remaining(victim)),
                    )
            progress = len(board.done)
            if progress != last_progress:
                event(f"progress: {progress}/{total_tasks} tasks recorded")
                last_progress = progress
    finally:
        for worker in running:
            worker.kill()
            worker.close_log()

    streams = [
        status.stream
        for status in statuses
        if status.stream.exists() and status.stream.stat().st_size > 0
    ]
    return _collect(
        layout, streams, total_tasks, statuses, event,
        hosts=tuple(status.host for status in statuses if status.host),
    )


def _adversary_specs(spec: CampaignSpec) -> list[str]:
    """Every adversary spec the campaign runs, as canonical strings.

    Covers both spellings — a compromised base scenario and an
    ``adversary`` grid axis — and skips honest cells (``None``).
    """
    specs: list[str] = []
    if spec.base.adversary is not None:
        specs.append(str(spec.base.adversary))
    for name, values in spec.grid:
        if name == "adversary":
            specs.extend(str(v) for v in values if v is not None)
    return specs


def _emit_shard_summaries(
    statuses: Sequence[ShardStatus], event: "_EventSink"
) -> None:
    """One final per-shard accounting line each, before the merge.

    Requeues used to be the only rebalancing that surfaced; CI
    assertions and ``watch`` users also need attempt counts and steal
    traffic without grepping worker logs.
    """
    for status in statuses:
        steals = ""
        if status.stolen_from or status.stolen_to:
            steals = (
                f", {status.stolen_from} lease(s) stolen away, "
                f"{status.stolen_to} stolen in"
            )
        event.emit(
            "shard_summary",
            f"summary: shard {status.index}: {status.attempts} "
            f"attempt(s), {status.requeues} requeue(s){steals}, "
            f"{status.recorded} task record(s) in stream",
            shard=status.index,
            host=status.host,
            attempt=status.attempts or None,
            requeues=status.requeues,
            stolen_from=status.stolen_from,
            stolen_to=status.stolen_to,
            recorded=status.recorded,
            state=status.state,
        )


def _collect(
    layout: RunLayout,
    streams: Sequence[Path],
    total_tasks: int,
    statuses: list[ShardStatus],
    event: "_EventSink",
    hosts: Sequence[str] = (),
) -> OrchestratorResult:
    """The shared endgame: summaries, merge, completeness check."""
    _emit_shard_summaries(statuses, event)
    merged = layout.merged_stream
    info = merge_streams(merged, streams)
    if len(info.records) != total_tasks:
        raise OrchestratorError(
            f"merged stream holds {len(info.records)} records, expected "
            f"{total_tasks}; shard streams are incomplete or damaged "
            f"({info.quarantined} undecodable line(s) skipped)"
        )
    event.emit(
        "run_end",
        f"merged {len(streams)} shard stream(s) -> {merged} "
        f"({len(info.records)} task records)",
        outcome="complete",
        streams=len(streams),
        records=len(info.records),
        requeues=sum(status.requeues for status in statuses),
        steals=sum(status.stolen_from for status in statuses),
    )
    # Fold every worker-side event file into the supervisor's log so a
    # finished run dir holds one mergeable history.  Line-level dedup in
    # merge_events makes this idempotent across resumes, and worker
    # files may simply not exist (a worker killed before its first
    # emit), so only the supervisor log is required.
    shard_event_files = [
        layout.shard_events(status.index) for status in statuses
    ]
    merge_events(
        layout.events,
        [layout.events, *shard_event_files],
    )
    return OrchestratorResult(
        result=campaign_result_from_stream(merged),
        merged_stream=merged,
        shards=statuses,
        hosts=tuple(hosts),
    )

