"""Lease-based task scheduling for orchestrated campaigns.

Fixing each worker's task set at launch (a :func:`repro.seeding
.stable_shard` partition) makes requeue granularity a whole shard, so
one slow or unlucky shard grinds alone while every other worker sits
idle.  This module drops that granularity to individual tasks:

- The supervisor owns a :class:`LeaseBoard`: every task key of the
  campaign, which worker currently holds its lease, and which keys are
  already recorded in *some* worker's stream.  The initial assignment is
  exactly the :func:`repro.seeding.shard_partition` split, so a run in
  which no steal ever fires records the same partition hand-launched
  ``--shard-index`` runs do.
- Each worker's current lease set lives in an **assignment file** next
  to its stream (``shard<i>.tasks.json``), atomically rewritten by the
  supervisor and only ever *read* by the worker (``repro campaign
  --tasks FILE``).  The worker keeps at most ``batch`` keys in flight
  and re-reads the file after every finished task, so a key the
  supervisor reclaims is dropped before the worker reaches it.  The
  file is the whole protocol — no sockets, no IPC — which keeps the
  worker launchable by anything that can write a file (a transport to
  another machine included).
- When stream progress shows one worker lagging while another is idle,
  :func:`plan_steals` moves unstarted leases from the laggard to the
  idle worker.  The victim keeps a *keep window* of ``batch`` keys it
  may already have in flight; everything beyond that is reclaimable.
  A steal can still race a key the victim has just started — both
  workers then run the task — but tasks are deterministic, both
  streams record identical metrics, and the merge deduplicates by key,
  so a lost race costs one duplicate simulation, never correctness.
  A slot with no live worker at all (queued behind the concurrency
  cap, or dead and awaiting relaunch) has nothing in flight, so the
  keep window does not apply: :meth:`LeaseBoard.reclaim` takes its
  whole lease set back and the supervisor re-leases it to idle
  workers — without that, capping concurrency below the shard count
  would deadlock on window-protected leases nobody is running.

Scheduling therefore cannot change results, only wall-clock shape —
``tests/experiments/test_equivalence.py`` asserts stolen/rebalanced
runs merge to the same streams and aggregates as serial and
hand-sharded runs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.experiments.layout import RunLayout
from repro.seeding import shard_partition

__all__ = [
    "Assignment",
    "AssignmentIdleTimeout",
    "LeaseBoard",
    "SchedulerError",
    "ASSIGNMENT_FORMAT",
    "plan_steals",
    "read_assignment",
    "write_assignment",
]

#: Bump when the assignment-file schema changes incompatibly.
ASSIGNMENT_FORMAT = 1


class SchedulerError(RuntimeError):
    """An assignment file is unusable (missing, damaged, wrong campaign)."""


class AssignmentIdleTimeout(SchedulerError):
    """An idle worker's assignment file went quiet past its wait bound.

    A live supervisor freshens every assignment file's mtime each
    supervision tick and closes the files when the campaign completes;
    a file that stays byte-for-byte and mtime-for-mtime still while the
    worker has nothing pending means the supervisor is gone (e.g. the
    orchestrator was SIGKILLed).  The worker raises this instead of
    polling forever as an orphan; the CLI maps it to a distinct exit
    code so supervisors and operators can tell it from bad input.
    """


@dataclass(frozen=True)
class Assignment:
    """One worker's current lease set, as read from its assignment file."""

    path: Path
    worker: int
    spec_hash: str
    keys: tuple[str, ...]
    #: Most keys the worker may have in flight at once (also the keep
    #: window a steal never touches).
    batch: int
    #: No further leases will arrive; finish ``keys`` and exit.
    closed: bool
    #: Monotonic rewrite counter (diagnostics; workers do not need it).
    version: int


def write_assignment(
    path: str | Path,
    worker: int,
    spec_hash: str,
    keys: Sequence[str],
    batch: int,
    closed: bool = False,
    version: int = 0,
) -> None:
    """Atomically (re)write one worker's assignment file.

    Atomic replace means a worker re-reading the file sees either
    the old lease set or the new one, never a torn mix — the same
    temp-file+rename discipline the stream repair path uses.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "kind": "assignment",
        "format": ASSIGNMENT_FORMAT,
        "worker": worker,
        "spec_hash": spec_hash,
        "batch": batch,
        "closed": closed,
        "version": version,
        "keys": list(keys),
    }
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)


def read_assignment(path: str | Path) -> Assignment:
    """Load and validate an assignment file.

    Any unreadable or malformed file raises :class:`SchedulerError`:
    unlike a stream's torn tail, an assignment file is atomically
    replaced as a whole, so damage means misuse (wrong path, manual
    edit), not a crash to be repaired around.
    """
    target = Path(path)
    try:
        document = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        raise SchedulerError(
            f"cannot read assignment file {target}: {exc}"
        ) from exc
    if (
        not isinstance(document, dict)
        or document.get("kind") != "assignment"
        or document.get("format") != ASSIGNMENT_FORMAT
    ):
        raise SchedulerError(
            f"{target} is not a scheduler assignment file "
            f"(format {ASSIGNMENT_FORMAT})"
        )
    keys = document.get("keys")
    if not isinstance(keys, list) or not all(
        isinstance(key, str) for key in keys
    ):
        raise SchedulerError(f"{target} has a malformed task-key list")
    if len(set(keys)) != len(keys):
        raise SchedulerError(f"{target} lists a task key twice")
    batch = document.get("batch")
    if not isinstance(batch, int) or batch < 1:
        raise SchedulerError(f"{target} has a malformed batch size")
    if not isinstance(document.get("spec_hash"), str):
        raise SchedulerError(f"{target} has a malformed spec hash")
    worker = document.get("worker")
    if not isinstance(worker, int) or isinstance(worker, bool) or worker < 0:
        raise SchedulerError(f"{target} has a malformed worker index")
    return Assignment(
        path=target,
        worker=worker,
        spec_hash=document["spec_hash"],
        keys=tuple(keys),
        batch=batch,
        closed=bool(document.get("closed", False)),
        version=int(document.get("version", 0)),
    )


class LeaseBoard:
    """Supervisor-side bookkeeping: who holds which task, what is done.

    The board is the single writer of every assignment file.  It starts
    from the :func:`repro.seeding.shard_partition` split (minus keys a
    resumed run dir already records), moves leases between workers on
    :meth:`steal`, folds stream progress in through :meth:`record_done`,
    and closes every file once the whole campaign is recorded so idle
    workers exit cleanly.
    """

    def __init__(
        self,
        keys: Sequence[str],
        workers: int,
        run_dir: str | Path,
        spec_hash: str,
        batch: int = 1,
        done: Iterable[str] = (),
        on_write: Callable[[int, Path], None] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if len(set(keys)) != len(keys):
            raise ValueError("task keys must be unique")
        self.run_dir = Path(run_dir)
        self.spec_hash = spec_hash
        self.batch = batch
        self.keys = tuple(keys)
        self.done: set[str] = set(done) & set(keys)
        self.closed = False
        #: Called as ``on_write(worker, path)`` after every assignment
        #: rewrite.  The multi-host supervisor hangs its transport push
        #: here, so the remote copy of an assignment file can never lag
        #: more than one atomic rewrite behind the board.
        self.on_write = on_write
        self._versions = [0] * workers
        # The hash partition is the starting point; keys a resumed run
        # dir already records are never leased at all.
        self.assignments: list[list[str]] = [
            [key for key in part if key not in self.done]
            for part in shard_partition(keys, workers)
        ]
        for worker in range(workers):
            self._write(worker)

    @property
    def workers(self) -> int:
        return len(self.assignments)

    def path(self, worker: int) -> Path:
        """Worker ``worker``'s assignment file."""
        return RunLayout(self.run_dir).assignment(worker)

    def _write(self, worker: int) -> None:
        # Keys already recorded are pruned from the written view: a
        # steal race can leave a key recorded in worker A's stream but
        # still leased to worker B, and pruning stops B from running it
        # a second time.  (B's *own* recorded keys are pruned too —
        # harmless, its stream already skips them.)
        write_assignment(
            self.path(worker),
            worker=worker,
            spec_hash=self.spec_hash,
            keys=[
                key for key in self.assignments[worker]
                if key not in self.done
            ],
            batch=self.batch,
            closed=self.closed,
            version=self._versions[worker],
        )
        if self.on_write is not None:
            self.on_write(worker, self.path(worker))

    def add_worker(self) -> int:
        """Register a new (elastic-join) slot; returns its worker index.

        The slot starts with an empty lease set — an atomically written,
        open assignment file its worker can wait on — and fills up
        through the normal rebalancing machinery (:func:`plan_steals`
        moves work to it as soon as it is live and idle, or a reclaim
        re-leases a dead slot's keys onto it).  Joining a board that has
        already :meth:`close_all`-ed gets a *closed* empty assignment,
        so a late worker exits immediately instead of waiting forever.
        """
        worker = self.workers
        self.assignments.append([])
        self._versions.append(0)
        self._write(worker)
        return worker

    def record_done(self, key: str) -> None:
        """Fold one recorded task key (from any worker's stream) in."""
        if key in self.keys:
            self.done.add(key)

    @property
    def complete(self) -> bool:
        """Every task of the campaign is recorded in some stream."""
        return len(self.done) >= len(self.keys)

    def remaining(self, worker: int) -> list[str]:
        """``worker``'s leased keys not yet recorded anywhere."""
        return [
            key for key in self.assignments[worker] if key not in self.done
        ]

    def stealable(self, worker: int) -> list[str]:
        """``worker``'s reclaimable keys: remaining minus the keep window.

        The first ``batch`` remaining keys stay with the worker — it may
        have them in flight right now.  It never holds more than
        ``batch`` keys in flight and re-reads the file before starting
        another, so everything beyond that is unstarted unless a steal
        races a key the worker just took (one duplicate simulation, as
        the module docstring explains).
        """
        return self.remaining(worker)[self.batch:]

    def steal(self, victim: int, thief: int, count: int) -> list[str]:
        """Move up to ``count`` unstarted leases from victim to thief.

        Keys move from the *tail* of the victim's stealable range (the
        work it would reach last) onto the end of the thief's
        assignment; both files are atomically rewritten.  Returns the
        moved keys (possibly empty).
        """
        if victim == thief:
            raise ValueError("cannot steal from a worker to itself")
        if count < 1:
            return []
        stealable = self.stealable(victim)
        moved = stealable[max(0, len(stealable) - count):]
        if not moved:
            return []
        moving = set(moved)
        self.assignments[victim] = [
            key for key in self.assignments[victim] if key not in moving
        ]
        self.assignments[thief].extend(moved)
        self._versions[victim] += 1
        self._versions[thief] += 1
        self._write(victim)
        self._write(thief)
        return moved

    def reclaim(self, worker: int) -> list[str]:
        """Take *all* of a dead worker's undone leases back (no window).

        Unlike :meth:`steal`, there is no keep window: the worker is
        gone, so nothing is in flight.  The caller re-leases the
        returned keys (typically back to the same slot for a relaunch,
        or across survivors when the slot is abandoned).
        """
        remaining = self.remaining(worker)
        self.assignments[worker] = []
        self._versions[worker] += 1
        self._write(worker)
        return remaining

    def lease(self, worker: int, keys: Sequence[str]) -> None:
        """Append ``keys`` to ``worker``'s assignment (requeue/re-lease)."""
        if not keys:
            return
        held = set(self.assignments[worker])
        fresh = [key for key in keys if key not in held]
        if not fresh:
            return
        self.assignments[worker].extend(fresh)
        self._versions[worker] += 1
        self._write(worker)

    def close_all(self) -> None:
        """Mark every assignment closed so idle workers exit cleanly."""
        self.closed = True
        for worker in range(self.workers):
            self._versions[worker] += 1
            self._write(worker)


def plan_steals(
    board: LeaseBoard,
    idle: Sequence[int],
    busy: Sequence[int],
    threshold: int = 2,
) -> list[tuple[int, int, int]]:
    """Decide which steals to perform this supervision tick.

    ``idle`` are live workers with no remaining leases; ``busy`` are
    live workers that still hold work.  For each idle worker, the
    busiest victim (most stealable keys) gives up half of its stealable
    range — halving converges: repeated ticks keep rebalancing until
    the tail is spread across every idle worker.  A victim with fewer
    than ``threshold`` stealable keys is left alone (the imbalance
    knob: below it, moving work costs more supervision churn than the
    tail latency it saves).  Returns ``(victim, thief, count)`` tuples;
    the caller executes them with :meth:`LeaseBoard.steal`.

    Pure planning over board state — no I/O — so zero-steal behaviour
    (balanced shards plan nothing) is a unit-testable property.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    plan: list[tuple[int, int, int]] = []
    stealable_counts = {worker: len(board.stealable(worker)) for worker in busy}
    for thief in idle:
        victim = max(
            stealable_counts,
            key=lambda worker: (stealable_counts[worker], -worker),
            default=None,
        )
        if victim is None or stealable_counts[victim] < threshold:
            continue
        count = math.ceil(stealable_counts[victim] / 2)
        plan.append((victim, thief, count))
        stealable_counts[victim] -= count
    return plan
