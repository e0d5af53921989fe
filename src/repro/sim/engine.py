"""Event scheduler — the heart of the discrete-event simulator.

A classic calendar built on :mod:`heapq`.  Heap entries are ``(time,
seq, handle)`` tuples, so the heap orders them with C-level tuple
comparison; ``seq`` is a monotonically increasing tiebreaker, unique per
entry, so same-time events fire in scheduling order (deterministic
replays matter more than queue fairness here) and the handle itself is
never compared.  Beacons, message creations and storage samples all land
on whole seconds, so these ties are the common case, not a corner.
Cancellation is lazy: handles are flagged and skipped when popped, which
keeps cancel O(1).

A run's message creations are one :class:`EventSeries`, not one entry
each: the series holds a single heap entry and pushes element ``i + 1``
when element ``i`` fires.  Its tiebreakers ``base .. base + k - 1`` are
reserved when it is scheduled, so every key, and with it every pop and
every same-time tie, is the one ``k`` eager :meth:`Simulator.schedule_at`
calls would have made.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence


class EventHandle:
    """One scheduled event; the handle scheduling calls return.

    ``time`` is the firing time, ``cancelled`` turns true on
    :meth:`cancel`.
    """

    __slots__ = ("time", "callback", "cancelled")

    #: Events this handle's heap entry stands for (a series owes more).
    owed = 1

    def __init__(self, time: float, callback: Callable[[], None]):
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired).

        The callback is dropped with it: a timer's callback usually
        refers back to its owner, so a cancelled handle the owner still
        keeps would otherwise hold that reference cycle.
        """
        self.cancelled = True
        self.callback = None


class EventSeries:
    """Events at ``times[0], times[1], ...`` that hold one heap entry.

    Element ``i`` fires ``fire(i)`` under the key ``(times[i], base +
    i)``; ``base`` was reserved when the series was scheduled.  Only the
    next owed element is on the heap: the loop calls :meth:`callback`,
    which pushes element ``i + 1`` before it fires element ``i``.
    :meth:`cancel` drops every element not yet fired.
    """

    __slots__ = ("cancelled", "_heap", "_times", "_fire", "_base", "_next")

    def __init__(
        self,
        heap: list,
        times: Sequence[float],
        fire: Callable[[int], None],
        base: int,
    ):
        self.cancelled = False
        self._heap = heap
        self._times = times
        self._fire = fire
        self._base = base
        self._next = 0

    @property
    def owed(self) -> int:
        """Elements not yet fired (the one on the heap included)."""
        return len(self._times) - self._next

    def callback(self) -> None:
        """Fire the element the loop just popped; push the one after it."""
        i = self._next
        self._next = i + 1
        if i + 1 < len(self._times):
            heapq.heappush(
                self._heap, (self._times[i + 1], self._base + i + 1, self)
            )
        self._fire(i)

    def cancel(self) -> None:
        """Drop every element not yet fired."""
        self.cancelled = True


class Simulator:
    """Discrete-event simulator clock and calendar."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq: int = 0
        self._events_processed: int = 0

    @property
    def events_processed(self) -> int:
        """Count of events executed so far (diagnostics/benchmarks)."""
        return self._events_processed

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation ``time``."""
        # One comparison rejects both the past and NaN (NaN fails it).
        if not time >= self.now:
            if math.isnan(time):
                raise ValueError("event time may not be NaN")
            raise ValueError(
                f"cannot schedule into the past: {time} < now {self.now}"
            )
        event = EventHandle(time, callback)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        return event

    def schedule_series(
        self, times: Sequence[float], fire: Callable[[int], None]
    ) -> EventSeries | None:
        """Schedule ``fire(i)`` at ``times[i]`` for every ``i``.

        ``times`` must be non-decreasing from now.  The series takes
        ``len(times)`` tiebreakers at once, so it orders against every
        other event exactly as ``schedule_at(times[i], ...)`` calls made
        here, one per element, would; it returns None when ``times`` is
        empty (nothing is scheduled).
        """
        previous = self.now
        for time in times:
            if not time >= previous:
                if math.isnan(time):
                    raise ValueError("event time may not be NaN")
                if time < self.now:
                    raise ValueError(
                        f"cannot schedule into the past: {time} < now "
                        f"{self.now}"
                    )
                raise ValueError(
                    f"series times must be non-decreasing: {time} < "
                    f"{previous}"
                )
            previous = time
        if not times:
            return None
        base = self._seq
        self._seq += len(times)
        series = EventSeries(self._heap, times, fire, base)
        heapq.heappush(self._heap, (times[0], base, series))
        return series

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.now + delay, callback)

    def peek_time(self) -> float | None:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Execute the next event.  Returns False when the calendar is empty."""
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self.now = time
            self._events_processed += 1
            event.callback()
            return True
        return False

    def run(self, until: float | None = None) -> None:
        """Run events until the calendar empties or ``until`` is reached.

        With ``until`` given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so post-run metric samples
        see the full horizon.
        """
        if until is not None:
            if math.isnan(until):
                raise ValueError("run horizon may not be NaN")
            if until < self.now:
                raise ValueError("cannot run backwards in time")
        limit = math.inf if until is None else until
        heap = self._heap
        pop = heapq.heappop
        # Each event costs one pop.  The one entry past the horizon is
        # pushed back; (time, seq) is a total order, so the order in
        # which later pops return entries is unchanged.
        while heap:
            entry = pop(heap)
            time, _, event = entry
            if event.cancelled:
                continue
            if time > limit:
                heapq.heappush(heap, entry)
                break
            self.now = time
            self._events_processed += 1
            event.callback()
        if until is not None:
            self.now = max(self.now, until)

    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled events.

        A series counts every element it still owes.
        """
        return sum(
            event.owed for _, _, event in self._heap if not event.cancelled
        )

    def close(self) -> None:
        """Drop every pending event (end of run).

        Pending callbacks refer back to what scheduled them, and a
        series refers to the heap that holds it, so a calendar that
        keeps them keeps its whole world in reference cycles.
        """
        self._heap.clear()


class PeriodicTask:
    """A self-rescheduling task with optional per-fire jitter.

    Used for beacon loops and protocol check-interval timers.  The
    jitter source is an injected callable so that determinism stays in
    the caller's hands (pass ``rng.uniform``).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        jitter: float = 0.0,
        uniform: Callable[[float, float], float] | None = None,
        start_offset: float = 0.0,
    ):
        # NaN fails every comparison: an interval of NaN would re-arm at
        # the same instant forever, so only finite values pass.
        if not 0 < interval < math.inf:
            raise ValueError("interval must be positive and finite")
        if not 0 <= jitter < interval:
            raise ValueError("jitter must satisfy 0 <= jitter < interval")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._jitter = jitter
        self._uniform = uniform
        self._stopped = False
        self._handle: EventHandle | None = None
        self._schedule_next(start_offset)

    def _schedule_next(self, delay: float) -> None:
        if self._stopped:
            return
        if self._jitter > 0 and self._uniform is not None:
            delay += self._uniform(-self._jitter, self._jitter)
        sim = self._sim
        self._handle = sim.schedule_at(sim.now + max(0.0, delay), self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        self._schedule_next(self._interval)

    def stop(self) -> None:
        """Stop firing; pending occurrence is cancelled.

        The callback is dropped: it is usually a bound method of the
        object that keeps this task, a reference cycle otherwise.
        """
        self._stopped = True
        self._callback = None
        if self._handle is not None:
            self._handle.cancel()
