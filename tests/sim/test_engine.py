"""Tests for the discrete-event scheduler."""

import bisect
import itertools
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seeding import derive_rng
from repro.sim.engine import PeriodicTask, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, lambda: fired.append("c"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule_at(5.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_relative_schedule(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule_at(7.0, lambda: None)
        sim.run()
        assert sim.now == 7.0

    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append("early"))
        sim.schedule_at(50.0, lambda: fired.append("late"))
        sim.run(until=10.0)
        assert fired == ["early"]
        assert sim.now == 10.0

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_scheduling_into_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.run(until=10.0)
        with pytest.raises(ValueError):
            sim.run(until=5.0)

    def test_nan_horizon_rejected(self):
        # NaN fails every comparison, so a NaN horizon never stops a
        # calendar with a periodic timer in it.
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(sim.now))
        with pytest.raises(ValueError, match="NaN"):
            sim.run(until=math.nan)
        assert fired == [] and sim.now == 0.0

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 3.0:
                sim.schedule(1.0, chain)

        sim.schedule_at(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule_at(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class _Owner:
    """Stands for a timer's owner: its callback is a bound method."""

    def fire(self):
        pass


class TestCancellation:
    def test_cancel_releases_the_callback_and_the_loop_skips_it(self):
        sim = Simulator()
        owner = _Owner()
        owner_ref = weakref.ref(owner)
        handle = sim.schedule_at(1.0, owner.fire)
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(sim.now))
        handle.cancel()
        del owner
        # The cancelled entry is still on the heap, but no longer keeps
        # its owner alive.
        assert owner_ref() is None
        sim.run()
        assert fired == [2.0]
        assert sim.events_processed == 1

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule_at(1.0, lambda: None)
        sim.run()
        handle.cancel()  # should not raise

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        handle = sim.schedule_at(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events() == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0

    def test_step_returns_false_when_empty(self):
        assert not Simulator().step()

    def test_close_drops_every_pending_event(self):
        sim = Simulator()
        owner = _Owner()
        owner_ref = weakref.ref(owner)
        sim.schedule_at(1.0, owner.fire)
        sim.schedule_series([1.0, 2.0], lambda i: None)
        del owner
        sim.close()
        assert owner_ref() is None
        assert sim.pending_events() == 0
        sim.run()
        assert sim.events_processed == 0


class TestSeries:
    def test_elements_fire_in_order_with_their_index(self):
        sim = Simulator()
        fired = []
        sim.schedule_series([1.0, 1.0, 2.5], lambda i: fired.append((i, sim.now)))
        sim.run()
        assert fired == [(0, 1.0), (1, 1.0), (2, 2.5)]
        assert sim.events_processed == 3

    def test_ties_keep_the_order_of_eager_scheduling(self):
        """Element i takes the tiebreaker reserved for it, so an event
        scheduled after the series but before element i fires still
        fires after it at the same time."""
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("before"))
        sim.schedule_series([1.0, 2.0], lambda i: fired.append(i))
        sim.schedule_at(2.0, lambda: fired.append("after"))
        sim.run()
        assert fired == [0, "before", 1, "after"]

    def test_one_heap_entry_but_pending_counts_every_owed_element(self):
        sim = Simulator()
        sim.schedule_series([1.0, 2.0, 3.0, 4.0], lambda i: None)
        assert len(sim._heap) == 1
        assert sim.pending_events() == 4
        sim.run(until=2.5)
        assert sim.pending_events() == 2
        assert sim.peek_time() == 3.0

    def test_cancel_drops_elements_not_yet_fired(self):
        sim = Simulator()
        fired = []
        series = sim.schedule_series([1.0, 2.0, 3.0], fired.append)
        sim.run(until=1.5)
        series.cancel()
        assert sim.pending_events() == 0
        sim.run()
        assert fired == [0]

    def test_empty_series_schedules_nothing(self):
        sim = Simulator()
        assert sim.schedule_series([], lambda i: None) is None
        assert sim.pending_events() == 0

    @pytest.mark.parametrize(
        "times, match",
        [
            ([1.0, 0.5], "non-decreasing"),
            ([math.nan], "NaN"),
            ([1.0, math.nan], "NaN"),
        ],
    )
    def test_bad_times_rejected(self, times, match):
        sim = Simulator()
        with pytest.raises(ValueError, match=match):
            sim.schedule_series(times, lambda i: None)
        assert sim.pending_events() == 0

    def test_past_times_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(ValueError, match="past"):
            sim.schedule_series([4.0, 6.0], lambda i: None)


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        sim = Simulator()
        fired = []
        PeriodicTask(sim, 1.0, lambda: fired.append(sim.now))
        sim.run(until=5.5)
        assert len(fired) == 6  # t = 0, 1, 2, 3, 4, 5

    def test_stop_prevents_future_fires(self):
        sim = Simulator()
        fired = []
        task = PeriodicTask(sim, 1.0, lambda: fired.append(sim.now))
        sim.schedule_at(2.5, task.stop)
        sim.run(until=10.0)
        assert all(t <= 2.5 for t in fired)

    def test_stop_releases_the_callback(self):
        sim = Simulator()
        owner = _Owner()
        owner_ref = weakref.ref(owner)
        task = PeriodicTask(sim, 1.0, owner.fire)
        sim.run(until=1.5)  # fires at t = 0 and 1
        task.stop()
        del owner
        assert owner_ref() is None
        sim.run(until=5.0)  # the cancelled t = 2 entry is skipped
        assert sim.events_processed == 2

    def test_start_offset(self):
        sim = Simulator()
        fired = []
        PeriodicTask(
            sim, 1.0, lambda: fired.append(sim.now), start_offset=0.4
        )
        sim.run(until=2.5)
        assert fired == pytest.approx([0.4, 1.4, 2.4])

    def test_jitter_stays_within_bounds(self):
        sim = Simulator()
        fired = []
        rng = derive_rng(1, "jitter-test")
        PeriodicTask(
            sim,
            1.0,
            lambda: fired.append(sim.now),
            jitter=0.2,
            uniform=rng.uniform,
        )
        sim.run(until=20.0)
        gaps = [b - a for a, b in zip(fired, fired[1:])]
        assert all(0.6 <= g <= 1.4 for g in gaps)

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTask(sim, 0.0, lambda: None)
        with pytest.raises(ValueError):
            PeriodicTask(sim, 1.0, lambda: None, jitter=1.0)

    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_non_finite_interval_rejected(self, interval):
        # A NaN interval re-arms at the same instant forever.
        with pytest.raises(ValueError, match="interval"):
            PeriodicTask(Simulator(), interval, lambda: None)

    @pytest.mark.parametrize("jitter", [math.nan, math.inf])
    def test_non_finite_jitter_rejected(self, jitter):
        with pytest.raises(ValueError, match="jitter"):
            PeriodicTask(Simulator(), 1.0, lambda: None, jitter=jitter)


class SortedListCalendar:
    """Reference calendar: pending events in a list sorted by (time, seq).

    The same surface as :class:`Simulator` for what the order oracle
    drives, with none of its machinery: no heap, no lazy deletion
    tricks beyond skipping cancelled entries at the front.
    """

    class Handle:
        def __init__(self, time, seq, callback):
            self.time = time
            self.seq = seq
            self.callback = callback
            self.cancelled = False

        def cancel(self):
            self.cancelled = True

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._pending = []
        self._seq = 0

    class Group:
        def __init__(self, handles):
            self.handles = handles

        def cancel(self):
            for handle in self.handles:
                handle.cancel()

    def schedule_at(self, time, callback):
        handle = self.Handle(time, self._seq, callback)
        self._seq += 1
        bisect.insort(self._pending, handle, key=lambda h: (h.time, h.seq))
        return handle

    def schedule_series(self, times, fire):
        """A series is its elements scheduled eagerly, all at once."""
        if not times:
            return None
        return self.Group([
            self.schedule_at(time, lambda i=i: fire(i))
            for i, time in enumerate(times)
        ])

    def run(self, until=None):
        while self._pending:
            handle = self._pending[0]
            if until is not None and handle.time > until:
                break
            del self._pending[0]
            if handle.cancelled:
                continue
            self.now = handle.time
            self.events_processed += 1
            handle.callback()
        if until is not None:
            self.now = max(self.now, until)

    def pending_events(self):
        return sum(1 for h in self._pending if not h.cancelled)


#: Few distinct delays, so same-time ties are common (as on the
#: simulator's whole-second beacons, message creations and samples).
DELAYS = st.sampled_from([0.0, 0.25, 1.0, 1.0, 2.0])

#: What one fired event does: the delays of the children it schedules,
#: and which earlier handle (if any) it cancels.
ACTIONS = st.tuples(st.lists(DELAYS, max_size=2), st.none() | st.integers(0, 50))

#: One program step.  ``schedule``: an event ``delay`` after now that,
#: when it fires, performs its action; ``series``: a series whose
#: element j fires ``sum(delays[:j + 1])`` after now (non-decreasing,
#: with repeats) and performs its own action; ``cancel``: cancel an
#: earlier handle (it may have fired already; a series handle drops
#: every element still owed); ``run``: a ``run(until=now + delta)``
#: checkpoint.
STEPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, ACTIONS),
    st.tuples(st.just("series"), st.lists(st.tuples(DELAYS, ACTIONS), max_size=4)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
)


def execute(calendar, program):
    """Drive ``calendar`` through ``program``; return what it observed."""
    fired = []
    handles = []
    checkpoints = []

    def event(tag, action):
        children, cancels = action

        def fire():
            fired.append((tag, calendar.now))
            for j, delay in enumerate(children):
                handles.append(calendar.schedule_at(
                    calendar.now + delay, event((tag, j), ((), None))
                ))
            if cancels is not None and handles:
                handles[cancels % len(handles)].cancel()

        return fire

    def checkpoint():
        checkpoints.append((
            calendar.now,
            calendar.events_processed,
            calendar.pending_events(),
            len(fired),
        ))

    for i, step in enumerate(program):
        if step[0] == "schedule":
            _, delay, action = step
            handles.append(calendar.schedule_at(
                calendar.now + delay, event(i, action)
            ))
        elif step[0] == "series":
            times = list(itertools.accumulate(
                (delay for delay, _ in step[1]), initial=calendar.now
            ))[1:]
            fires = [
                event((i, j), action) for j, (_, action) in enumerate(step[1])
            ]
            series = calendar.schedule_series(
                times, lambda j, fires=fires: fires[j]()
            )
            if series is not None:
                handles.append(series)
        elif step[0] == "cancel":
            if handles:
                handles[step[1] % len(handles)].cancel()
        else:
            calendar.run(until=calendar.now + step[1])
            checkpoint()
    calendar.run()
    checkpoint()
    return fired, checkpoints


class TestCalendarOrderOracle:
    @settings(max_examples=200, deadline=None)
    @given(program=st.lists(STEPS, max_size=40))
    def test_matches_sorted_list_reference(self, program):
        """Random programs fire the same events, in the same order, at
        the same times, with the same counts, as the reference."""
        assert execute(Simulator(), program) == execute(
            SortedListCalendar(), program
        )
