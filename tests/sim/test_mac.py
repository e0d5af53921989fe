"""Tests for the radio model and contention MAC."""

import pytest

from repro.geometry.primitives import Point
from repro.seeding import derive_rng
from repro.sim.engine import Simulator
from repro.sim.mac import MacConfig, Medium, NodeMac
from repro.sim.messages import Frame, FrameKind
from repro.sim.radio import RadioConfig


def make_frame(sender, receiver, size=1000, kind=FrameKind.DATA):
    return Frame(
        kind=kind, sender=sender, receiver=receiver, payload=None,
        size_bytes=size,
    )


class TestRadioConfig:
    def test_airtime_at_1mbps(self):
        radio = RadioConfig(data_rate_bps=1_000_000.0)
        assert radio.airtime(1000) == pytest.approx(0.008)

    def test_in_range(self):
        radio = RadioConfig(range_m=100.0)
        assert radio.in_range(Point(0, 0), Point(100, 0))
        assert not radio.in_range(Point(0, 0), Point(100.1, 0))

    def test_carrier_sense_wider_than_range(self):
        radio = RadioConfig(range_m=100.0, carrier_sense_factor=2.2)
        assert radio.carrier_sense_range == pytest.approx(220.0)
        assert radio.in_carrier_sense_range(Point(0, 0), Point(200, 0))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RadioConfig(range_m=0.0)
        with pytest.raises(ValueError):
            RadioConfig(data_rate_bps=-1.0)
        with pytest.raises(ValueError):
            RadioConfig(carrier_sense_factor=0.5)
        with pytest.raises(ValueError):
            RadioConfig().airtime(-1)


class TestMacConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MacConfig(queue_limit=0)
        with pytest.raises(ValueError):
            MacConfig(slot_time=0.0)
        with pytest.raises(ValueError):
            MacConfig(retry_limit=0)
        with pytest.raises(ValueError):
            MacConfig(collision_probability=1.5)


class TestMedium:
    def test_contention_counts_nearby_transmissions(self):
        sim = Simulator()
        radio = RadioConfig(range_m=100.0)
        medium = Medium(sim, radio)
        medium.register("a", Point(0, 0), 0.0, 1.0)
        medium.register("b", Point(50, 0), 0.0, 1.0)
        medium.register("far", Point(10_000, 0), 0.0, 1.0)
        assert medium.contention_at(Point(10, 0)) == 2
        assert medium.contention_at(Point(10, 0), exclude="a") == 1

    def test_future_transmissions_invisible(self):
        sim = Simulator()
        medium = Medium(sim, RadioConfig(range_m=100.0))
        medium.register("a", Point(0, 0), 5.0, 6.0)  # starts later
        assert medium.contention_at(Point(0, 0)) == 0
        assert medium.busy_until(Point(0, 0)) == sim.now

    def test_busy_until_latest_end(self):
        sim = Simulator()
        medium = Medium(sim, RadioConfig(range_m=100.0))
        medium.register("a", Point(0, 0), 0.0, 1.0)
        medium.register("b", Point(10, 0), 0.0, 3.0)
        assert medium.busy_until(Point(0, 0)) == 3.0

    def test_interferers_overlap_window(self):
        sim = Simulator()
        medium = Medium(sim, RadioConfig(range_m=100.0))
        medium.register("a", Point(0, 0), 0.0, 1.0)
        medium.register("b", Point(0, 0), 2.0, 3.0)
        assert medium.interferers_at(Point(0, 0), 0.5, 2.5) == 2
        assert medium.interferers_at(Point(0, 0), 1.2, 1.8) == 0

    def test_expired_transmissions_purged(self):
        sim = Simulator()
        medium = Medium(sim, RadioConfig(range_m=100.0))
        medium.register("a", Point(0, 0), 0.0, 0.5)
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        assert medium.contention_at(Point(0, 0)) == 0
        # The record still overlaps [0, 1); only the purge hides it.
        assert medium.interferers_at(Point(0, 0), 0.0, 1.0) == 0


class _ScanMedium:
    """Slow reference for :class:`Medium`: keep every record, filter on
    each query.  On a monotone clock this is what purging lazily at
    every call leaves: records that ended more than the grace ago are
    gone, and sensing sees only records whose start time has passed."""

    GRACE = 1.0

    def __init__(self, clock, radio):
        self.clock = clock
        self.radio = radio
        self.records = []

    def register(self, sender, position, start_time, end_time):
        self.records.append((sender, position, start_time, end_time))

    def _kept(self, position, exclude):
        horizon = self.clock.now - self.GRACE
        return [
            (start, end)
            for sender, where, start, end in self.records
            if end > horizon
            and (exclude is None or sender != exclude)
            and self.radio.in_carrier_sense_range(where, position)
        ]

    def _on_air(self, position, exclude):
        now = self.clock.now
        return [end for start, end in self._kept(position, exclude)
                if start <= now < end]

    def contention_at(self, position, exclude=None):
        return len(self._on_air(position, exclude))

    def busy_until(self, position, exclude=None):
        return max([self.clock.now, *self._on_air(position, exclude)])

    def interferers_at(self, position, start, end, exclude=None):
        return sum(
            1 for s, e in self._kept(position, exclude)
            if e > start and s < end
        )


class TestMediumAgainstScan:
    """Seeded differential test: :class:`Medium` answers every query as
    the linear scan does, under random registrations and queries on a
    monotone clock (including jumps past the purge grace)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_queries_match_the_scan(self, seed):
        import random
        from types import SimpleNamespace

        rng = random.Random(seed)
        clock = SimpleNamespace(now=0.0)
        radio = RadioConfig(range_m=100.0)
        medium = Medium(clock, radio)
        reference = _ScanMedium(clock, radio)
        senders = [f"n{i}" for i in range(8)]

        def point():
            return Point(rng.uniform(0, 600), rng.uniform(0, 600))

        for _ in range(600):
            roll = rng.random()
            if roll < 0.1:
                clock.now += rng.choice((0.0, 0.4, 1.0, 1.7))
            elif roll < 0.45:
                clock.now += rng.uniform(0.0, 0.02)
                start = clock.now + rng.choice((0.0, rng.uniform(0, 0.05)))
                end = start + rng.uniform(0.001, 0.6)
                record = (rng.choice(senders), point(), start, end)
                medium.register(*record)
                reference.register(*record)
            else:
                where = point()
                exclude = rng.choice((None, *senders))
                assert medium.contention_at(where, exclude) == (
                    reference.contention_at(where, exclude)
                )
                assert medium.busy_until(where, exclude) == (
                    reference.busy_until(where, exclude)
                )
                start = clock.now - rng.uniform(0.0, 1.5)
                end = start + rng.uniform(0.0, 1.0)
                assert medium.interferers_at(where, start, end, exclude) == (
                    reference.interferers_at(where, start, end, exclude)
                )


class _StaticPositions:
    """Position oracle for MAC tests: fixed coordinates per node."""

    def __init__(self, coords):
        self.coords = coords

    def __call__(self, node, t):
        return self.coords[node]


def build_mac_pair(coords, mac_config=None, radio=None):
    sim = Simulator()
    radio = radio or RadioConfig(range_m=100.0)
    medium = Medium(sim, radio)
    delivered = []
    positions = _StaticPositions(coords)
    macs = {}
    for node in coords:
        macs[node] = NodeMac(
            sim=sim,
            medium=medium,
            radio=radio,
            config=mac_config or MacConfig(),
            node_id=node,
            position_fn=positions,
            deliver=delivered.append,
            rng=derive_rng(1, node, "mac-test"),
        )
    return sim, macs, delivered


class TestNodeMac:
    def test_delivers_frame_in_range(self):
        sim, macs, delivered = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0)}
        )
        assert macs["a"].enqueue(make_frame("a", "b"))
        sim.run(until=1.0)
        assert len(delivered) == 1
        assert delivered[0].receiver == "b"

    def test_out_of_range_frame_lost_after_retries(self):
        sim, macs, delivered = build_mac_pair(
            {"a": Point(0, 0), "b": Point(500, 0)}
        )
        macs["a"].enqueue(make_frame("a", "b"))
        sim.run(until=1.0)
        assert delivered == []
        assert macs["a"].stats.frames_lost_range >= 1
        assert macs["a"].stats.retries == MacConfig().retry_limit - 1

    def test_queue_limit_drops(self):
        config = MacConfig(queue_limit=2)
        sim, macs, delivered = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0)}, mac_config=config
        )
        results = [
            macs["a"].enqueue(make_frame("a", "b")) for _ in range(5)
        ]
        # First goes straight to transmission; two queue; rest dropped.
        assert results.count(False) == 2
        assert macs["a"].stats.frames_dropped_queue == 2

    def test_ack_frames_jump_queue(self):
        sim, macs, delivered = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0)}
        )
        macs["a"].enqueue(make_frame("a", "b"))  # in flight
        macs["a"].enqueue(make_frame("a", "b", size=1000))  # queued data
        macs["a"].enqueue(
            make_frame("a", "b", size=20, kind=FrameKind.ACK)
        )
        sim.run(until=1.0)
        kinds = [f.kind for f in delivered]
        assert kinds[1] is FrameKind.ACK  # overtook the queued DATA

    def test_wrong_sender_rejected(self):
        sim, macs, _ = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0)}
        )
        with pytest.raises(ValueError):
            macs["a"].enqueue(make_frame("b", "a"))

    def test_half_duplex_serializes_own_frames(self):
        sim, macs, delivered = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0)}
        )
        for _ in range(3):
            macs["a"].enqueue(make_frame("a", "b"))
        sim.run(until=10.0)
        assert len(delivered) == 3

    def test_deferral_serializes_neighbors(self):
        # Two senders in carrier-sense range: their airtimes should not
        # overlap much; total completion time ~ sum of airtimes.
        sim, macs, delivered = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0), "c": Point(25, 10)}
        )
        macs["a"].enqueue(make_frame("a", "c", size=10_000))
        macs["b"].enqueue(make_frame("b", "c", size=10_000))
        sim.run(until=5.0)
        assert len(delivered) == 2

    def test_unknown_receiver_counts_range_loss(self):
        sim, macs, delivered = build_mac_pair({"a": Point(0, 0)})
        macs["a"].enqueue(make_frame("a", "ghost"))
        sim.run(until=1.0)
        assert delivered == []
        assert macs["a"].stats.frames_lost_range >= 1

    def test_stats_bytes_accumulate(self):
        sim, macs, _ = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0)}
        )
        macs["a"].enqueue(make_frame("a", "b", size=1000))
        sim.run(until=1.0)
        assert macs["a"].stats.bytes_sent >= 1000
