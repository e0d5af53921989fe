"""Tests for epidemic routing."""

import pytest

from repro.baselines.epidemic import EpidemicConfig, EpidemicProtocol
from repro.experiments.runner import build_world
from repro.experiments.scenarios import Scenario
from repro.geometry.primitives import Point
from repro.mobility.base import Region
from repro.mobility.static import StaticMobility
from repro.sim.messages import Message
from repro.sim.radio import RadioConfig
from repro.sim.world import World, WorldConfig


def build_static_epidemic(placements, radius=100.0, config=None, seed=1):
    region = Region(1000.0, 1000.0)
    mobility = StaticMobility(region, placements)
    world = World(
        mobility,
        lambda node: EpidemicProtocol(config or EpidemicConfig()),
        WorldConfig(radio=RadioConfig(range_m=radius), seed=seed),
    )
    return world


class TestConfig:
    def test_defaults_valid(self):
        EpidemicConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"buffer_limit": 0},
            {"anti_entropy_interval": 0.0},
            {"request_batch": 0},
            {"tick_interval": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EpidemicConfig(**kwargs)


class TestExchange:
    def test_direct_contact_delivery(self):
        world = build_static_epidemic({0: Point(0, 0), 1: Point(50, 0)})
        world.schedule_message(0, 1, at_time=1.0)
        metrics = world.run(until=30.0)
        assert metrics.messages_delivered == 1

    def test_summary_request_data_flow(self):
        world = build_static_epidemic({0: Point(0, 0), 1: Point(50, 0)})
        world.schedule_message(0, 1, at_time=1.0)
        world.run(until=30.0)
        sender = world.protocols[0]
        receiver = world.protocols[1]
        assert sender.summaries_sent > 0
        assert receiver.requests_sent > 0
        assert sender.data_sent >= 1

    def test_messages_never_cleared(self):
        # Epidemic keeps everything (paper: "the messages are never
        # cleared") — both nodes end up holding the message.
        world = build_static_epidemic({0: Point(0, 0), 1: Point(50, 0)})
        world.schedule_message(0, 1, at_time=1.0)
        world.run(until=30.0)
        assert world.protocols[0].storage_occupancy() == 1
        assert world.protocols[1].storage_occupancy() == 1

    def test_flood_reaches_all_nodes_in_component(self):
        placements = {i: Point(80.0 * i, 0.0) for i in range(5)}
        world = build_static_epidemic(placements)
        world.schedule_message(0, 4, at_time=1.0)
        metrics = world.run(until=60.0)
        assert metrics.messages_delivered == 1
        for protocol in world.protocols.values():
            assert protocol.storage_occupancy() == 1

    def test_buffer_limit_fifo_drops(self):
        config = EpidemicConfig(buffer_limit=3)
        world = build_static_epidemic(
            {0: Point(0, 0), 1: Point(50, 0)}, config=config
        )
        for i in range(6):
            world.schedule_message(0, 1, at_time=1.0 + i * 0.1)
        world.run(until=5.0)
        assert world.protocols[0].storage_occupancy() <= 3
        assert world.protocols[0].buffer.evictions >= 3

    def test_anti_entropy_throttles_summaries(self):
        config = EpidemicConfig(anti_entropy_interval=1000.0)
        world = build_static_epidemic(
            {0: Point(0, 0), 1: Point(50, 0)}, config=config
        )
        world.schedule_message(0, 1, at_time=1.0)
        world.run(until=60.0)
        # One initial exchange per direction at most.
        assert world.protocols[0].summaries_sent <= 1

    def test_request_batch_caps_requests(self):
        config = EpidemicConfig(request_batch=2)
        world = build_static_epidemic(
            {0: Point(0, 0), 1: Point(50, 0)}, config=config
        )
        for i in range(5):
            world.schedule_message(0, 1, at_time=1.0 + i * 0.01)
        world.run(until=4.0)
        # Receiver asked for at most 2 messages in its first request.
        assert world.protocols[1].storage_occupancy() <= 5


class TestBufferUids:
    def test_one_frozenset_per_buffer_version(self):
        protocol = EpidemicProtocol(EpidemicConfig(buffer_limit=2))
        empty = protocol.buffer_uids()
        assert empty == frozenset() and protocol.buffer_uids() is empty
        messages = [Message(uid, 0, 1, uid, 0.0) for uid in range(3)]
        protocol.hold(messages[0], hops=0)
        first = protocol.buffer_uids()
        assert first == {0} and protocol.buffer_uids() is first
        protocol.hold(messages[0], hops=1)  # a refresh keeps the snapshot
        assert protocol.buffer_uids() is first
        protocol.hold(messages[1], hops=0)
        protocol.hold(messages[2], hops=0)  # evicts uid 0
        assert protocol.buffer_uids() == {1, 2}
        protocol.buffer.pop(1)
        assert protocol.buffer_uids() == {2}
        protocol.buffer.pop_oldest()
        assert protocol.buffer_uids() == frozenset()


class TestMobileEndToEnd:
    @pytest.mark.slow
    def test_high_delivery_in_paper_scenario(self):
        scenario = Scenario(
            radius=100.0, message_count=30, sim_time=240.0, seed=5
        )
        world = build_world(scenario, "epidemic")
        metrics = world.run(until=scenario.sim_time, protocol_name="epidemic")
        assert metrics.delivery_ratio >= 0.9

    @pytest.mark.slow
    def test_storage_approaches_messages_in_transit(self):
        # Paper 3.7: epidemic storage ~= number of messages in transit.
        scenario = Scenario(
            radius=100.0, message_count=30, sim_time=300.0, seed=5
        )
        world = build_world(scenario, "epidemic")
        metrics = world.run(until=scenario.sim_time, protocol_name="epidemic")
        assert metrics.max_peak_storage >= 25
