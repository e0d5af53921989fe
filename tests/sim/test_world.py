"""Integration tests for World wiring and NodeApi scoping."""

import gc
import weakref

import pytest

from repro.core.protocol import GLRProtocol
from repro.experiments.runner import available_protocols, build_world
from repro.experiments.scenarios import Scenario
from repro.geometry.primitives import Point
from repro.mobility.base import Region
from repro.mobility.static import StaticMobility
from repro.sim.adversary import AdversaryConfig, available_adversary_modes
from repro.sim.messages import Frame, Message
from repro.sim.radio import RadioConfig
from repro.sim.world import Protocol, World, WorldConfig


class RecorderProtocol(Protocol):
    """Minimal protocol that records every callback."""

    name = "recorder"

    def __init__(self):
        super().__init__()
        self.created: list[Message] = []
        self.frames: list[Frame] = []
        self.started = False

    def start(self) -> None:
        self.started = True

    def on_message_created(self, message: Message) -> None:
        self.created.append(message)

    def on_frame(self, frame: Frame) -> None:
        self.frames.append(frame)

    def storage_occupancy(self) -> int:
        return len(self.created)

    def storage_peak(self) -> int:
        return len(self.created)


def build_recorder_world(placements=None, radius=100.0):
    placements = placements or {0: Point(0, 0), 1: Point(50, 0)}
    region = Region(1000.0, 1000.0)
    mobility = StaticMobility(region, placements)
    world = World(
        mobility,
        lambda node: RecorderProtocol(),
        WorldConfig(radio=RadioConfig(range_m=radius), seed=1),
    )
    return world


class TestWorldLifecycle:
    def test_protocols_started_once(self):
        world = build_recorder_world()
        world.run(until=1.0)
        assert all(p.started for p in world.protocols.values())

    def test_message_creation_dispatched_to_source(self):
        world = build_recorder_world()
        world.schedule_message(0, 1, at_time=0.5)
        world.run(until=1.0)
        assert len(world.protocols[0].created) == 1
        assert len(world.protocols[1].created) == 0

    def test_message_seq_increments_per_source(self):
        world = build_recorder_world()
        world.schedule_message(0, 1, at_time=0.1)
        world.schedule_message(0, 1, at_time=0.2)
        world.run(until=1.0)
        seqs = [m.seq for m in world.protocols[0].created]
        assert seqs == [0, 1]

    def test_unknown_endpoint_rejected(self):
        world = build_recorder_world()
        with pytest.raises(KeyError):
            world.schedule_message(0, 99, at_time=1.0)

    def test_traffic_needs_one_pair_per_time(self):
        world = build_recorder_world()
        pending = world.sim.pending_events()
        with pytest.raises(ValueError, match="pair"):
            world.schedule_traffic([0.5, 0.6], [0, 1])
        assert world.sim.pending_events() == pending

    def test_metrics_record_created_messages(self):
        world = build_recorder_world()
        world.schedule_message(0, 1, at_time=0.5)
        metrics = world.run(until=1.0)
        assert metrics.messages_created == 1
        assert metrics.messages_delivered == 0

    def test_protocol_name_in_metrics(self):
        world = build_recorder_world()
        metrics = world.run(until=1.0, protocol_name="custom")
        assert metrics.protocol == "custom"
        world2 = build_recorder_world()
        assert world2.run(until=1.0).protocol == "recorder"


class TestWorldClose:
    #: Dense enough that every protocol has frames, GLR custody timers
    #: and (past the horizon) traffic still pending when the run ends.
    SCENARIO = Scenario(
        name="close",
        n_nodes=12,
        active_nodes=10,
        region=Region(400.0, 300.0),
        message_count=40,
        sim_time=30.0,
        seed=3,
    )

    @pytest.mark.parametrize("adversary", [None, *available_adversary_modes()])
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_closed_world_is_freed_by_reference_counting(
        self, protocol, adversary
    ):
        scenario = self.SCENARIO.but(
            adversary=AdversaryConfig.of(adversary, 0.25) if adversary else None
        )
        gc.collect()
        gc.disable()
        try:
            world = build_world(scenario, protocol)
            world.run(until=scenario.sim_time)
            world.close()
            protocols = list(world.protocols.values())
            inner = [p.inner for p in protocols if hasattr(p, "inner")]
            refs = [weakref.ref(obj) for obj in (world, *protocols, *inner)]
            del world, protocols, inner
            alive = sum(ref() is not None for ref in refs)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = sorted(
                {
                    type(obj).__qualname__
                    for obj in gc.garbage
                    if type(obj).__module__.startswith("repro.")
                }
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert alive == 0
        assert left == []

    def test_run_after_close_raises(self):
        world = build_recorder_world()
        world.run(until=1.0)
        world.close()
        world.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            world.run(until=2.0)


class TestNodeApi:
    def test_api_scoped_to_node(self):
        world = build_recorder_world(
            {0: Point(0, 0), 1: Point(50, 0), 2: Point(500, 500)}
        )
        api0 = world.protocols[0].api
        api2 = world.protocols[2].api
        assert api0.neighbors() == {1}
        assert api2.neighbors() == set()

    def test_own_position_is_true_position(self):
        world = build_recorder_world()
        assert world.protocols[0].api.position() == Point(0, 0)

    def test_environment_facts(self):
        world = build_recorder_world()
        api = world.protocols[0].api
        assert api.n_nodes == 2
        assert api.region_area == 1_000_000.0

    def test_send_through_mac_delivers(self):
        from repro.sim.messages import data_frame, MessageCopy

        world = build_recorder_world()
        msg = Message.create(source=0, dest=1, seq=0, created_at=0.0)
        copy = MessageCopy(message=msg, branch="max")
        world.protocols[0].api.send(data_frame(0, 1, copy))
        world.run(until=1.0)
        assert len(world.protocols[1].frames) == 1

    def test_node_rngs_differ(self):
        world = build_recorder_world()
        a = world.protocols[0].api.rng.random()
        b = world.protocols[1].api.rng.random()
        assert a != b

    def test_glr_uses_world_config_radius_for_decision(self):
        # End-to-end check that NodeApi exposes the radio range GLR's
        # Algorithm 1 needs.
        region = Region(1500.0, 300.0)
        placements = {i: Point(10.0 * i, 10.0) for i in range(50)}
        mobility = StaticMobility(region, placements)
        world = World(
            mobility,
            lambda node: GLRProtocol(),
            WorldConfig(radio=RadioConfig(range_m=50.0), seed=1),
        )
        world.schedule_message(0, 49, at_time=0.5)
        world.sim.run(until=0.6)
        source = world.protocols[0]
        # Sparse radius at 50 m -> Algorithm 1 spawns 3 copies.
        assert source.dual.occupancy() + len(source.dual.cache) >= 1
        branches = {cid[1] for cid in source.dual.store.keys()}
        assert "max" in branches
