"""Unit and integration tests for the GLR protocol.

The unit layer exercises config validation and source-side behaviour on
tiny static worlds; the integration layer runs small end-to-end
simulations and checks delivery plus the protocol invariants the paper
states (copy counts, custody conservation, storage bounds).
"""

import pytest

from repro.core.location import LocationMode
from repro.core.protocol import GLRConfig, GLRProtocol
from repro.experiments.protocols import ProtocolConfig
from repro.experiments.runner import build_world
from repro.experiments.scenarios import Scenario
from repro.geometry.primitives import Point
from repro.mobility.base import Region
from repro.mobility.static import StaticMobility
from repro.sim.world import World, WorldConfig
from repro.sim.radio import RadioConfig


class TestConfigValidation:
    def test_defaults_valid(self):
        GLRConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"check_interval": 0.0},
            {"connectivity_threshold": 1.5},
            {"sparse_copies": 0},
            {"copies_override": 0},
            {"custody_timeout": 0.0},
            {"storage_limit": 0},
            {"max_face_steps": 0},
            {"face_cooldown": -1.0},
            {"progress_margin_fraction": 1.0},
            {"range_guard_fraction": 0.0},
            {"stale_patience_rounds": 0},
            {"stale_age": 0.0},
            {"failed_hop_exclusion": -1.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GLRConfig(**kwargs)


def build_static_world(placements, radius=100.0, config=None, seed=1):
    region = Region(1000.0, 1000.0)
    mobility = StaticMobility(region, placements)
    world_config = WorldConfig(
        radio=RadioConfig(range_m=radius), seed=seed
    )
    glr_config = config if config is not None else GLRConfig()
    world = World(
        mobility, lambda node: GLRProtocol(glr_config), world_config
    )
    return world


class TestStaticDelivery:
    def test_direct_neighbor_delivery(self):
        world = build_static_world(
            {0: Point(0, 0), 1: Point(50, 0)}
        )
        world.schedule_message(0, 1, at_time=1.0)
        metrics = world.run(until=30.0)
        assert metrics.messages_delivered == 1
        assert metrics.average_hops == 1

    def test_chain_delivery_multi_hop(self):
        placements = {
            i: Point(90.0 * i, 0.0) for i in range(5)
        }  # chain with 90 m spacing, 100 m radius
        world = build_static_world(placements)
        world.schedule_message(0, 4, at_time=1.0)
        metrics = world.run(until=60.0)
        assert metrics.messages_delivered == 1
        assert metrics.average_hops >= 4  # must traverse the chain

    def test_disconnected_static_world_stores_forever(self):
        world = build_static_world(
            {0: Point(0, 0), 1: Point(900, 900)}
        )
        world.schedule_message(0, 1, at_time=1.0)
        metrics = world.run(until=60.0)
        assert metrics.messages_delivered == 0
        # The copy must still be held (store state), not lost.
        assert world.protocols[0].storage_occupancy() >= 1

    def test_source_spawns_configured_copies(self):
        placements = {
            0: Point(0, 0),
            1: Point(80, 0),
            2: Point(60, 60),
            3: Point(0, 80),
            4: Point(500, 500),
        }
        world = build_static_world(
            placements, config=GLRConfig(copies_override=3)
        )
        world.schedule_message(0, 4, at_time=1.0)
        source = world.protocols[0]
        world.sim.run(until=1.5)  # after creation, before much routing
        branches = {
            copy_id[1] for copy_id in source.dual.store.keys()
        } | {copy_id[1] for copy_id in source.dual.cache.keys()}
        assert branches == {"max", "min", "mid"}


class TestAlgorithmOneIntegration:
    def test_sparse_scenario_spawns_three_copies(self):
        scenario = Scenario(
            radius=50.0, message_count=1, sim_time=5.0, seed=3
        )
        world = build_world(scenario, "glr")
        world.run(until=3.0)
        total_copies = sum(
            p.storage_occupancy() for p in world.protocols.values()
        )
        # 3 copies of the single message (minus any already delivered).
        assert total_copies in (0, 1, 2, 3)
        source_copies = [
            p for p in world.protocols.values() if p.dual.occupancy()
        ]
        if source_copies:
            assert max(
                p.dual.occupancy() for p in source_copies
            ) <= 3

    def test_dense_scenario_spawns_single_copy(self):
        scenario = Scenario(
            radius=250.0, message_count=1, sim_time=5.0, seed=3
        )
        world = build_world(scenario, "glr")
        world.run(until=1.2)
        total = sum(
            p.storage_occupancy() for p in world.protocols.values()
        )
        assert total <= 1


class TestEndToEnd:
    @pytest.mark.slow
    def test_delivers_at_100m_with_high_ratio(self):
        scenario = Scenario(
            radius=100.0, message_count=30, sim_time=240.0, seed=5
        )
        world = build_world(scenario, "glr")
        metrics = world.run(until=scenario.sim_time, protocol_name="glr")
        assert metrics.delivery_ratio >= 0.9
        assert metrics.average_latency is not None
        assert metrics.average_latency > 0

    @pytest.mark.slow
    def test_storage_limit_respected(self):
        scenario = Scenario(
            radius=50.0, message_count=60, sim_time=200.0, seed=5
        )
        limit = 5
        world = build_world(scenario, "glr", buffer_limit=limit)
        metrics = world.run(until=scenario.sim_time, protocol_name="glr")
        assert metrics.max_peak_storage <= limit

    @pytest.mark.slow
    def test_custody_off_fire_and_forget(self):
        scenario = Scenario(
            radius=100.0, message_count=20, sim_time=180.0, seed=5
        )
        world = build_world(
            scenario,
            "glr",
            protocol_config=ProtocolConfig.of("glr", custody=False),
        )
        metrics = world.run(until=scenario.sim_time, protocol_name="glr")
        # Without custody some messages may be lost, but the machinery
        # must still deliver a reasonable share.
        assert metrics.delivery_ratio > 0.5
        for protocol in world.protocols.values():
            assert len(protocol.dual.cache) == 0  # cache never used

    @pytest.mark.slow
    def test_oracle_location_at_least_as_good_as_none(self):
        scenario = Scenario(
            radius=100.0, message_count=25, sim_time=240.0, seed=6
        )
        results = {}
        for mode in (LocationMode.ORACLE, LocationMode.NONE):
            world = build_world(
                scenario,
                "glr",
                protocol_config=ProtocolConfig.of("glr", location_mode=mode),
            )
            results[mode] = world.run(
                until=scenario.sim_time, protocol_name="glr"
            )
        oracle, none = results[LocationMode.ORACLE], results[LocationMode.NONE]
        assert oracle.delivery_ratio >= none.delivery_ratio - 0.1
        if (
            oracle.average_latency is not None
            and none.average_latency is not None
        ):
            assert oracle.average_latency <= none.average_latency * 1.5

    @pytest.mark.slow
    def test_hop_counts_exceed_epidemic(self):
        # Paper Table 6: GLR hop counts exceed epidemic's.
        scenario = Scenario(
            radius=100.0, message_count=30, sim_time=240.0, seed=7
        )
        glr = build_world(scenario, "glr").run(
            until=scenario.sim_time, protocol_name="glr"
        )
        epidemic = build_world(scenario, "epidemic").run(
            until=scenario.sim_time, protocol_name="epidemic"
        )
        assert glr.average_hops is not None
        assert epidemic.average_hops is not None
        assert glr.average_hops > epidemic.average_hops

    @pytest.mark.slow
    def test_storage_far_below_epidemic(self):
        # Paper Tables 4/5: GLR needs far less storage than epidemic.
        scenario = Scenario(
            radius=100.0, message_count=40, sim_time=240.0, seed=8
        )
        glr = build_world(scenario, "glr").run(
            until=scenario.sim_time, protocol_name="glr"
        )
        epidemic = build_world(scenario, "epidemic").run(
            until=scenario.sim_time, protocol_name="epidemic"
        )
        assert glr.average_peak_storage < epidemic.average_peak_storage


class TestReproducibility:
    @pytest.mark.slow
    def test_same_seed_same_metrics(self):
        scenario = Scenario(
            radius=100.0, message_count=15, sim_time=120.0, seed=11
        )
        a = build_world(scenario, "glr").run(
            until=scenario.sim_time, protocol_name="glr"
        )
        b = build_world(scenario, "glr").run(
            until=scenario.sim_time, protocol_name="glr"
        )
        assert a.messages_delivered == b.messages_delivered
        assert a.average_latency == b.average_latency
        assert a.frames_sent == b.frames_sent

    @pytest.mark.slow
    def test_different_seed_different_trajectories(self):
        base = Scenario(
            radius=100.0, message_count=15, sim_time=120.0, seed=11
        )
        a = build_world(base, "glr").run(
            until=base.sim_time, protocol_name="glr"
        )
        b = build_world(base.with_seed(99), "glr").run(
            until=base.sim_time, protocol_name="glr"
        )
        assert a.frames_sent != b.frames_sent


class TestTwoFace:
    """Bi-directional face traversal (GLRConfig.two_face)."""

    # A concave static topology: the destination lies across a void
    # ringed by relays, with a long counter-clockwise arc over the top
    # (a1..a4, a delivery dead end) and a short clockwise arc under
    # the bottom (b1-b2) that connects onward through c1-c2.  Greedy
    # forwarding bottoms out at u, so recovery direction decides the
    # route.  Coordinates are offset to sit inside the region.
    _RAW = {
        "u": (0, 0),
        "a1": (-30, 90),
        "a2": (0, 150),
        "a3": (60, 195),
        "a4": (140, 150),
        "b1": (-30, -90),
        "b2": (60, -90),
        "c1": (150, -60),
        "c2": (240, -30),
        "dest": (300, 0),
    }
    PLACEMENTS = {
        name: Point(x + 300.0, y + 300.0) for name, (x, y) in _RAW.items()
    }

    def _run(self, two_face: bool):
        mobility = StaticMobility(Region(1000.0, 1000.0), self.PLACEMENTS)
        config = GLRConfig(two_face=two_face)
        world = World(
            mobility,
            lambda node: GLRProtocol(config),
            WorldConfig(radio=RadioConfig(range_m=100.0), seed=1),
        )
        world.schedule_message("u", "dest", at_time=1.0)
        metrics = world.run(until=120.0)
        return metrics, world.protocols["u"]

    def test_single_direction_takes_the_long_way(self):
        metrics, source = self._run(two_face=False)
        assert metrics.messages_delivered == 1
        assert source.two_face_launches == 0
        assert source.face_entries > 0

    def test_two_face_launches_mirror_walk(self):
        metrics, source = self._run(two_face=True)
        assert metrics.messages_delivered == 1
        assert source.two_face_launches > 0

    def test_two_face_beats_single_direction(self):
        single, _ = self._run(two_face=False)
        double, _ = self._run(two_face=True)
        # The clockwise twin exits the face after two hops and delivers
        # through the bottom chain; the counter-clockwise-only walk
        # dead-ends at the top and must circumnavigate.
        assert double.average_hops < single.average_hops
        assert double.average_latency < single.average_latency

    def test_two_face_deterministic(self):
        a, _ = self._run(two_face=True)
        b, _ = self._run(two_face=True)
        assert a.average_latency == b.average_latency
        assert a.frames_sent == b.frames_sent

    def test_two_face_default_off(self):
        assert GLRConfig().two_face is False

    def test_two_face_sweepable(self):
        from repro.experiments.protocols import ProtocolConfig

        config = ProtocolConfig.of("glr", two_face=True)
        assert config.build().two_face is True
