"""Tests for the beacon/neighbour service and location tables."""

import pytest

from repro.geometry.primitives import Point
from repro.mobility.base import Region
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.static import StaticMobility
from repro.sim.engine import Simulator
from repro.sim.neighbors import LocationRecord, NeighborService
from repro.sim.radio import RadioConfig

from tests.conftest import build_registry_mobility


def build_static_service(placements, radius=100.0, beacon_interval=1.0):
    region = Region(1000.0, 1000.0)
    sim = Simulator()
    mobility = StaticMobility(region, placements)
    service = NeighborService(
        sim,
        mobility,
        RadioConfig(range_m=radius),
        beacon_interval=beacon_interval,
    )
    return sim, service


class TestSnapshots:
    def test_initial_snapshot_at_time_zero(self):
        _, service = build_static_service(
            {0: Point(0, 0), 1: Point(50, 0), 2: Point(500, 500)}
        )
        assert service.neighbors(0) == {1}
        assert service.neighbors(2) == set()

    def test_neighbor_positions(self):
        _, service = build_static_service(
            {0: Point(0, 0), 1: Point(50, 0)}
        )
        assert service.neighbor_positions(0) == {1: Point(50, 0)}

    def test_k_hop_from_snapshot(self):
        _, service = build_static_service(
            {0: Point(0, 0), 1: Point(90, 0), 2: Point(180, 0)}
        )
        assert service.k_hop(0, 1) == {1}
        assert service.k_hop(0, 2) == {1, 2}

    def test_epoch_increments_with_beacons(self):
        sim, service = build_static_service({0: Point(0, 0)})
        assert service.epoch == 0
        sim.run(until=3.5)
        assert service.epoch == 3

    def test_snapshot_tracks_movement(self):
        region = Region(1000.0, 300.0)
        sim = Simulator()
        mobility = RandomWaypointMobility([0, 1], region, seed=3)
        service = NeighborService(
            sim, mobility, RadioConfig(range_m=150.0), beacon_interval=1.0
        )
        before = service.beacon_position(0)
        sim.run(until=30.0)
        after = service.beacon_position(0)
        assert before != after

    def test_invalid_beacon_interval(self):
        region = Region(100, 100)
        sim = Simulator()
        mobility = StaticMobility(region, {0: Point(0, 0)})
        with pytest.raises(ValueError):
            NeighborService(
                sim, mobility, RadioConfig(), beacon_interval=0.0
            )

    def test_control_bytes_accounted(self):
        counted = []
        region = Region(100, 100)
        sim = Simulator()
        mobility = StaticMobility(
            region, {0: Point(0, 0), 1: Point(10, 0)}
        )
        NeighborService(
            sim,
            mobility,
            RadioConfig(range_m=50.0),
            on_control_bytes=counted.append,
        )
        sim.run(until=5.0)
        assert sum(counted) > 0


class TestSnapshotOverMobility:
    """Each beacon epoch's snapshot is the exact UDG of the model's
    positions at the beacon time, for every registered model."""

    @pytest.mark.parametrize(
        "name",
        [
            "gauss_markov",
            "manhattan",
            "random_walk",
            "random_waypoint",
            "rpgm",
            "static",
            "trace",
        ],
    )
    def test_snapshot_equals_udg_of_beacon_positions(self, name, tmp_path):
        from repro.geometry.primitives import distance_sq
        from repro.mobility.registry import available_models

        assert name in available_models()
        region = Region(800.0, 300.0)
        node_ids = list(range(25))
        radius = 120.0
        mobility = build_registry_mobility(
            name, node_ids, region, 21, tmp_path
        )
        twin = build_registry_mobility(name, node_ids, region, 21, tmp_path)
        sim = Simulator()
        service = NeighborService(
            sim, mobility, RadioConfig(range_m=radius), beacon_interval=2.5
        )
        for until in (1.0, 3.0, 12.0, 41.0):
            sim.run(until=until)
            # Every rebuild stamps each node's own record with its time.
            beacon_time = service.location_of(0, 0).timestamp
            assert beacon_time == 2.5 * service.epoch
            positions = twin.positions(beacon_time)
            assert service.snapshot_graph().positions == positions
            for u in node_ids:
                expected = {
                    v
                    for v in node_ids
                    if v != u
                    and distance_sq(positions[u], positions[v])
                    <= radius * radius
                }
                assert service.neighbors(u) == expected


class TestLdtCache:
    def test_ldt_neighbors_subset_of_radio_neighbors(self):
        placements = {
            i: Point(100.0 * (i % 5), 80.0 * (i // 5)) for i in range(15)
        }
        _, service = build_static_service(placements, radius=200.0)
        for node in placements:
            ldt = service.ldt_neighbors(node)
            assert ldt <= service.neighbors(node)

    def test_ldt_graph_is_planar(self):
        from repro.graphs.faces import is_planar_embedding
        from tests.conftest import random_points

        pts = random_points(30, seed=5)
        placements = {i: p for i, p in enumerate(pts)}
        _, service = build_static_service(placements, radius=250.0)
        service.ldt_neighbors(0)  # force cache build
        assert is_planar_embedding(service.ldt_graph())

    def test_cache_invalidated_on_new_epoch(self):
        region = Region(1000.0, 300.0)
        sim = Simulator()
        mobility = RandomWaypointMobility(list(range(10)), region, seed=9)
        service = NeighborService(
            sim, mobility, RadioConfig(range_m=200.0), beacon_interval=1.0
        )
        first = service.ldt_neighbors(0)
        sim.run(until=20.0)
        second = service.ldt_neighbors(0)
        # Not asserting inequality (could coincide) — asserting that the
        # query works after invalidation and reflects the new snapshot.
        assert second <= service.neighbors(0)
        assert isinstance(first, set)


class TestLocationTables:
    def test_beacons_teach_neighbors_locations(self):
        _, service = build_static_service(
            {0: Point(0, 0), 1: Point(50, 0), 2: Point(500, 500)}
        )
        record = service.location_of(0, 1)
        assert record is not None
        assert record.position == Point(50, 0)
        # Node 2 is out of range of everyone: 0 knows nothing about it.
        assert service.location_of(0, 2) is None

    def test_own_location_always_known(self):
        _, service = build_static_service({0: Point(7, 8)})
        record = service.location_of(0, 0)
        assert record is not None
        assert record.position == Point(7, 8)

    def test_learn_location_fresher_wins(self):
        _, service = build_static_service(
            {0: Point(0, 0), 1: Point(50, 0)}
        )
        stale = LocationRecord(position=Point(1, 1), timestamp=-5.0)
        assert not service.learn_location(0, 1, stale)
        fresh = LocationRecord(position=Point(2, 2), timestamp=99.0)
        assert service.learn_location(0, 1, fresh)
        assert service.location_of(0, 1).position == Point(2, 2)

    def test_learn_location_about_unknown_subject(self):
        _, service = build_static_service(
            {0: Point(0, 0), 1: Point(500, 500)}
        )
        record = LocationRecord(position=Point(3, 3), timestamp=1.0)
        assert service.learn_location(0, 1, record)
        assert service.location_of(0, 1).position == Point(3, 3)

    def test_location_timestamps_refresh_with_beacons(self):
        sim, service = build_static_service(
            {0: Point(0, 0), 1: Point(50, 0)}
        )
        sim.run(until=5.0)
        record = service.location_of(0, 1)
        assert record.timestamp == pytest.approx(5.0)
