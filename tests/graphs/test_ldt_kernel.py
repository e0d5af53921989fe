"""The k-LDTG's per-link empty-circle kernel against Bowyer–Watson.

:func:`repro.graphs.ldt.local_delaunay_graph` asks each frame ``Nk(x)``
"is link uv an edge of A(Nk(x))?" through a per-link kernel instead of
triangulating it.  Here the kernel answers for every UDG link of a
frame and is compared with the oracle, Bowyer–Watson restricted to the
UDG (:func:`repro.graphs.ldt.local_delaunay_edges_of`).  Frames the
kernel cannot settle go to Bowyer–Watson; the ``triangulations``
fixture counts those calls, so each test also pins which path ran.
"""

import math
import random

import pytest

from repro.geometry.primitives import Point, distance_sq
from repro.graphs import ldt
from repro.graphs.udg import unit_disk_graph
from repro.mobility.base import Region
from repro.mobility.random_waypoint import RandomWaypointMobility

RADIUS = 100.0


def rwp_positions(n, seed, t):
    """Random-waypoint positions at the paper's node density (50 nodes
    on 1500 x 300 m), the region scaled up to ``n`` nodes."""
    scale = math.sqrt(n / 50)
    region = Region(1500.0 * scale, 300.0 * scale)
    return RandomWaypointMobility(list(range(n)), region, seed=seed).positions(t)


def kernel_edges(udg, node, k=2):
    """Links of ``node``'s frame that the kernel says are in A(Nk(node))."""
    members = frozenset(udg.k_hop_neighborhood(node, k) | {node})
    frame = ldt._Frame(udg, node, k, members)
    return {
        frozenset((u, v))
        for u, v in udg.edges()
        if u in members and v in members and frame.has_edge(u, v)
    }


@pytest.fixture
def triangulations(monkeypatch):
    """Point counts of the Bowyer–Watson runs made after the fixture."""
    calls = []
    original = ldt.delaunay_edges

    def counted(points):
        calls.append(len(points))
        return original(points)

    monkeypatch.setattr(ldt, "delaunay_edges", counted)
    return calls


def assert_matches_oracle(positions, triangulations, radius=RADIUS, k=2):
    """Kernel == Bowyer–Watson on every frame; returns the frames the
    kernel handed to Bowyer–Watson."""
    udg = unit_disk_graph(positions, radius)
    fallbacks = 0
    for node in udg.nodes():
        expected = ldt.local_delaunay_edges_of(udg, node, k)
        triangulations.clear()
        assert kernel_edges(udg, node, k) == expected, f"frame of node {node}"
        fallbacks += bool(triangulations)
    return fallbacks


class TestRandomFrames:
    @pytest.mark.parametrize(
        "n, seed, t",
        [(50, 1, 0.0), (50, 2, 150.0), (50, 3, 600.0), (400, 1, 40.0), (400, 2, 90.0)],
        ids=["paper-1", "paper-2", "paper-3", "n400-1", "n400-2"],
    )
    def test_every_frame_matches_bowyer_watson(self, n, seed, t, triangulations):
        fallbacks = assert_matches_oracle(rwp_positions(n, seed, t), triangulations)
        # The kernel, not the fallback, answers almost every frame.
        assert fallbacks < n // 5


class TestDegenerateFrames:
    @pytest.mark.parametrize("noise", [1e-9, 1e-6, 1e-3, 1.0, 5.0])
    @pytest.mark.parametrize("apex", [False, True])
    def test_near_collinear(self, noise, apex, triangulations):
        positions = {
            i: Point(12.0 * i, 0.5 * 12.0 * i + noise * (-1) ** i) for i in range(9)
        }
        if apex:
            positions[9] = Point(50.0, 80.0)
        assert_matches_oracle(positions, triangulations, radius=500.0)
        if not apex:
            assert triangulations, "a thin frame must go to Bowyer–Watson"

    def test_flat_frame_with_a_bump_takes_the_fallback(self, triangulations):
        # 17 points within 0.1 mm of a 192 m line, one point 10 cm off it.
        # Bowyer–Watson finds frame-point triangles only near that point;
        # links far from it have a super-triangle vertex as third corner
        # on both sides, and it drops them.
        rng = random.Random(5)
        positions = {i: Point(12.0 * i, rng.uniform(-1e-4, 1e-4)) for i in range(17)}
        positions[17] = Point(102.0, 0.1)
        assert_matches_oracle(positions, triangulations, radius=500.0)
        assert triangulations, "a thin frame must go to Bowyer–Watson"

    def test_sub_metre_frame_takes_the_kernel(self, triangulations):
        # Within a millimetre: the kernel's bounds are scale-free, and
        # Bowyer–Watson's exact predicates have no absolute floor, so
        # the two agree without a fallback.
        rng = random.Random(0)
        positions = {i: Point(rng.uniform(0, 1e-3), rng.uniform(0, 1e-3)) for i in range(10)}
        assert_matches_oracle(positions, triangulations, radius=1.0)
        assert not triangulations

    def test_collinear(self, triangulations):
        positions = {i: Point(7.0 * i, 2.0 * 7.0 * i + 1.0) for i in range(8)}
        assert_matches_oracle(positions, triangulations, radius=500.0)
        assert triangulations

    def test_duplicate_points(self, triangulations):
        positions = {
            0: Point(0.0, 0.0),
            1: Point(40.0, 10.0),
            2: Point(15.0, 45.0),
            3: Point(40.0, 10.0),
            4: Point(60.0, 50.0),
        }
        assert_matches_oracle(positions, triangulations)
        assert triangulations

    def test_two_point_frame(self, triangulations):
        positions = {0: Point(0.0, 0.0), 1: Point(30.0, 40.0), 2: Point(900.0, 0.0)}
        udg = unit_disk_graph(positions, RADIUS)
        assert kernel_edges(udg, 0) == {frozenset((0, 1))}
        assert_matches_oracle(positions, triangulations)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 3), (4, 4)])
    @pytest.mark.parametrize("spacing", [1.0, 10.0, 7.5])
    def test_cocircular_grid_takes_the_fallback(self, shape, spacing, triangulations):
        # Every unit square of a grid is exactly cocircular: the bounds of
        # its diagonals meet, and Bowyer–Watson's insertion order decides.
        positions = {
            (i, j): Point(spacing * i, spacing * j)
            for i in range(shape[0])
            for j in range(shape[1])
        }
        udg = unit_disk_graph(positions, 10.0 * spacing)
        expected = ldt.local_delaunay_edges_of(udg, (0, 0), 2)
        triangulations.clear()
        assert kernel_edges(udg, (0, 0)) == expected
        assert triangulations, "a tie must go to Bowyer–Watson"


class TestSuperTriangle:
    def test_hull_edge_dropped_by_the_super_triangle_stays_dropped(self):
        # a-c is a hull edge of the true Delaunay triangulation: the
        # circle through a and c centred 200 km below them has b and d
        # outside.  Every such circle reaches past Bowyer–Watson's lower
        # super-triangle vertices (about 10 km below), so Bowyer–Watson
        # drops a-c; the kernel keeps those vertices in its pass and must
        # drop it too.
        a, b, c, d = Point(0.0, 0.0), Point(50.0, 0.01), Point(100.0, 0.0), Point(50.0, 40.0)
        positions = {"a": a, "b": b, "c": c, "d": d}
        centre = Point(50.0, -2e5)
        radius_sq = distance_sq(centre, a)
        assert distance_sq(centre, c) == radius_sq
        assert distance_sq(centre, b) > radius_sq and distance_sq(centre, d) > radius_sq

        udg = unit_disk_graph(positions, 150.0)
        assert "c" in udg.neighbors("a")
        link = frozenset(("a", "c"))
        assert link not in ldt.local_delaunay_edges_of(udg, "a", 2)
        assert link not in kernel_edges(udg, "a")
        graph = ldt.local_delaunay_graph(positions, 150.0, udg=udg)
        assert "c" not in graph.neighbors("a")
        assert graph.edge_count() == 5
