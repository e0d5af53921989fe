"""Tests for the k-local Delaunay triangulation graph (k-LDTG).

The load-bearing claims from the paper that we verify:

- the LDTG is a subgraph of the UDG (links are physical);
- for k = 2 it is planar on random instances (the paper's justification
  for building it the way it does);
- it preserves UDG connectivity (a spanner must not disconnect);
- the node-local computation agrees with the global construction;
- voting on demand, one node's links at a time through one memo, gives
  each node the adjacency of the full vote, in any query order.
"""

import math
import random

import pytest

from repro.geometry.primitives import Point
from repro.graphs.connectivity import connected_components
from repro.graphs.faces import is_planar_embedding
from repro.graphs.ldt import (
    LdtMemo,
    local_delaunay_edges_of,
    local_delaunay_graph,
    node_local_ldt_neighbors,
)
from repro.graphs.udg import unit_disk_graph
from repro.mobility.base import Region
from repro.mobility.random_waypoint import RandomWaypointMobility

from tests.conftest import random_points


def positions_of(pts):
    return {i: p for i, p in enumerate(pts)}


def node_sets(components):
    return [frozenset(c) for c in components]


def snapshot(name):
    """(positions, radius): 30 uniform points in a 1000 m square at
    r = 180 m for an int seed, else a random-waypoint snapshot at the
    paper's density (50 nodes per 1500 x 300 m, r = 100 m) with 50 or
    400 nodes."""
    if isinstance(name, int):
        return positions_of(random_points(30, name)), 180.0
    n = {"paper-density": 50, "n400-density": 400}[name]
    scale = math.sqrt(n / 50)
    region = Region(1500.0 * scale, 300.0 * scale)
    mobility = RandomWaypointMobility(list(range(n)), region, seed=7)
    return mobility.positions(200.0), 100.0


class TestConstruction:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            local_delaunay_graph({0: Point(0, 0)}, radius=10.0, k=0)

    def test_empty_and_singleton(self):
        assert local_delaunay_graph({}, radius=10.0).edge_count() == 0
        g = local_delaunay_graph({0: Point(0, 0)}, radius=10.0)
        assert g.edge_count() == 0

    def test_two_nodes_in_range_connected(self):
        positions = {0: Point(0, 0), 1: Point(5, 0)}
        g = local_delaunay_graph(positions, radius=10.0)
        assert g.neighbors(0) == {1}

    def test_two_nodes_out_of_range_not_connected(self):
        positions = {0: Point(0, 0), 1: Point(50, 0)}
        g = local_delaunay_graph(positions, radius=10.0)
        assert g.edge_count() == 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("radius", [120.0, 200.0])
    def test_subgraph_of_udg(self, seed, radius):
        pts = random_points(35, seed)
        positions = positions_of(pts)
        udg = unit_disk_graph(positions, radius)
        ldt = local_delaunay_graph(positions, radius, k=2, udg=udg)
        for u, v in ldt.edges():
            assert v in udg.neighbors(u)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("radius", [120.0, 200.0, 350.0])
    def test_planar_for_k2(self, seed, radius):
        pts = random_points(35, seed)
        ldt = local_delaunay_graph(positions_of(pts), radius, k=2)
        assert is_planar_embedding(ldt)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("radius", [120.0, 250.0])
    def test_preserves_connectivity(self, seed, radius):
        pts = random_points(35, seed)
        positions = positions_of(pts)
        udg = unit_disk_graph(positions, radius)
        ldt = local_delaunay_graph(positions, radius, k=2, udg=udg)
        assert node_sets(connected_components(udg)) == node_sets(
            connected_components(ldt)
        )

    @pytest.mark.parametrize("seed", [7, 8])
    def test_dense_graph_sparsified(self, seed):
        # At a radius where the UDG is dense, the planar LDTG must have
        # at most 3n - 6 edges; the UDG will have far more.
        pts = random_points(35, seed, side=500.0)
        positions = positions_of(pts)
        udg = unit_disk_graph(positions, 300.0)
        ldt = local_delaunay_graph(positions, 300.0, k=2, udg=udg)
        n = len(pts)
        assert ldt.edge_count() <= 3 * n - 6
        assert ldt.edge_count() < udg.edge_count()


class TestLocalEdges:
    def test_local_edges_restricted_to_udg(self):
        # Distant points may be Delaunay neighbours geometrically but
        # cannot form radio links.
        positions = {
            0: Point(0, 0),
            1: Point(90, 0),
            2: Point(180, 0),
            3: Point(90, 80),
        }
        udg = unit_disk_graph(positions, 100.0)
        edges = local_delaunay_edges_of(udg, 0, k=2)
        for edge in edges:
            u, v = tuple(edge)
            assert v in udg.neighbors(u)

    @pytest.mark.parametrize("name", [1, 2, 3, "paper-density", "n400-density"])
    def test_node_local_matches_global(self, name):
        # The global graph comes from the per-link kernel, the node-local
        # one from Bowyer–Watson triangulations: two implementations.
        positions, radius = snapshot(name)
        udg = unit_disk_graph(positions, radius)
        global_ldt = local_delaunay_graph(positions, radius, k=2, udg=udg)
        # Up to ~100 nodes per snapshot keeps the N=400 case near a second.
        nodes = udg.nodes()
        for node in nodes[:: max(1, len(nodes) // 100)]:
            local = node_local_ldt_neighbors(udg, node, k=2)
            assert local == global_ldt.neighbors(node), (
                f"node {node}: local {sorted(local)} != "
                f"global {sorted(global_ldt.neighbors(node))}"
            )

    def test_isolated_node_has_no_ldt_neighbors(self):
        positions = {0: Point(0, 0), 1: Point(500, 0), 2: Point(505, 0)}
        udg = unit_disk_graph(positions, 50.0)
        assert node_local_ldt_neighbors(udg, 0, k=2) == set()


def query_orders(nodes):
    """Node order, reversed, and a seeded shuffle."""
    shuffled = list(nodes)
    random.Random(11).shuffle(shuffled)
    return {
        "forward": list(nodes),
        "reversed": list(reversed(nodes)),
        "shuffled": shuffled,
    }


def assert_on_demand_matches_full(positions, radius, k):
    """Each node, asked alone through one memo, gets its full-vote
    adjacency at once, in every query order; then the memo's graph is
    the full graph."""
    udg = unit_disk_graph(positions, radius)
    full = local_delaunay_graph(positions, radius, k=k, udg=udg)
    for order, nodes in query_orders(udg.nodes()).items():
        memo = LdtMemo()
        for node in nodes:
            graph = local_delaunay_graph(
                positions, radius, k=k, udg=udg, nodes=(node,), memo=memo
            )
            assert graph.neighbors(node) == full.neighbors(node), (
                f"{order} order, node {node}"
            )
        assert graph.adjacency == full.adjacency, f"{order} order"


#: The kernel's degenerate frames (tests/graphs/test_ldt_kernel.py):
#: (positions, radius) for each.
DEGENERATE = {
    "collinear-chain": (
        {i: Point(7.0 * i, 2.0 * 7.0 * i + 1.0) for i in range(8)},
        500.0,
    ),
    # Every node in range of every other: one frame, the whole grid.
    "cocircular-grid": (
        {(i, j): Point(7.5 * i, 7.5 * j) for i in range(4) for j in range(4)},
        75.0,
    ),
    # Unit squares and their diagonals in range: a frame per corner.
    "cocircular-grid-local": (
        {(i, j): Point(10.0 * i, 10.0 * j) for i in range(5) for j in range(5)},
        15.0,
    ),
    "duplicate-points": (
        {
            0: Point(0.0, 0.0),
            1: Point(40.0, 10.0),
            2: Point(15.0, 45.0),
            3: Point(40.0, 10.0),
            4: Point(60.0, 50.0),
        },
        100.0,
    ),
    "two-point-frame": (
        {0: Point(0.0, 0.0), 1: Point(30.0, 40.0), 2: Point(900.0, 0.0)},
        100.0,
    ),
}


class TestOnDemand:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", [1, 2, 3, "paper-density", "n400-density"])
    def test_each_node_alone_matches_the_full_vote(self, name, k):
        positions, radius = snapshot(name)
        assert_on_demand_matches_full(positions, radius, k)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_degenerate_inputs_match_the_full_vote(self, case, k):
        positions, radius = DEGENERATE[case]
        assert_on_demand_matches_full(positions, radius, k)


class TestAgainstRdgIntuition:
    def test_triangle_fully_kept(self):
        positions = {
            0: Point(0, 0),
            1: Point(10, 0),
            2: Point(5, 8),
        }
        ldt = local_delaunay_graph(positions, radius=20.0, k=1)
        assert ldt.edge_count() == 3

    def test_crossing_edge_eliminated_in_dense_cluster(self):
        # Four nodes in convex position, all mutually in range: the
        # Delaunay triangulation keeps one diagonal only.
        positions = {
            0: Point(0, 0),
            1: Point(10, 0),
            2: Point(10, 10),
            3: Point(0, 10),
        }
        ldt = local_delaunay_graph(positions, radius=30.0, k=2)
        edges = ldt.edges()
        diagonals = [e for e in edges if e in {(0, 2), (1, 3)}]
        assert len(diagonals) <= 1
        assert ldt.edge_count() <= 5
