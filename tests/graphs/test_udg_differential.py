"""Differential tests: the grid-indexed UDG builder vs a brute-force oracle.

Every beacon snapshot is a :func:`unit_disk_graph`, so the grid index
must produce *exactly* the all-pairs edge set — not approximately,
exactly, including pairs at exactly radius distance, coincident points,
and points on cell boundaries or left/below the origin.  These tests
compare the builder with an O(n^2) oracle using the same ``<= r``
predicate over randomized node clouds and adversarial geometries, then
check the snapshot graph's query surface against the oracle too.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.geometry.primitives import Point, distance_sq
from repro.graphs.udg import GridIndex, unit_disk_graph


def oracle_edges(points: list[Point], radius: float) -> set[tuple[int, int]]:
    """Every index pair at distance ``<= radius``, by exhaustive search."""
    r_sq = radius * radius
    return {
        (i, j)
        for i in range(len(points))
        for j in range(i + 1, len(points))
        if distance_sq(points[i], points[j]) <= r_sq
    }


def builder_edges(points: list[Point], radius: float) -> set[tuple[int, int]]:
    """Edge set from :func:`unit_disk_graph`, as sorted index pairs."""
    graph = unit_disk_graph({i: p for i, p in enumerate(points)}, radius)
    return {tuple(sorted(edge)) for edge in graph.edges()}


def index_pairs(
    points: list[Point], cell_size: float, radius: float
) -> list[tuple[int, int]]:
    """Pairs from :meth:`GridIndex.iter_pairs_within`, sorted per pair."""
    index = GridIndex(cell_size=cell_size)
    for i, p in enumerate(points):
        index.insert(i, p)
    return [tuple(sorted(pair)) for pair in index.iter_pairs_within(radius)]


def random_cloud(rng: random.Random, n: int, width: float, height: float):
    return [
        Point(rng.uniform(0.0, width), rng.uniform(0.0, height))
        for _ in range(n)
    ]


def negative_cloud() -> list[Point]:
    rng = random.Random(88)
    return [
        Point(rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0))
        for _ in range(50)
    ]


def grid_line_cloud() -> list[Point]:
    # Multiples of 50 land exactly on cell boundaries for every cell
    # size used below.
    return [Point(50.0 * i, 50.0 * j) for i in range(-3, 4) for j in range(3)]


def coincident_cloud() -> list[Point]:
    return [Point(5.0, 5.0)] * 4 + [Point(-5.0, -5.0)] * 3 + [
        Point(400.0, 400.0)
    ]


class TestBuilderDifferential:
    @pytest.mark.parametrize("trial", range(10))
    def test_random_clouds_match_oracle(self, trial):
        rng = random.Random(1000 + trial)
        n = rng.randint(2, 120)
        width = rng.uniform(50.0, 1500.0)
        height = rng.uniform(50.0, 500.0)
        radius = rng.uniform(10.0, 300.0)
        points = random_cloud(rng, n, width, height)
        assert builder_edges(points, radius) == oracle_edges(points, radius)

    @pytest.mark.parametrize("trial", range(5))
    def test_dense_clusters_match_oracle(self, trial):
        """Many nodes inside one radius — every cell-offset pairing hit."""
        rng = random.Random(2000 + trial)
        radius = 100.0
        points = random_cloud(rng, 60, 2.5 * radius, 2.5 * radius)
        assert builder_edges(points, radius) == oracle_edges(points, radius)

    def test_coincident_points_are_adjacent(self):
        points = [Point(5.0, 5.0)] * 4 + [Point(400.0, 400.0)]
        edges = builder_edges(points, 10.0)
        assert edges == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        assert edges == oracle_edges(points, 10.0)

    def test_pair_at_exactly_radius_distance_is_an_edge(self):
        # The UDG predicate is <= r; a pair at exactly r must connect.
        points = [Point(0.0, 0.0), Point(100.0, 0.0)]
        assert builder_edges(points, 100.0) == {(0, 1)}

    def test_pair_one_ulp_past_radius_is_not_an_edge(self):
        x = math.nextafter(100.0, math.inf)
        points = [Point(0.0, 0.0), Point(x, 0.0)]
        assert builder_edges(points, 100.0) == set()
        assert oracle_edges(points, 100.0) == set()

    def test_diagonal_pair_at_exact_radius(self):
        # 3-4-5 triangle: hypotenuse is exactly representable.
        points = [Point(0.0, 0.0), Point(30.0, 40.0)]
        assert builder_edges(points, 50.0) == {(0, 1)}
        assert oracle_edges(points, 50.0) == {(0, 1)}

    def test_region_boundary_nodes(self):
        """Nodes pinned to corners/borders (clamped mobility output)."""
        rng = random.Random(77)
        width, height = 1500.0, 300.0
        points = [
            Point(0.0, 0.0),
            Point(width, 0.0),
            Point(0.0, height),
            Point(width, height),
            Point(width / 2, 0.0),
            Point(width / 2, height),
            Point(0.0, height / 2),
            Point(width, height / 2),
        ]
        points += random_cloud(rng, 40, width, height)
        for radius in (50.0, 150.0, 300.0):
            assert builder_edges(points, radius) == oracle_edges(
                points, radius
            )

    def test_negative_coordinates(self):
        """Cell indices must floor correctly left/below the origin."""
        points = negative_cloud()
        assert builder_edges(points, 120.0) == oracle_edges(points, 120.0)

    def test_collinear_points_on_grid_lines(self):
        """Points exactly on cell boundaries (multiples of the radius)."""
        radius = 50.0
        points = [Point(radius * i, 0.0) for i in range(6)]
        points += [Point(radius * i, radius) for i in range(6)]
        assert builder_edges(points, radius) == oracle_edges(points, radius)

    def test_empty_cloud(self):
        assert builder_edges([], 10.0) == set()

    def test_single_node(self):
        assert builder_edges([Point(3.0, 4.0)], 10.0) == set()

    def test_rejects_non_positive_radius(self):
        points = {0: Point(0.0, 0.0), 1: Point(1.0, 1.0)}
        with pytest.raises(ValueError):
            unit_disk_graph(points, 0.0)
        with pytest.raises(ValueError):
            unit_disk_graph(points, -5.0)


class TestPairIterationGeometry:
    """``iter_pairs_within`` when the cell size differs from the radius:
    the forward-cell walk must reach across several cells (or stay
    inside one) and still yield each close pair exactly once."""

    @pytest.mark.parametrize(
        "cloud", [negative_cloud, grid_line_cloud, coincident_cloud],
        ids=["negative", "grid-lines", "coincident"],
    )
    @pytest.mark.parametrize(
        "cell_size,radius",
        [(50.0, 50.0), (20.0, 50.0), (125.0, 50.0)],
        ids=["reach-1", "reach-3", "sub-cell"],
    )
    def test_pairs_match_oracle_exactly_once(self, cloud, cell_size, radius):
        points = cloud()
        pairs = index_pairs(points, cell_size, radius)
        assert len(pairs) == len(set(pairs)), "pair yielded twice"
        assert set(pairs) == oracle_edges(points, radius)


class TestSnapshotQueries:
    """The graph every beacon-epoch query answers from, vs the oracle."""

    def build(self, seed: int, n: int, radius: float):
        rng = random.Random(seed)
        points = random_cloud(rng, n, 1000.0, 400.0)
        graph = unit_disk_graph({i: p for i, p in enumerate(points)}, radius)
        return points, graph, oracle_edges(points, radius)

    @staticmethod
    def oracle_adjacency(n: int, edges) -> dict[int, set[int]]:
        adjacency = {i: set() for i in range(n)}
        for u, v in edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        return adjacency

    def test_positions_match(self):
        points, graph, _ = self.build(seed=5, n=80, radius=120.0)
        assert graph.positions == {i: p for i, p in enumerate(points)}

    def test_edges_and_counts_match(self):
        _, graph, oracle = self.build(seed=6, n=80, radius=120.0)
        edges = graph.edges()
        assert len(edges) == len(oracle)
        assert {tuple(sorted(edge)) for edge in edges} == oracle
        assert graph.edge_count() == len(oracle)

    def test_neighbors_and_degree_match(self):
        _, graph, oracle = self.build(seed=7, n=60, radius=150.0)
        expected = self.oracle_adjacency(60, oracle)
        for node in graph.nodes():
            assert graph.neighbors(node) == expected[node]
            assert graph.degree(node) == len(expected[node])

    def test_adjacency_keeps_isolated_nodes(self):
        _, graph, oracle = self.build(seed=8, n=60, radius=40.0)
        expected = self.oracle_adjacency(60, oracle)
        assert graph.adjacency == expected
        assert any(not nbrs for nbrs in expected.values()), (
            "probe should contain isolated nodes"
        )

    def test_k_hop_matches_bfs_oracle(self):
        _, graph, oracle = self.build(seed=9, n=50, radius=100.0)
        adjacency = self.oracle_adjacency(50, oracle)
        for node in (0, 17, 49):
            hops = {node: 0}
            frontier = [node]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in sorted(adjacency[u]):
                        if v not in hops:
                            hops[v] = hops[u] + 1
                            nxt.append(v)
                frontier = nxt
            for k in (1, 2, 3):
                expected = {v for v, h in hops.items() if 0 < h <= k}
                assert graph.k_hop_neighborhood(node, k) == expected

    def test_neighbors_of_unknown_node_is_empty(self):
        _, graph, _ = self.build(seed=10, n=10, radius=50.0)
        assert graph.neighbors(999) == set()
        assert graph.neighbors("nope") == set()
        assert graph.degree(999) == 0

    def test_non_integer_ids(self):
        rng = random.Random(11)
        points = random_cloud(rng, 20, 400.0, 400.0)
        ids = [f"node-{i}" for i in range(20)]
        graph = unit_disk_graph(dict(zip(ids, points)), 150.0)
        expected = {
            tuple(sorted((ids[i], ids[j]))) for i, j in oracle_edges(points, 150.0)
        }
        assert graph.edges() == expected
        assert graph.neighbors("absent") == set()

    def test_mixed_id_types_canonicalize_edges_by_repr(self):
        positions = {0: Point(0.0, 0.0), "gw": Point(10.0, 0.0), 7: Point(20.0, 0.0)}
        graph = unit_disk_graph(positions, 10.0)
        # repr("gw") starts with a quote, which sorts before digits.
        assert graph.edges() == {("gw", 0), ("gw", 7)}
        assert all(repr(u) <= repr(v) for u, v in graph.edges())

    def test_node_order_follows_input_order(self):
        # The beacon loop walks snapshot nodes in this order, so it must
        # be the mobility model's population order, not cell order.
        rng = random.Random(12)
        ids = list(range(40))
        rng.shuffle(ids)
        points = random_cloud(rng, 40, 500.0, 500.0)
        graph = unit_disk_graph(dict(zip(ids, points)), 90.0)
        assert graph.nodes() == ids
        assert list(graph.adjacency) == ids

    def test_subgraph_of_udg_is_udg_of_subset(self):
        points, graph, _ = self.build(seed=13, n=40, radius=130.0)
        keep = set(range(0, 40, 3))
        sub = graph.subgraph(keep)
        direct = unit_disk_graph({i: points[i] for i in sorted(keep)}, 130.0)
        assert sub.positions == direct.positions
        assert sub.adjacency == direct.adjacency

    def test_empty_graph(self):
        graph = unit_disk_graph({}, 10.0)
        assert graph.nodes() == []
        assert graph.edge_count() == 0
        assert graph.edges() == set()

    def test_single_node_graph(self):
        graph = unit_disk_graph({0: Point(1.0, 2.0)}, 10.0)
        assert graph.nodes() == [0]
        assert graph.neighbors(0) == set()
        assert graph.positions[0] == Point(1.0, 2.0)
