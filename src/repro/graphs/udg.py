"""Unit-disk graphs with a uniform-grid spatial index.

The unit-disk graph (UDG) over node positions with radius ``r`` has an
edge between every pair of nodes at distance ``<= r``.  It models the
physical radio connectivity of the paper's scenarios, and every routing
structure (LDTG, Gabriel, RNG) is a subgraph of it.

The grid index buckets positions into cells of side ``r`` so that
neighbour queries touch at most 9 cells; with the paper's 50-node
scenarios this is overkill, but the simulator rebuilds neighbourhoods
every beacon interval over thousands of simulated seconds, so the index
is on the hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping

from repro.geometry.primitives import Point, distance_sq

NodeId = Hashable


@dataclass
class SpatialGraph:
    """An undirected graph whose vertices carry positions.

    Attributes:
        positions: node -> coordinate.
        adjacency: node -> set of adjacent nodes.  Symmetric by
            construction; :meth:`add_edge` maintains the invariant.
    """

    positions: dict[NodeId, Point] = field(default_factory=dict)
    adjacency: dict[NodeId, set[NodeId]] = field(default_factory=dict)

    def add_node(self, node: NodeId, position: Point) -> None:
        """Register ``node`` at ``position`` with no edges."""
        self.positions[node] = position
        self.adjacency.setdefault(node, set())

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Insert the undirected edge ``uv``; both nodes must exist."""
        if u == v:
            raise ValueError("self-loops are not allowed")
        if u not in self.positions or v not in self.positions:
            raise KeyError("both endpoints must be added before the edge")
        self.adjacency[u].add(v)
        self.adjacency[v].add(u)

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Delete edge ``uv`` if present."""
        self.adjacency.get(u, set()).discard(v)
        self.adjacency.get(v, set()).discard(u)

    def neighbors(self, node: NodeId) -> set[NodeId]:
        """Adjacent nodes of ``node`` (empty set when unknown)."""
        return self.adjacency.get(node, set())

    def nodes(self) -> list[NodeId]:
        """All registered nodes."""
        return list(self.positions)

    def edges(self) -> set[tuple[NodeId, NodeId]]:
        """Canonical undirected edge set.

        Node ids may be of mixed types, so edges are canonicalized by
        ``repr`` ordering, which is stable for the int/str ids the
        simulator uses.
        """
        result: set[tuple[NodeId, NodeId]] = set()
        for u, nbrs in self.adjacency.items():
            for v in nbrs:
                edge = (u, v) if repr(u) <= repr(v) else (v, u)
                result.add(edge)
        return result

    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

    def degree(self, node: NodeId) -> int:
        """Degree of ``node``."""
        return len(self.adjacency.get(node, set()))

    def k_hop_neighborhood(self, node: NodeId, k: int) -> set[NodeId]:
        """Nodes reachable within ``k`` hops, *excluding* ``node`` itself."""
        if k < 0:
            raise ValueError("k must be non-negative")
        frontier = {node}
        seen = {node}
        for _ in range(k):
            next_frontier: set[NodeId] = set()
            for u in frontier:
                for v in self.adjacency.get(u, set()):
                    if v not in seen:
                        seen.add(v)
                        next_frontier.add(v)
            if not next_frontier:
                break
            frontier = next_frontier
        seen.discard(node)
        return seen

    def subgraph(self, nodes: Iterable[NodeId]) -> "SpatialGraph":
        """Induced subgraph on ``nodes``."""
        keep = set(nodes)
        sub = SpatialGraph()
        for n in keep:
            if n in self.positions:
                sub.add_node(n, self.positions[n])
        for n in keep:
            for m in self.adjacency.get(n, set()):
                if m in keep:
                    sub.adjacency[n].add(m)
        return sub


class GridIndex:
    """Uniform-grid spatial index for fixed-radius neighbour queries."""

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size = cell_size
        self._cells: dict[tuple[int, int], list[tuple[NodeId, Point]]] = {}

    def _cell_of(self, p: Point) -> tuple[int, int]:
        return (
            int(math.floor(p.x / self.cell_size)),
            int(math.floor(p.y / self.cell_size)),
        )

    def insert(self, node: NodeId, position: Point) -> None:
        """Add a node at ``position``."""
        self._cells.setdefault(self._cell_of(position), []).append(
            (node, position)
        )

    def neighbors_within(
        self, position: Point, radius: float
    ) -> Iterator[tuple[NodeId, Point]]:
        """Yield ``(node, position)`` pairs within ``radius`` of ``position``.

        A node located exactly at ``position`` is also yielded; callers
        filter self-matches by id.
        """
        reach = int(math.ceil(radius / self.cell_size))
        cx, cy = self._cell_of(position)
        r_sq = radius * radius
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                bucket = self._cells.get((cx + dx, cy + dy))
                if not bucket:
                    continue
                for node, p in bucket:
                    if distance_sq(p, position) <= r_sq:
                        yield node, p

    def iter_pairs_within(
        self, radius: float
    ) -> Iterator[tuple[NodeId, NodeId]]:
        """Yield every unordered pair at distance ``<= radius`` exactly once.

        Per-node queries discover each edge twice (once from either
        endpoint), doubling the distance computations on the
        beacon-tick hot path.  This walks each occupied cell once,
        pairing it against itself (index-ordered, so no self-pairs)
        and against its *forward* neighbour cells only — the cells
        ``(dx, dy)`` lexicographically after ``(0, 0)`` — so every
        unordered cell pair, and hence every node pair, is examined
        exactly once.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        reach = int(math.ceil(radius / self.cell_size))
        r_sq = radius * radius
        forward = [
            (dx, dy)
            for dx in range(reach + 1)
            for dy in range(-reach, reach + 1)
            if dx > 0 or dy > 0
        ]
        cells = self._cells
        for (cx, cy), bucket in cells.items():
            for i, (u, pu) in enumerate(bucket):
                for v, pv in bucket[i + 1 :]:
                    if distance_sq(pu, pv) <= r_sq:
                        yield u, v
            for dx, dy in forward:
                other = cells.get((cx + dx, cy + dy))
                if not other:
                    continue
                for u, pu in bucket:
                    for v, pv in other:
                        if distance_sq(pu, pv) <= r_sq:
                            yield u, v


def unit_disk_graph(
    positions: Mapping[NodeId, Point], radius: float
) -> SpatialGraph:
    """Build the unit-disk graph with communication ``radius``.

    Edges connect node pairs at Euclidean distance ``<= radius``.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    graph = SpatialGraph()
    index = GridIndex(cell_size=radius)
    for node, p in positions.items():
        graph.add_node(node, p)
        index.insert(node, p)
    # Each pair is discovered once (see iter_pairs_within) and inserted
    # symmetrically, halving the distance checks of the naive per-node
    # query loop — this rebuild runs every beacon tick.
    adjacency = graph.adjacency
    for u, v in index.iter_pairs_within(radius):
        adjacency[u].add(v)
        adjacency[v].add(u)
    return graph

