"""Static placements and uniform random topologies.

Figure 1 of the paper draws static snapshots (50 uniform nodes, radii
250 m and 100 m in a 1000 m square); :func:`uniform_random_positions`
generates exactly those, and :class:`StaticMobility` serves them to any
code written against the mobility interface.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from repro.geometry.primitives import Point
from repro.graphs.udg import NodeId
from repro.mobility.base import MobilityModel, Region


def uniform_random_positions(
    node_ids: Sequence[NodeId], region: Region, seed: int
) -> dict[NodeId, Point]:
    """Independent uniform positions for each node, keyed by node id."""
    rng = random.Random(seed)
    return {
        node: Point(
            rng.uniform(0.0, region.width), rng.uniform(0.0, region.height)
        )
        for node in node_ids
    }


class StaticMobility(MobilityModel):
    """Nodes that never move."""

    def __init__(
        self,
        region: Region,
        placements: Mapping[NodeId, Point],
    ):
        super().__init__(list(placements), region)
        for node, p in placements.items():
            if not region.contains(p):
                raise ValueError(f"node {node!r} placed outside the region")
        self._placements = dict(placements)

    @classmethod
    def uniform(
        cls, node_ids: Sequence[NodeId], region: Region, seed: int
    ) -> "StaticMobility":
        """Uniform random static topology (paper Figure 1 generator)."""
        return cls(region, uniform_random_positions(node_ids, region, seed))

    def position(self, node: NodeId, t: float) -> Point:
        self.validate_time(t)
        return self._placements[node]
