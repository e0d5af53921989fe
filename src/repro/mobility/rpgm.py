"""Reference Point Group Mobility: convoys, clusters, partition/merge.

RPGM (Hong et al.) moves *groups*: each group owns a logical reference
point that travels through the region under random waypoint, and every
member tracks its own reference point plus a bounded random offset
inside a disk of radius ``group_radius``.  Groups drift independently,
so the network naturally partitions into clusters that occasionally
meet — the DTN-relevant regime where inter-group delivery must ride on
rare group encounters while intra-group delivery is nearly free.

Member positions are the sum of two piecewise-linear trajectories
(group centre + member offset) clamped to the region, so queries stay
analytic and deterministic; the model never ticks a clock.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from repro.geometry.primitives import Point
from repro.graphs.udg import NodeId
from repro.mobility.base import MobilityModel, Region
from repro.mobility.legs import Leg, LegMobility
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.seeding import derive_rng, derive_seed


class _OffsetWalk(LegMobility):
    """Per-member random motion *inside the offset disk*.

    Positions here are offsets relative to the group centre (the disk
    is centred on the origin), not region coordinates — the region is
    carried only to satisfy the mobility interface.  Each leg travels
    to a fresh uniform point in the disk at ``member_speed``.
    """

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        region: Region,
        seed: int,
        group_radius: float,
        member_speed: float,
    ):
        super().__init__(node_ids, region)
        self.group_radius = group_radius
        self.member_speed = member_speed
        self._rngs: dict[NodeId, random.Random] = {}
        for i, node in enumerate(self.node_ids):
            rng = derive_rng(seed, i, "rpgm-offset")
            self._rngs[node] = rng
            self._seed_legs(node, self._disk_point(rng))

    def _disk_point(self, rng: random.Random) -> Point:
        """Uniform point in the offset disk (centred on the origin)."""
        radius = self.group_radius * math.sqrt(rng.random())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return Point(radius * math.cos(angle), radius * math.sin(angle))

    def _advance(self, node: NodeId) -> bool:
        last = self._legs[node][-1]
        origin = last.p_end
        target = self._disk_point(self._rngs[node])
        travel = max(origin.distance_to(target) / self.member_speed, 1e-9)
        t0 = last.t_end
        self._append_leg(node, Leg(t0, t0 + travel, origin, target))
        return True


class ReferencePointGroupMobility(MobilityModel):
    """Group mobility: RWP group centres plus per-member disk offsets."""

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        region: Region,
        seed: int,
        n_groups: int | None = None,
        group_radius: float = 50.0,
        min_speed: float = 1.0,
        max_speed: float = 20.0,
        pause_time: float = 0.0,
        member_speed: float = 2.0,
    ):
        super().__init__(node_ids, region)
        if n_groups is None:
            n_groups = min(4, len(self._node_ids))
        if not 1 <= n_groups <= len(self._node_ids):
            raise ValueError("need 1 <= n_groups <= number of nodes")
        if group_radius <= 0:
            raise ValueError("group radius must be positive")
        if member_speed <= 0:
            raise ValueError("member speed must be positive")
        self.n_groups = n_groups
        self.group_radius = group_radius
        self.member_speed = member_speed
        #: Group reference points follow random waypoint over the full
        #: region, on an independently derived seed stream.
        self._centers = RandomWaypointMobility(
            list(range(n_groups)),
            region,
            seed=derive_seed(seed, "rpgm-centers"),
            min_speed=min_speed,
            max_speed=max_speed,
            pause_time=pause_time,
        )
        self._offsets = _OffsetWalk(
            self._node_ids, region, seed, group_radius, member_speed
        )
        n = len(self._node_ids)
        self._group: dict[NodeId, int] = {
            node: min(i * n_groups // n, n_groups - 1)
            for i, node in enumerate(self._node_ids)
        }

    def group_of(self, node: NodeId) -> int:
        """Index of the group ``node`` belongs to."""
        return self._group[node]

    def center_position(self, group: int, t: float) -> Point:
        """Reference-point position of ``group`` at time ``t``."""
        return self._centers.position(group, t)

    def position(self, node: NodeId, t: float) -> Point:
        self.validate_time(t)
        if node not in self._group:
            raise KeyError(f"unknown node {node!r}")
        center = self._centers.position(self._group[node], t)
        offset = self._offsets.position(node, t)
        return self.region.clamp(
            Point(center.x + offset.x, center.y + offset.y)
        )
