"""Shared analytic-legs trajectory machinery.

Every mobility model in this package that moves nodes along piecewise
linear trajectories — random waypoint, random walk, Gauss–Markov,
Manhattan grid, ns-2 trace replay — represents a trajectory as a list
of :class:`Leg` segments and answers position queries by binary search
over leg end times.  :class:`LegMobility` owns that representation:
subclasses only implement :meth:`LegMobility._advance`, which appends
the next leg(s) of a node's trajectory on demand.

Query cost is O(log legs); leg lists extend lazily to cover any query
time, so models never tick a clock.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.geometry.primitives import Point
from repro.graphs.udg import NodeId
from repro.mobility.base import MobilityModel, Region


@dataclass(frozen=True)
class Leg:
    """One straight-line segment (or pause) of a trajectory."""

    t_start: float
    t_end: float
    p_start: Point
    p_end: Point

    def position_at(self, t: float) -> Point:
        """Interpolate along the leg; ``t`` must be within the leg."""
        if self.t_end <= self.t_start:
            return self.p_start
        alpha = (t - self.t_start) / (self.t_end - self.t_start)
        alpha = min(1.0, max(0.0, alpha))
        return Point(
            self.p_start.x + alpha * (self.p_end.x - self.p_start.x),
            self.p_start.y + alpha * (self.p_end.y - self.p_start.y),
        )


def reflect(value: float, limit: float) -> float:
    """Reflect a coordinate into ``[0, limit]`` (mirror at the borders)."""
    period = 2.0 * limit
    value = value % period
    if value < 0:
        value += period
    return period - value if value > limit else value


class LegMobility(MobilityModel):
    """Base class for models with lazily materialized piecewise legs."""

    def __init__(self, node_ids, region: Region):
        super().__init__(node_ids, region)
        self._legs: dict[NodeId, list[Leg]] = {}
        self._leg_ends: dict[NodeId, list[float]] = {}

    def _seed_legs(self, node: NodeId, start: Point) -> None:
        """Initialize ``node``'s trajectory with a zero-length leg.

        The seed leg guarantees extension logic always has a previous
        endpoint to continue from.
        """
        self._legs[node] = [Leg(0.0, 0.0, start, start)]
        self._leg_ends[node] = [0.0]

    def _preload_legs(self, node: NodeId, legs: list[Leg]) -> None:
        """Install a complete (finite) trajectory, e.g. from a trace."""
        if not legs:
            raise ValueError(f"node {node!r} has an empty trajectory")
        self._legs[node] = list(legs)
        self._leg_ends[node] = [leg.t_end for leg in legs]

    def _append_leg(self, node: NodeId, leg: Leg) -> None:
        """Extend ``node``'s trajectory by one leg."""
        self._legs[node].append(leg)
        self._leg_ends[node].append(leg.t_end)

    def _advance(self, node: NodeId) -> bool:
        """Append the next leg(s) for ``node``; False when exhausted.

        Finite trajectories (trace replay) return False and the node
        holds its final position forever; generative models append at
        least one leg and return True.
        """
        return False

    def _extend(self, node: NodeId, until: float) -> None:
        """Materialize legs for ``node`` to cover time ``until``."""
        ends = self._leg_ends[node]
        while ends[-1] < until:
            if not self._advance(node):
                break

    def position(self, node: NodeId, t: float) -> Point:
        self.validate_time(t)
        if node not in self._legs:
            raise KeyError(f"unknown node {node!r}")
        self._extend(node, t)
        ends = self._leg_ends[node]
        index = bisect.bisect_left(ends, t)
        index = min(index, len(ends) - 1)
        return self._legs[node][index].position_at(t)

    def waypoints_until(self, node: NodeId, until: float) -> list[Leg]:
        """Materialized legs covering ``[0, until]`` — used by trace export."""
        if node not in self._legs:
            raise KeyError(f"unknown node {node!r}")
        self._extend(node, until)
        return [leg for leg in self._legs[node] if leg.t_start <= until]
