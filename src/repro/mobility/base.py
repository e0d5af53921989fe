"""Mobility model interface.

A mobility model owns a fixed set of node ids and answers position
queries at arbitrary (non-negative) times.  Implementations must be
deterministic functions of their constructor arguments — in particular
of their ``seed`` — so that a scenario re-run reproduces identical
trajectories.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from repro.geometry.primitives import Point
from repro.graphs.udg import NodeId


@dataclass(frozen=True)
class Region:
    """An axis-aligned rectangular deployment region with origin (0, 0)."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("region dimensions must be positive")

    @property
    def area(self) -> float:
        """Region area in square metres."""
        return self.width * self.height

    def contains(self, p: Point, tol: float = 1e-9) -> bool:
        """True when ``p`` lies inside the region (with tolerance)."""
        return (
            -tol <= p.x <= self.width + tol
            and -tol <= p.y <= self.height + tol
        )

    def clamp(self, p: Point) -> Point:
        """Project ``p`` onto the region."""
        return Point(
            min(max(p.x, 0.0), self.width),
            min(max(p.y, 0.0), self.height),
        )


class MobilityModel(abc.ABC):
    """Deterministic trajectory oracle for a fixed node population."""

    def __init__(self, node_ids: Sequence[NodeId], region: Region):
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("node ids must be unique")
        self._node_ids = list(node_ids)
        self.region = region

    @property
    def node_ids(self) -> list[NodeId]:
        """The node population, in a stable order."""
        return list(self._node_ids)

    @abc.abstractmethod
    def position(self, node: NodeId, t: float) -> Point:
        """Position of ``node`` at time ``t`` (seconds, >= 0)."""

    def positions(self, t: float) -> dict[NodeId, Point]:
        """Positions of every node at time ``t``."""
        return {n: self.position(n, t) for n in self._node_ids}

    def validate_time(self, t: float) -> None:
        """Raise ValueError for negative query times."""
        if t < 0:
            raise ValueError(f"time must be non-negative, got {t}")
