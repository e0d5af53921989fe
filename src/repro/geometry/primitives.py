"""Basic planar geometry primitives.

Everything in the reproduction that touches coordinates goes through this
module, so the conventions are worth stating once:

- Coordinates are floats in metres; the plane is the standard Euclidean
  plane with x growing right and y growing up.
- ``Point`` is immutable and hashable so it can key dictionaries (node
  positions, triangulation vertices) safely.

Signs (orientation, in-circle, segment intersection, turn order) are
decided exactly in :mod:`repro.geometry.predicates`, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True, slots=True)
class Point:
    """An immutable point (or position vector) in the plane."""

    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def dot(self, other: "Point") -> float:
        """Dot product, treating both points as vectors from the origin."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z component of the 3D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length of the vector from the origin to this point."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)`` — convenient for numpy interop in tests."""
        return (self.x, self.y)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


def distance_sq(a: Point, b: Point) -> float:
    """Squared Euclidean distance.

    Preferred over :func:`distance` inside comparisons because it avoids
    the square root; all proximity-graph constructions use it.
    """
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def midpoint(a: Point, b: Point) -> Point:
    """Midpoint of segment ``ab``."""
    return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)


def angle_between(origin: Point, target: Point) -> float:
    """Angle of the vector ``origin -> target`` in radians, in
    ``(-pi, pi]`` as returned by :func:`math.atan2`."""
    return math.atan2(target.y - origin.y, target.x - origin.x)


def polygon_area(points: Sequence[Point]) -> float:
    """Signed area of a polygon (positive when counter-clockwise)."""
    area = 0.0
    n = len(points)
    for i in range(n):
        j = (i + 1) % n
        area += points[i].cross(points[j])
    return area / 2.0


def centroid(points: Iterable[Point]) -> Point:
    """Arithmetic mean of a non-empty collection of points."""
    xs = 0.0
    ys = 0.0
    count = 0
    for p in points:
        xs += p.x
        ys += p.y
        count += 1
    if count == 0:
        raise ValueError("centroid of an empty point collection is undefined")
    return Point(xs / count, ys / count)


def bounding_box(points: Iterable[Point]) -> tuple[Point, Point]:
    """Axis-aligned bounding box as ``(lower_left, upper_right)``."""
    iterator = iter(points)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("bounding box of an empty point collection is undefined")
    min_x = max_x = first.x
    min_y = max_y = first.y
    for p in iterator:
        min_x = min(min_x, p.x)
        max_x = max(max_x, p.x)
        min_y = min(min_y, p.y)
        max_y = max(max_y, p.y)
    return Point(min_x, min_y), Point(max_x, max_y)
