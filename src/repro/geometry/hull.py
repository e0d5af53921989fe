"""Convex hulls via Andrew's monotone chain.

The test suite uses the hull to check Delaunay triangulations against
Euler's formula.  (Bowyer–Watson's super triangle is sized from the
bounding box, not from the hull.)  The chain's turns are exact
(:func:`repro.geometry.predicates.orientation`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.geometry.predicates import Orientation, orientation, orientation_value
from repro.geometry.primitives import Point


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Convex hull in counter-clockwise order, without collinear points.

    Duplicates are removed first.  Degenerate inputs are handled: zero,
    one or two distinct points return the distinct points themselves; a
    fully collinear set returns its two extremes.
    """
    unique = sorted(set(points), key=lambda p: (p.x, p.y))
    if len(unique) <= 2:
        return unique

    ccw = Orientation.COUNTERCLOCKWISE
    lower: list[Point] = []
    for p in unique:
        while len(lower) >= 2 and orientation(lower[-2], lower[-1], p) is not ccw:
            lower.pop()
        lower.append(p)

    upper: list[Point] = []
    for p in reversed(unique):
        while len(upper) >= 2 and orientation(upper[-2], upper[-1], p) is not ccw:
            upper.pop()
        upper.append(p)

    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # Fully collinear input: keep the two extreme points.
        return [unique[0], unique[-1]]
    return hull


def hull_contains(hull: Sequence[Point], p: Point, tol: float = 1e-9) -> bool:
    """Return True when point ``p`` is inside or on a CCW convex hull."""
    n = len(hull)
    if n == 0:
        return False
    if n == 1:
        return hull[0].distance_to(p) <= tol
    if n == 2:
        a, b = hull
        cross = orientation_value(a, b, p)
        if abs(cross) > tol * (a.distance_to(b) + 1.0):
            return False
        dot = (p - a).dot(b - a)
        return -tol <= dot <= (b - a).dot(b - a) + tol
    for i in range(n):
        a = hull[i]
        b = hull[(i + 1) % n]
        if orientation_value(a, b, p) < -tol * (a.distance_to(b) + 1.0):
            return False
    return True
