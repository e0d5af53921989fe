"""Geometric predicates: orientation, in-circle, circumcircle.

The Delaunay construction only needs two predicates — ``orientation`` and
``in_circle`` — evaluated on coordinates that, in this reproduction, come
from continuous random node placements.  Exactly degenerate inputs
(four co-circular points, three collinear points) therefore have measure
zero, and double-precision determinants with a small relative tolerance
are sufficient.  The tolerance handling below keeps the construction
stable when tests *do* feed it structured grids.
"""

from __future__ import annotations

import enum
import math

from repro.geometry.primitives import Point

#: Relative tolerance used to classify near-zero determinants.  The
#: determinants below are sums of products of coordinates, so the natural
#: scale for "zero" is the magnitude of the largest term.
_EPS = 1e-12


class Orientation(enum.IntEnum):
    """Orientation of an ordered point triple ``(a, b, c)``."""

    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


def orientation_value(a: Point, b: Point, c: Point) -> float:
    """Raw signed doubled area of triangle ``abc``.

    Positive for counter-clockwise, negative for clockwise.
    """
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def orientation(a: Point, b: Point, c: Point) -> Orientation:
    """Classify the turn ``a -> b -> c`` with tolerance for collinearity.

    The determinant and its tolerance are taken about the lexicographically
    smallest of the three points.  Every rotation of the triple then
    computes the same floats, and swapping two points negates them, so a
    near-collinear triple cannot land inside the band for one rotation and
    outside it for another.
    """
    if (b.x, b.y) < (a.x, a.y):
        if (c.x, c.y) < (b.x, b.y):
            a, b, c = c, a, b
        else:
            a, b, c = b, c, a
    elif (c.x, c.y) < (a.x, a.y):
        a, b, c = c, a, b
    value = orientation_value(a, b, c)
    scale = (
        abs(b.x - a.x) * abs(c.y - a.y) + abs(b.y - a.y) * abs(c.x - a.x) + 1.0
    )
    if value > _EPS * scale:
        return Orientation.COUNTERCLOCKWISE
    if value < -_EPS * scale:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


def in_circle(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Return True when ``d`` lies strictly inside the circumcircle of ``abc``.

    ``a, b, c`` must be in counter-clockwise order; callers that cannot
    guarantee this should use :func:`in_circle_any_orientation`.
    """
    adx = a.x - d.x
    ady = a.y - d.y
    bdx = b.x - d.x
    bdy = b.y - d.y
    cdx = c.x - d.x
    cdy = c.y - d.y

    ad_sq = adx * adx + ady * ady
    bd_sq = bdx * bdx + bdy * bdy
    cd_sq = cdx * cdx + cdy * cdy

    det = (
        adx * (bdy * cd_sq - cdy * bd_sq)
        - ady * (bdx * cd_sq - cdx * bd_sq)
        + ad_sq * (bdx * cdy - cdx * bdy)
    )
    scale = (
        abs(adx) * (abs(bdy) * cd_sq + abs(cdy) * bd_sq)
        + abs(ady) * (abs(bdx) * cd_sq + abs(cdx) * bd_sq)
        + ad_sq * (abs(bdx) * abs(cdy) + abs(cdx) * abs(bdy))
        + 1.0
    )
    return det > _EPS * scale


def in_circle_any_orientation(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Orientation-independent strict in-circumcircle test."""
    if orientation(a, b, c) == Orientation.CLOCKWISE:
        a, b = b, a
    return in_circle(a, b, c, d)


def circumcircle(a: Point, b: Point, c: Point) -> tuple[Point, float]:
    """Circumcenter and circumradius of triangle ``abc``.

    Raises :class:`ValueError` for (near-)collinear input, where the
    circumcircle degenerates to a line.
    """
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    scale = abs(a.x * b.y) + abs(b.x * c.y) + abs(c.x * a.y) + 1.0
    if abs(d) <= _EPS * scale:
        raise ValueError("circumcircle of collinear points is undefined")

    a_sq = a.x * a.x + a.y * a.y
    b_sq = b.x * b.x + b.y * b.y
    c_sq = c.x * c.x + c.y * c.y

    ux = (a_sq * (b.y - c.y) + b_sq * (c.y - a.y) + c_sq * (a.y - b.y)) / d
    uy = (a_sq * (c.x - b.x) + b_sq * (a.x - c.x) + c_sq * (b.x - a.x)) / d
    center = Point(ux, uy)
    radius = center.distance_to(a)
    return center, radius


def point_in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    """Return True when ``p`` lies inside or on triangle ``abc``."""
    d1 = orientation_value(p, a, b)
    d2 = orientation_value(p, b, c)
    d3 = orientation_value(p, c, a)
    has_neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
    has_pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
    return not (has_neg and has_pos)


def angle_at(vertex: Point, p: Point, q: Point) -> float:
    """Interior angle at ``vertex`` formed by rays toward ``p`` and ``q``."""
    v1 = p - vertex
    v2 = q - vertex
    n1 = v1.norm()
    n2 = v2.norm()
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("angle undefined when a ray has zero length")
    cos_angle = max(-1.0, min(1.0, v1.dot(v2) / (n1 * n2)))
    return math.acos(cos_angle)
