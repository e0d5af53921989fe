"""Geometric predicates: orientation, in-circle, turn order, segments.

This module is the one place a geometric sign is decided, and it decides
it exactly.  Each predicate compares its float determinant with
Shewchuk's static error bound for that evaluation (Shewchuk 1997,
"Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
Predicates"): outside the bound the float sign is the exact sign, and
inside it the determinant is recomputed with :class:`fractions.Fraction`.
Random positions almost never take the exact path.  Exactly degenerate
inputs (collinear triples, cocircular quadruples) get the exact zero,
which the callers handle explicitly.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Iterable, TypeVar

from repro.geometry.primitives import Point

K = TypeVar("K")

#: Unit roundoff of IEEE-754 doubles (Shewchuk's epsilon).
_ROUNDOFF = 2.0**-53

#: Shewchuk's stage-A bounds: a float determinant larger in magnitude
#: than this times the sum of its terms' magnitudes has the exact sign.
#: Any other, an overflowed (infinite or NaN) one included, is
#: recomputed exactly.
_ORIENTATION_BOUND = (3.0 + 16.0 * _ROUNDOFF) * _ROUNDOFF
_IN_CIRCLE_BOUND = (10.0 + 96.0 * _ROUNDOFF) * _ROUNDOFF

#: The bounds assume that no product underflows.  While every coordinate
#: difference is at least this large, no product in either determinant
#: leaves the normal range, not even one taken of a difference of
#: products.  A smaller difference, zero included, sends the sign to the
#: exact path.
_TINY = 2.0**-200


class Orientation(enum.IntEnum):
    """Orientation of an ordered point triple ``(a, b, c)``."""

    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


def orientation_value(a: Point, b: Point, c: Point) -> float:
    """Raw signed doubled area of triangle ``abc``, in floating point.

    Positive for counter-clockwise, negative for clockwise.  Its sign is
    not exact; :func:`orientation` is.
    """
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def orientation(a: Point, b: Point, c: Point) -> Orientation:
    """The exact turn ``a -> b -> c``."""
    bx = b.x - a.x
    by = b.y - a.y
    cx = c.x - a.x
    cy = c.y - a.y
    left = bx * cy
    right = by * cx
    det = left - right
    if not (
        abs(det) > _ORIENTATION_BOUND * (abs(left) + abs(right))
        and min(abs(bx), abs(by), abs(cx), abs(cy)) >= _TINY
    ):
        ax, ay = Fraction(a.x), Fraction(a.y)
        bx, by = Fraction(b.x) - ax, Fraction(b.y) - ay
        cx, cy = Fraction(c.x) - ax, Fraction(c.y) - ay
        det = bx * cy - by * cx
    if det > 0:
        return Orientation.COUNTERCLOCKWISE
    if det < 0:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


def _in_circle_det(adx, ady, bdx, bdy, cdx, cdy):
    """The in-circle determinant of the differences to ``d``, evaluated
    in the order Shewchuk's bound is derived for."""
    return (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


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
    det = _in_circle_det(adx, ady, bdx, bdy, cdx, cdy)
    permanent = (
        (abs(bdx * cdy) + abs(cdx * bdy)) * (adx * adx + ady * ady)
        + (abs(cdx * ady) + abs(adx * cdy)) * (bdx * bdx + bdy * bdy)
        + (abs(adx * bdy) + abs(bdx * ady)) * (cdx * cdx + cdy * cdy)
    )
    if not (
        abs(det) > _IN_CIRCLE_BOUND * permanent
        and min(abs(adx), abs(ady), abs(bdx), abs(bdy), abs(cdx), abs(cdy))
        >= _TINY
    ):
        dx, dy = Fraction(d.x), Fraction(d.y)
        det = _in_circle_det(
            *(v for p in (a, b, c) for v in (Fraction(p.x) - dx, Fraction(p.y) - dy))
        )
    return det > 0


def in_circle_any_orientation(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Orientation-independent strict in-circumcircle test."""
    if orientation(a, b, c) == Orientation.CLOCKWISE:
        a, b = b, a
    return in_circle(a, b, c, d)


def first_by_turn(
    origin: Point,
    reference: Point,
    candidates: Iterable[tuple[K, Point]],
    clockwise: bool = False,
) -> K | None:
    """Key of the ``(key, position)`` candidate met first when turning
    from the ray ``origin -> reference`` (counter-clockwise, or clockwise
    with ``clockwise=True``); None when there is none.

    A candidate on the reference ray is met last, after the full turn; of
    candidates in one direction the first listed wins.  A point equal to
    ``origin`` stands for due east, as ``math.atan2(0.0, 0.0) == 0.0``.
    """
    turn = Orientation.CLOCKWISE if clockwise else Orientation.COUNTERCLOCKWISE
    east = Point(origin.x + 1.0, origin.y)
    if reference == origin:
        reference = east
    best, best_point, best_rank = None, origin, 4
    for key, point in candidates:
        side = orientation(origin, reference, point)
        if side is Orientation.COLLINEAR and point == origin:
            point, side = east, orientation(origin, reference, east)
        # Ranks in turn order: the half-plane the turn enters first, the
        # opposite ray, the other half-plane, then the reference ray.
        if side is not Orientation.COLLINEAR:
            rank = 0 if side is turn else 2
        elif reference.x != origin.x:
            rank = 3 if (point.x > origin.x) == (reference.x > origin.x) else 1
        else:
            rank = 3 if (point.y > origin.y) == (reference.y > origin.y) else 1
        if rank < best_rank or (
            rank == best_rank
            and rank in (0, 2)  # in a half-plane: the earlier direction
            and orientation(origin, point, best_point) is turn
        ):
            best, best_point, best_rank = key, point, rank
    return best


def _in_box(a: Point, b: Point, c: Point) -> bool:
    return (
        min(a.x, b.x) <= c.x <= max(a.x, b.x)
        and min(a.y, b.y) <= c.y <= max(a.y, b.y)
    )


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Return True when closed segments ``p1p2`` and ``q1q2`` intersect.

    Shared endpoints count as intersections; collinear overlap counts as
    well.  Used by the planarity checks in the test suite to certify that
    the LDTG construction really produces a planar graph.
    """
    d1 = orientation(q1, q2, p1)
    d2 = orientation(q1, q2, p2)
    d3 = orientation(p1, p2, q1)
    d4 = orientation(p1, p2, q2)
    if d1 != d2 and d3 != d4:
        return True
    # Otherwise they meet only at an endpoint lying on the other segment.
    return (
        (d1 == 0 and _in_box(q1, q2, p1))
        or (d2 == 0 and _in_box(q1, q2, p2))
        or (d3 == 0 and _in_box(p1, p2, q1))
        or (d4 == 0 and _in_box(p1, p2, q2))
    )


def segments_cross_interior(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Return True when the segments cross at a point interior to both.

    Unlike :func:`segments_intersect`, sharing an endpoint does *not*
    count.  This is the predicate that matters for planarity of a graph
    drawing: edges of a planar straight-line graph may share endpoints but
    never cross in their interiors.
    """
    return not {p1, p2} & {q1, q2} and segments_intersect(p1, p2, q1, q2)


def circumcircle(a: Point, b: Point, c: Point) -> tuple[Point, float]:
    """Circumcenter and circumradius of triangle ``abc``.

    Raises :class:`ValueError` for (near-)collinear input, where the
    circumcircle degenerates to a line.  The centre is a point, not a
    sign, so this keeps a conditioning guard: it refuses a triangle
    whose doubled area is below 1e-12 of its terms' size (plus one
    square metre).
    """
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    scale = abs(a.x * b.y) + abs(b.x * c.y) + abs(c.x * a.y) + 1.0
    if abs(d) <= 1e-12 * scale:
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
    sides = {orientation(p, a, b), orientation(p, b, c), orientation(p, c, a)}
    return not {Orientation.CLOCKWISE, Orientation.COUNTERCLOCKWISE} <= sides


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
