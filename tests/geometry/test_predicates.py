"""Tests for repro.geometry.predicates."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.predicates import (
    Orientation,
    angle_at,
    circumcircle,
    first_by_turn,
    in_circle,
    in_circle_any_orientation,
    orientation,
    point_in_triangle,
    segments_intersect,
)
from repro.geometry.primitives import Point

coords = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coords, coords)


# -- a test-local exact reference -------------------------------------------


def exact(p):
    return Fraction(p.x), Fraction(p.y)


def exact_orientation(a, b, c):
    """Sign of the doubled area of ``abc``, in rational arithmetic."""
    (ax, ay), (bx, by), (cx, cy) = exact(a), exact(b), exact(c)
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def exact_in_circle(a, b, c, d):
    """Sign of the in-circle determinant: its 3x3 lifted form, expanded
    along the first row, in rational arithmetic."""
    dx, dy = exact(d)
    rows = []
    for p in (a, b, c):
        x, y = exact(p)
        x, y = x - dx, y - dy
        rows.append((x, y, x * x + y * y))
    (r, s, t), (u, v, w), (x, y, z) = rows
    det = r * (v * z - w * y) - s * (u * z - w * x) + t * (u * y - v * x)
    return (det > 0) - (det < 0)


def exact_segments_intersect(p1, p2, q1, q2):
    """Closed segments meet: solve ``p1 + s·(p2 - p1) = q1 + t·(q2 - q1)``
    for ``s, t`` in [0, 1], in rational arithmetic."""
    (px, py), (qx, qy) = exact(p1), exact(q1)
    rx, ry = exact(p2)[0] - px, exact(p2)[1] - py
    sx, sy = exact(q2)[0] - qx, exact(q2)[1] - qy
    wx, wy = qx - px, qy - py
    denom = rx * sy - ry * sx
    if denom:
        s = (wx * sy - wy * sx) / denom
        t = (wx * ry - wy * rx) / denom
        return 0 <= s <= 1 and 0 <= t <= 1
    if wx * ry - wy * rx or wx * sy - wy * sx:
        return False  # parallel lines, or a point off the other's line
    # One line (or one point): compare the extents along an axis that
    # the line is not perpendicular to.
    dx, dy = (rx, ry) if rx or ry else (sx, sy)
    if not (dx or dy):
        return exact(p1) == exact(q1)
    axis = 0 if dx else 1
    p = sorted((exact(p1)[axis], exact(p2)[axis]))
    q = sorted((exact(q1)[axis], exact(q2)[axis]))
    return p[0] <= q[1] and q[0] <= p[1]


#: Powers of two from 2^-1000 to 2^990: scaling a configuration by one
#: keeps its geometry exactly (outside the subnormal range) while its
#: determinants underflow or overflow.
scales = st.integers(min_value=-1000, max_value=990).map(lambda k: 2.0**k)


def scaled(scale, *pts):
    return [Point(p.x * scale, p.y * scale) for p in pts]


def float_point_on(a, b, t):
    """The point at ``t`` along segment ``ab``, rounded to floats."""
    return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


fractions_of_segment = st.floats(min_value=0.01, max_value=0.99)


def four(strategy):
    return st.lists(strategy, min_size=4, max_size=4)


class TestExactAgainstFractions:
    @settings(deadline=None)
    @given(points, points, points)
    def test_orientation_on_any_points(self, a, b, c):
        assert orientation(a, b, c) == exact_orientation(a, b, c)

    @settings(deadline=None)
    @given(points, points, fractions_of_segment, scales)
    def test_orientation_of_a_float_point_on_a_segment(self, a, b, t, scale):
        a, b = scaled(scale, a, b)
        c = float_point_on(a, b, t)
        expected = exact_orientation(a, b, c)
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            assert orientation(x, y, z) == expected
            assert orientation(x, z, y) == -expected

    @settings(deadline=None)
    @given(
        points,
        st.floats(min_value=1e-3, max_value=1e4),
        four(st.floats(min_value=0.0, max_value=2 * math.pi)),
        four(st.floats(min_value=-14.0, max_value=-9.0)),
        four(st.sampled_from((-1.0, 1.0))),
        scales,
    )
    def test_in_circle_near_cocircular(
        self, centre, radius, angles, exponents, signs, scale
    ):
        # Four points within 1e-14 to 1e-9 (relative) of one circle.
        quad = [
            Point(
                centre.x + radius * (1.0 + sign * 10.0**e) * math.cos(angle),
                centre.y + radius * (1.0 + sign * 10.0**e) * math.sin(angle),
            )
            for angle, e, sign in zip(angles, exponents, signs)
        ]
        a, b, c, d = scaled(scale, *quad)
        assert in_circle(a, b, c, d) == (exact_in_circle(a, b, c, d) > 0)
        ccw = exact_orientation(a, b, c) >= 0
        assert in_circle_any_orientation(a, b, c, d) == (
            exact_in_circle(a, b, c, d) * (1 if ccw else -1) > 0
        )

    def test_products_below_the_normal_range(self):
        # Coordinate differences near 2^-520 (a float point on a segment)
        # and 2^-269 (four points near one circle): the products are
        # subnormal, so the float determinant is a few units of the
        # wrong sign while the error bound underflows to zero.
        a = Point(3.774628134407975e-156, 1.6791901803249278e-156)
        b = Point(2.706863347400715e-155, 1.1998200515783126e-155)
        c = Point(1.552962438887371e-155, 6.886535421072243e-156)
        assert orientation(a, b, c) == exact_orientation(a, b, c) == 1
        quad = (
            Point(7.041018347362788e-80, 4.594524848484672e-81),
            Point(6.000370206429142e-80, -9.319894978427982e-82),
            Point(7.711904709438356e-80, 6.989685692046875e-80),
            Point(5.899502944462488e-80, 8.172880065693441e-80),
        )
        assert in_circle(*quad) and exact_in_circle(*quad) == 1

    @settings(deadline=None)
    @given(points, points, points, fractions_of_segment, scales)
    def test_segments_intersect_at_a_t_junction(self, a, b, c, t, scale):
        # Segment m-c ends at a float point m on segment a-b, or just
        # off it on either side.
        a, b, c = scaled(scale, a, b, c)
        m = float_point_on(a, b, t)
        expected = exact_segments_intersect(a, b, m, c)
        assert segments_intersect(a, b, m, c) == expected
        assert segments_intersect(c, m, b, a) == expected


class TestOrientation:
    def test_counterclockwise(self):
        assert (
            orientation(Point(0, 0), Point(1, 0), Point(0, 1))
            is Orientation.COUNTERCLOCKWISE
        )

    def test_clockwise(self):
        assert (
            orientation(Point(0, 0), Point(0, 1), Point(1, 0))
            is Orientation.CLOCKWISE
        )

    def test_collinear(self):
        assert (
            orientation(Point(0, 0), Point(1, 1), Point(2, 2))
            is Orientation.COLLINEAR
        )

    @given(points, points, points)
    def test_swap_flips_orientation(self, a, b, c):
        first = orientation(a, b, c)
        swapped = orientation(a, c, b)
        assert first == -swapped or (
            first is Orientation.COLLINEAR
            and swapped is Orientation.COLLINEAR
        )

    @given(points, points, points)
    def test_cyclic_rotation_preserves_orientation(self, a, b, c):
        assert orientation(a, b, c) == orientation(b, c, a)

    @pytest.mark.parametrize(
        "a, b, c",
        [
            (Point(0.0, 1e-12), Point(2.0, 1.0), Point(0.0, 0.0)),
            (Point(0.0, 1.0), Point(1.0, 0.0), Point(0.0, 1.0 + 1e-12)),
        ],
    )
    def test_near_collinear_triple_agrees_in_every_order(self, a, b, c):
        first = orientation(a, b, c)
        assert orientation(b, c, a) == orientation(c, a, b) == first
        for x, y, z in ((a, c, b), (c, b, a), (b, a, c)):
            assert orientation(x, y, z) == -first


def atan2_first(origin, reference, candidates, clockwise):
    """The float turn order that :func:`first_by_turn` replaced."""
    base = math.atan2(reference.y - origin.y, reference.x - origin.x)
    best, best_delta = None, math.inf
    for key, p in candidates:
        angle = math.atan2(p.y - origin.y, p.x - origin.x)
        delta = ((base - angle) if clockwise else (angle - base)) % (2 * math.pi)
        if delta == 0.0:
            delta = 2 * math.pi
        if delta < best_delta:
            best, best_delta = key, delta
    return best


class TestFirstByTurn:
    O = Point(0.0, 0.0)
    EAST = Point(10.0, 0.0)

    def test_counterclockwise_and_clockwise(self):
        candidates = [("up", Point(0, 5)), ("down", Point(0, -5))]
        assert first_by_turn(self.O, self.EAST, candidates) == "up"
        assert first_by_turn(self.O, self.EAST, candidates, clockwise=True) == "down"

    def test_reference_ray_comes_last_and_its_opposite_halfway(self):
        candidates = [("ray", Point(3, 0)), ("back", Point(-3, 0))]
        assert first_by_turn(self.O, self.EAST, candidates) == "back"
        assert first_by_turn(self.O, self.EAST, candidates, clockwise=True) == "back"
        below = candidates + [("below", Point(1, -1))]
        assert first_by_turn(self.O, self.EAST, below) == "back"
        assert first_by_turn(self.O, self.EAST, below, clockwise=True) == "below"
        assert first_by_turn(self.O, self.EAST, [("ray", Point(3, 0))]) == "ray"

    def test_one_direction_keeps_the_first_listed(self):
        candidates = [("near", Point(1, 1)), ("far", Point(7, 7))]
        assert first_by_turn(self.O, self.EAST, candidates) == "near"
        assert first_by_turn(self.O, self.EAST, candidates[::-1]) == "far"

    def test_origin_stands_for_due_east(self):
        # As math.atan2(0.0, 0.0) == 0.0: a candidate at the origin lies
        # on an eastward reference ray, and a reference at the origin
        # points east.
        candidates = [("here", self.O), ("up", Point(0, 5))]
        assert first_by_turn(self.O, self.EAST, candidates) == "up"
        assert first_by_turn(self.O, self.O, [("up", Point(0, 5))]) == "up"
        assert first_by_turn(self.O, self.O, candidates, clockwise=True) == "up"

    def test_no_candidates(self):
        assert first_by_turn(self.O, self.EAST, []) is None

    @given(
        points,
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2 * math.pi),
                st.floats(min_value=1.0, max_value=500.0),
            ),
            min_size=1,
            max_size=8,
        ),
        st.booleans(),
    )
    def test_matches_atan2_away_from_ties(self, origin, base, polar, clockwise):
        # Directions at least 1e-6 rad apart (and from the reference):
        # far outside atan2's rounding, so both orders must agree.
        turns = sorted([base] + [angle for angle, _ in polar])
        gaps = [b - a for a, b in zip(turns, turns[1:])]
        gaps.append(turns[0] + 2 * math.pi - turns[-1])
        assume(min(gaps) > 1e-6)
        reference = Point(
            origin.x + 100.0 * math.cos(base), origin.y + 100.0 * math.sin(base)
        )
        candidates = [
            (i, Point(origin.x + r * math.cos(a), origin.y + r * math.sin(a)))
            for i, (a, r) in enumerate(polar)
        ]
        assert first_by_turn(origin, reference, candidates, clockwise) == (
            atan2_first(origin, reference, candidates, clockwise)
        )


class TestInCircle:
    def test_center_inside_unit_circumcircle(self):
        a, b, c = Point(1, 0), Point(0, 1), Point(-1, 0)
        assert in_circle(a, b, c, Point(0, 0.0))

    def test_far_point_outside(self):
        a, b, c = Point(1, 0), Point(0, 1), Point(-1, 0)
        assert not in_circle(a, b, c, Point(10, 10))

    def test_point_on_circle_not_strictly_inside(self):
        a, b, c = Point(1, 0), Point(0, 1), Point(-1, 0)
        assert not in_circle(a, b, c, Point(0, -1))

    def test_orientation_independent_variant(self):
        # Clockwise triangle, same circle.
        a, b, c = Point(1, 0), Point(0, 1), Point(-1, 0)
        assert in_circle_any_orientation(a, c, b, Point(0, 0))

    @given(points)
    def test_consistency_with_circumcircle(self, d):
        a, b, c = Point(0, 0), Point(10, 0), Point(0, 10)
        center, radius = circumcircle(a, b, c)
        inside_by_distance = center.distance_to(d) < radius * (1 - 1e-9)
        outside_by_distance = center.distance_to(d) > radius * (1 + 1e-9)
        result = in_circle_any_orientation(a, b, c, d)
        if inside_by_distance:
            assert result
        if outside_by_distance:
            assert not result


class TestCircumcircle:
    def test_right_triangle_circumcenter_is_hypotenuse_midpoint(self):
        center, radius = circumcircle(Point(0, 0), Point(2, 0), Point(0, 2))
        assert center.x == pytest.approx(1.0)
        assert center.y == pytest.approx(1.0)
        assert radius == pytest.approx(math.sqrt(2))

    def test_equilateral_triangle(self):
        h = math.sqrt(3)
        center, radius = circumcircle(Point(0, 0), Point(2, 0), Point(1, h))
        assert center.x == pytest.approx(1.0)
        assert radius == pytest.approx(2 / math.sqrt(3))

    def test_collinear_raises(self):
        with pytest.raises(ValueError):
            circumcircle(Point(0, 0), Point(1, 1), Point(2, 2))

    @given(points, points, points)
    def test_equidistance_property(self, a, b, c):
        try:
            center, radius = circumcircle(a, b, c)
        except ValueError:
            return  # collinear input
        for p in (a, b, c):
            assert center.distance_to(p) == pytest.approx(
                radius, rel=1e-6, abs=1e-6
            )


class TestPointInTriangle:
    def test_inside(self):
        assert point_in_triangle(
            Point(1, 1), Point(0, 0), Point(4, 0), Point(0, 4)
        )

    def test_outside(self):
        assert not point_in_triangle(
            Point(5, 5), Point(0, 0), Point(4, 0), Point(0, 4)
        )

    def test_vertex_counts_as_inside(self):
        assert point_in_triangle(
            Point(0, 0), Point(0, 0), Point(4, 0), Point(0, 4)
        )

    def test_edge_counts_as_inside(self):
        assert point_in_triangle(
            Point(2, 0), Point(0, 0), Point(4, 0), Point(0, 4)
        )


class TestAngleAt:
    def test_right_angle(self):
        assert angle_at(Point(0, 0), Point(1, 0), Point(0, 1)) == pytest.approx(
            math.pi / 2
        )

    def test_straight_angle(self):
        assert angle_at(Point(0, 0), Point(1, 0), Point(-1, 0)) == pytest.approx(
            math.pi
        )

    def test_zero_length_ray_raises(self):
        with pytest.raises(ValueError):
            angle_at(Point(0, 0), Point(0, 0), Point(1, 0))
