"""Tests for repro.geometry.predicates."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.predicates import (
    Orientation,
    angle_at,
    circumcircle,
    in_circle,
    in_circle_any_orientation,
    orientation,
    point_in_triangle,
)
from repro.geometry.primitives import Point

coords = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coords, coords)


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
