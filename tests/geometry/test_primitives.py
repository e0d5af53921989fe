"""Tests for repro.geometry.primitives."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.predicates import segments_cross_interior, segments_intersect
from repro.geometry.primitives import (
    Point,
    angle_between,
    bounding_box,
    centroid,
    distance,
    distance_sq,
    midpoint,
    polygon_area,
)

coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coords, coords)


class TestPoint:
    def test_iteration_yields_xy(self):
        assert list(Point(1.0, 2.0)) == [1.0, 2.0]

    def test_addition(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)

    def test_subtraction(self):
        assert Point(3, 4) - Point(1, 2) == Point(2, 2)

    def test_scalar_multiplication_both_sides(self):
        assert Point(1, 2) * 3 == Point(3, 6)
        assert 3 * Point(1, 2) == Point(3, 6)

    def test_dot_product(self):
        assert Point(1, 2).dot(Point(3, 4)) == 11

    def test_cross_product_sign(self):
        assert Point(1, 0).cross(Point(0, 1)) > 0
        assert Point(0, 1).cross(Point(1, 0)) < 0

    def test_norm(self):
        assert Point(3, 4).norm() == pytest.approx(5.0)

    def test_points_are_hashable_and_equal_by_value(self):
        assert {Point(1, 2), Point(1, 2)} == {Point(1, 2)}

    def test_as_tuple(self):
        assert Point(1.5, 2.5).as_tuple() == (1.5, 2.5)


class TestDistance:
    def test_distance_known_value(self):
        assert distance(Point(0, 0), Point(3, 4)) == pytest.approx(5.0)

    def test_distance_is_zero_for_same_point(self):
        assert distance(Point(7, -2), Point(7, -2)) == 0.0

    @given(points, points)
    def test_distance_symmetry(self, a, b):
        assert distance(a, b) == pytest.approx(distance(b, a))

    @given(points, points)
    def test_distance_sq_consistent_with_distance(self, a, b):
        assert distance_sq(a, b) == pytest.approx(distance(a, b) ** 2, rel=1e-9)

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6


class TestMidpointAndAngles:
    def test_midpoint(self):
        assert midpoint(Point(0, 0), Point(2, 4)) == Point(1, 2)

    @given(points, points)
    def test_midpoint_equidistant(self, a, b):
        m = midpoint(a, b)
        assert distance(a, m) == pytest.approx(distance(b, m), abs=1e-6)

    def test_angle_between_axes(self):
        assert angle_between(Point(0, 0), Point(1, 0)) == pytest.approx(0.0)
        assert angle_between(Point(0, 0), Point(0, 1)) == pytest.approx(
            math.pi / 2
        )
        assert angle_between(Point(0, 0), Point(-1, 0)) == pytest.approx(
            math.pi
        )


class TestSegments:
    def test_crossing_segments_intersect(self):
        assert segments_intersect(
            Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0)
        )

    def test_parallel_segments_do_not_intersect(self):
        assert not segments_intersect(
            Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)
        )

    def test_shared_endpoint_counts_as_intersection(self):
        assert segments_intersect(
            Point(0, 0), Point(1, 1), Point(1, 1), Point(2, 0)
        )

    def test_collinear_overlap_intersects(self):
        assert segments_intersect(
            Point(0, 0), Point(2, 0), Point(1, 0), Point(3, 0)
        )

    def test_collinear_disjoint_does_not_intersect(self):
        assert not segments_intersect(
            Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)
        )

    def test_interior_crossing_detected(self):
        assert segments_cross_interior(
            Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0)
        )

    def test_shared_endpoint_not_interior_crossing(self):
        assert not segments_cross_interior(
            Point(0, 0), Point(1, 1), Point(1, 1), Point(2, 0)
        )

    def test_t_junction_is_interior_crossing(self):
        # q1q2 ends in the middle of p1p2: counts (edges of a planar
        # graph may only meet at shared vertices).
        assert segments_cross_interior(
            Point(0, 0), Point(2, 0), Point(1, -1), Point(1, 0)
        )


class TestPolygonArea:
    def test_unit_square_ccw_positive(self):
        square = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        assert polygon_area(square) == pytest.approx(1.0)

    def test_clockwise_negative(self):
        square = [Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0)]
        assert polygon_area(square) == pytest.approx(-1.0)

    def test_triangle(self):
        tri = [Point(0, 0), Point(4, 0), Point(0, 3)]
        assert polygon_area(tri) == pytest.approx(6.0)


class TestCentroidAndBox:
    def test_centroid_of_square(self):
        square = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        assert centroid(square) == Point(1, 1)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_bounding_box(self):
        lo, hi = bounding_box([Point(1, 5), Point(-2, 3), Point(4, 0)])
        assert lo == Point(-2, 0)
        assert hi == Point(4, 5)

    def test_bounding_box_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_box([])
