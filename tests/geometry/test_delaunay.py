"""Tests for the from-scratch Delaunay triangulation.

The heavyweight correctness checks are (a) the empty-circumcircle
property on random inputs, (b) agreement with scipy.spatial.Delaunay as
an independent oracle, and (c) Euler-formula bookkeeping.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.delaunay import (
    delaunay_edges,
    delaunay_triangulation,
    is_delaunay,
    stretch_factor,
)
from repro.geometry.hull import convex_hull
from repro.geometry.primitives import Point
from repro.geometry.triangulation import normalize_edge

from tests.conftest import random_points


class TestBasicShapes:
    def test_triangle(self):
        tri = delaunay_triangulation(
            [Point(0, 0), Point(1, 0), Point(0, 1)]
        )
        assert tri.triangles == {(0, 1, 2)}

    def test_square_has_two_triangles(self):
        tri = delaunay_triangulation(
            [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        )
        assert len(tri.triangles) == 2
        assert len(tri.edges()) == 5

    def test_fewer_than_three_points(self):
        assert delaunay_triangulation([]).triangles == set()
        assert delaunay_triangulation([Point(0, 0)]).triangles == set()
        assert (
            delaunay_triangulation([Point(0, 0), Point(1, 1)]).triangles
            == set()
        )

    def test_collinear_points_have_no_triangles(self):
        pts = [Point(float(i), 0.0) for i in range(5)]
        assert delaunay_triangulation(pts).triangles == set()

    def test_duplicate_points_collapsed(self):
        tri = delaunay_triangulation(
            [Point(0, 0), Point(0, 0), Point(1, 0), Point(0, 1)]
        )
        assert tri.vertex_count() == 3
        assert len(tri.triangles) == 1

    def test_point_in_triangle_center_makes_three_triangles(self):
        pts = [Point(0, 0), Point(4, 0), Point(2, 3), Point(2, 1)]
        tri = delaunay_triangulation(pts)
        assert len(tri.triangles) == 3


class TestDelaunayProperty:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_empty_circumcircle_on_random_inputs(self, seed):
        pts = random_points(40, seed)
        tri = delaunay_triangulation(pts)
        assert is_delaunay(tri)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_triangle_count_matches_euler(self, seed):
        # For points in general position: t = 2n - 2 - h triangles,
        # where h = hull vertices.
        pts = random_points(30, seed)
        tri = delaunay_triangulation(pts)
        h = len(convex_hull(pts))
        assert len(tri.triangles) == 2 * len(pts) - 2 - h

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_edge_count_matches_euler(self, seed):
        pts = random_points(30, seed)
        tri = delaunay_triangulation(pts)
        h = len(convex_hull(pts))
        assert len(tri.edges()) == 3 * len(pts) - 3 - h

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_random_seeds(self, seed):
        pts = random_points(15, seed)
        tri = delaunay_triangulation(pts)
        assert is_delaunay(tri)


def near_cocircular(seed, n=12):
    """``n`` points within 1e-10 to 1e-7 (relative) of one circle: the
    centre uniform in 1000 x 300 m, the radius 20-100 m, uniform angles,
    and each point pushed in or out by one relative size per set."""
    rng = random.Random(seed)
    cx, cy = rng.uniform(0, 1000), rng.uniform(0, 300)
    radius = rng.uniform(20, 100)
    size = 10 ** rng.uniform(-10, -7)
    points = []
    for _ in range(n):
        angle = rng.uniform(0, 2 * math.pi)
        r = radius * (1 + rng.choice((-1, 1)) * size)
        points.append(Point(cx + r * math.cos(angle), cy + r * math.sin(angle)))
    return points


def points_strictly_inside_circumcircles(tri):
    """(triangle, point) pairs violating the empty-circle property, with
    each circumcircle's centre and radius computed in rational
    arithmetic."""
    exact = [(Fraction(p.x), Fraction(p.y)) for p in tri.points]
    violations = []
    for corners in tri.triangles:
        (ax, ay), (bx, by), (cx, cy) = (exact[i] for i in corners)
        a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
        d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
        uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
        radius_sq = (ax - ux) ** 2 + (ay - uy) ** 2
        violations += [
            (corners, i)
            for i, (px, py) in enumerate(exact)
            if i not in corners and (px - ux) ** 2 + (py - uy) ** 2 < radius_sq
        ]
    return violations


class TestNearCocircular:
    def test_a_dozen_points_near_one_circle(self):
        # Every point is on the hull, so a triangulation has n - 2
        # triangles; the near-ties are decided exactly.
        for seed in range(20):
            tri = delaunay_triangulation(near_cocircular(seed))
            assert len(tri.triangles) == 10, f"seed {seed}"
            assert points_strictly_inside_circumcircles(tri) == [], f"seed {seed}"


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", [31, 32, 33, 34])
    def test_edges_match_scipy(self, seed):
        scipy_spatial = pytest.importorskip("scipy.spatial")
        pts = random_points(50, seed)
        ours = delaunay_edges(pts)
        coords = [p.as_tuple() for p in pts]
        scipy_tri = scipy_spatial.Delaunay(coords)
        theirs = set()
        for simplex in scipy_tri.simplices:
            a, b, c = map(int, simplex)
            theirs.add(normalize_edge(a, b))
            theirs.add(normalize_edge(b, c))
            theirs.add(normalize_edge(a, c))
        assert ours == theirs


class TestDelaunayEdges:
    def test_collinear_fallback_is_a_path(self):
        pts = [Point(0, 0), Point(3, 0), Point(1, 0), Point(2, 0)]
        edges = delaunay_edges(pts)
        # Chain along the line: 0-2, 2-3, 3-1 in original indexing.
        assert edges == {(0, 2), (2, 3), (1, 3)}

    def test_single_point_no_edges(self):
        assert delaunay_edges([Point(0, 0)]) == set()

    def test_two_points_one_edge(self):
        assert delaunay_edges([Point(0, 0), Point(1, 0)]) == {(0, 1)}

    def test_duplicates_map_to_first_occurrence(self):
        pts = [Point(0, 0), Point(0, 0), Point(1, 0), Point(0, 1)]
        edges = delaunay_edges(pts)
        # Vertices {0, 2, 3} (index 1 duplicates 0).
        flattened = {i for e in edges for i in e}
        assert 1 not in flattened
        assert len(edges) == 3


class TestStretchFactor:
    def test_complete_triangle_has_stretch_one(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1)]
        edges = {(0, 1), (0, 2), (1, 2)}
        assert stretch_factor(pts, edges) == pytest.approx(1.0)

    def test_path_graph_stretch(self):
        pts = [Point(0, 0), Point(2, 0), Point(1, 1)]
        detour = {(0, 2), (2, 1)}  # 0 -> 1 only via the top point
        # 0 -> 1 via 2: length 2*sqrt(2) over direct distance 2.
        assert stretch_factor(pts, detour) == pytest.approx(math.sqrt(2))
        # Adding the direct edge drops the stretch to 1.
        assert stretch_factor(pts, detour | {(0, 1)}) == pytest.approx(1.0)

    def test_disconnected_graph_infinite_stretch(self):
        pts = [Point(0, 0), Point(1, 0), Point(5, 5), Point(6, 5)]
        edges = {(0, 1), (2, 3)}
        assert math.isinf(stretch_factor(pts, edges))

    @pytest.mark.parametrize("seed", [41, 42])
    def test_delaunay_stretch_is_small(self, seed):
        # Keil & Gutwin: Delaunay stretch <= ~2.42; random instances
        # typically stay well under 2.
        pts = random_points(30, seed)
        edges = delaunay_edges(pts)
        assert stretch_factor(pts, edges) < 2.42
