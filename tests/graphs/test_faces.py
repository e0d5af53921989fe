"""Tests for planar face traversal (face-routing machinery)."""


from repro.geometry.primitives import Point
from repro.graphs.faces import (
    crossing_edge_pairs,
    enumerate_faces,
    is_planar_embedding,
    next_edge_on_face,
    trace_face,
)
from repro.graphs.udg import SpatialGraph


def square_graph() -> SpatialGraph:
    g = SpatialGraph()
    coords = {
        0: Point(0, 0),
        1: Point(10, 0),
        2: Point(10, 10),
        3: Point(0, 10),
    }
    for n, p in coords.items():
        g.add_node(n, p)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        g.add_edge(u, v)
    return g


def square_with_diagonal() -> SpatialGraph:
    g = square_graph()
    g.add_edge(0, 2)
    return g


class TestNextEdge:
    def test_walks_around_square(self):
        g = square_graph()
        assert next_edge_on_face(g, 0, 1) == 2
        assert next_edge_on_face(g, 1, 2) == 3
        assert next_edge_on_face(g, 2, 3) == 0

    def test_dead_end_doubles_back(self):
        g = SpatialGraph()
        g.add_node(0, Point(0, 0))
        g.add_node(1, Point(10, 0))
        g.add_edge(0, 1)
        assert next_edge_on_face(g, 0, 1) == 0

    def test_isolated_node_returns_none(self):
        g = SpatialGraph()
        g.add_node(0, Point(0, 0))
        g.add_node(1, Point(1, 1))
        assert next_edge_on_face(g, 1, 0) is None

    def test_diagonal_splits_faces(self):
        g = square_with_diagonal()
        # Convention: clockwise=True keeps the traversed face on the
        # RIGHT of each directed edge.  For 1 -> 2 that is the outer
        # face (continue to 3); the opposite orientation turns onto the
        # diagonal, staying on triangle 0-1-2.
        assert next_edge_on_face(g, 1, 2, clockwise=True) == 3
        assert next_edge_on_face(g, 1, 2, clockwise=False) == 0

    def test_exact_turn_breaks_an_atan2_tie(self):
        # Arriving at 0 from 1 (at +x), neighbours 2 and 3 lie within
        # 2e-16 rad of pi from the reverse edge, so math.atan2 gives them
        # the same angle; the right-hand rule's exact turn meets 3 first.
        g = SpatialGraph()
        coords = {
            0: Point(0, 0),
            1: Point(1, 0),
            2: Point(-100, 1e-14),
            3: Point(-100, 2e-14),
        }
        for n, p in coords.items():
            g.add_node(n, p)
        for v in (1, 2, 3):
            g.add_edge(0, v)
        assert next_edge_on_face(g, 1, 0, clockwise=True) == 3


class TestTraceFace:
    def test_square_face_cycle(self):
        g = square_graph()
        walk = trace_face(g, 0, 1)
        assert walk[:4] == [0, 1, 2, 3]

    def test_triangle_face_in_split_square(self):
        g = square_with_diagonal()
        # Face on the right of 1 -> 0 is triangle 0-1-2.
        walk = trace_face(g, 1, 0)
        assert set(walk) == {0, 1, 2}

    def test_max_steps_bounds_walk(self):
        g = square_graph()
        walk = trace_face(g, 0, 1, max_steps=2)
        assert len(walk) <= 4


class TestEnumerateFaces:
    def test_square_has_two_faces(self):
        faces = enumerate_faces(square_graph())
        assert len(faces) == 2  # interior + outer

    def test_split_square_has_three_faces(self):
        faces = enumerate_faces(square_with_diagonal())
        assert len(faces) == 3  # two triangles + outer

    def test_euler_formula(self):
        # v - e + f = 2 for a connected planar graph (counting the
        # outer face).
        for g in (square_graph(), square_with_diagonal()):
            v = len(g.nodes())
            e = g.edge_count()
            f = len(enumerate_faces(g))
            assert v - e + f == 2


class TestPlanarity:
    def test_square_planar(self):
        assert is_planar_embedding(square_graph())

    def test_crossing_diagonals_not_planar(self):
        g = square_graph()
        g.add_edge(0, 2)
        g.add_edge(1, 3)
        assert not is_planar_embedding(g)
        crossings = list(crossing_edge_pairs(g))
        assert len(crossings) == 1

    def test_shared_endpoints_allowed(self):
        g = square_with_diagonal()
        assert is_planar_embedding(g)
        assert list(crossing_edge_pairs(g)) == []
