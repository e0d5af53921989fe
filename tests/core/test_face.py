"""Tests for face-routing hop selection."""


from repro.core.face import first_face_hop, next_face_hop
from repro.geometry.primitives import Point, distance


class TestFirstFaceHop:
    def test_no_neighbors_returns_none(self):
        assert first_face_hop(Point(0, 0), Point(100, 0), {}) is None

    def test_picks_first_ccw_from_destination_ray(self):
        node = Point(0, 0)
        dest = Point(100, 0)  # ray points +x
        neighbors = {
            "up": Point(0, 10),  # 90° CCW from ray
            "down": Point(0, -10),  # 270° CCW from ray
        }
        assert first_face_hop(node, dest, neighbors) == "up"

    def test_neighbor_straight_toward_dest_not_zero_delta(self):
        # A neighbour exactly on the destination ray gets delta 2π, so a
        # slightly-CCW neighbour wins (the straight one would have been
        # a greedy candidate anyway).
        node = Point(0, 0)
        dest = Point(100, 0)
        neighbors = {
            "straight": Point(10, 0),
            "ccw": Point(10, 1),
        }
        assert first_face_hop(node, dest, neighbors) == "ccw"

    def test_single_neighbor_chosen(self):
        assert (
            first_face_hop(
                Point(0, 0), Point(100, 0), {"only": Point(-5, -5)}
            )
            == "only"
        )

    def test_exact_turn_breaks_an_atan2_tie(self):
        # Both neighbours lie within 2e-16 rad of pi from the ray toward
        # +x, so math.atan2 gives them the same angle; the exact turn
        # order meets (-100, 2e-14) first, counter-clockwise.
        neighbors = {"near": Point(-100, 1e-14), "far": Point(-100, 2e-14)}
        assert first_face_hop(Point(0, 0), Point(1, 0), neighbors) == "far"
        mirrored = {"near": Point(-100, -1e-14), "far": Point(-100, -2e-14)}
        assert (
            first_face_hop(Point(0, 0), Point(1, 0), mirrored, clockwise=True)
            == "far"
        )


class TestNextFaceHop:
    def test_continues_around_face(self):
        # Arrived along (0,0) -> (10,0); faces-on-right traversal picks
        # the first neighbour counter-clockwise from the reverse edge,
        # which is the diagonal (225° CCW from the back-pointing ray)
        # before the vertical neighbour (270°).
        node = Point(10, 0)
        prev_pos = Point(0, 0)
        neighbors = {
            "prev": Point(0, 0),
            "up": Point(10, 10),
            "diag": Point(20, 10),
        }
        nxt = next_face_hop(node, prev_pos, neighbors, prev_id="prev")
        assert nxt == "diag"

    def test_dead_end_doubles_back(self):
        node = Point(10, 0)
        prev_pos = Point(0, 0)
        neighbors = {"prev": Point(0, 0)}
        assert (
            next_face_hop(node, prev_pos, neighbors, prev_id="prev")
            == "prev"
        )

    def test_no_neighbors_returns_none(self):
        assert next_face_hop(Point(0, 0), Point(1, 0), {}, "prev") is None

    def test_prev_not_in_neighbors_dead_end_none(self):
        # Previous node left range and nothing else is around.
        assert (
            next_face_hop(Point(0, 0), Point(1, 0), {}, prev_id="gone")
            is None
        )

    def test_traversal_is_deterministic(self):
        node = Point(0, 0)
        prev_pos = Point(-10, 0)
        neighbors = {
            "a": Point(10, 1),
            "b": Point(10, -1),
            "prev": Point(-10, 0),
        }
        picks = {
            next_face_hop(node, prev_pos, neighbors, "prev")
            for _ in range(5)
        }
        assert len(picks) == 1


class TestClockwiseVariants:
    def test_first_hop_mirror(self):
        # The CW entry is the mirror image of the CCW entry: with one
        # neighbour above the destination ray and one below, CCW picks
        # the upper, CW the lower.
        node = Point(0, 0)
        dest = Point(100, 0)
        neighbors = {"up": Point(0, 10), "down": Point(0, -10)}
        assert first_face_hop(node, dest, neighbors) == "up"
        assert (
            first_face_hop(node, dest, neighbors, clockwise=True) == "down"
        )

    def test_first_hop_cw_straight_neighbor_not_zero_delta(self):
        node = Point(0, 0)
        dest = Point(100, 0)
        neighbors = {"straight": Point(10, 0), "cw": Point(10, -1)}
        assert first_face_hop(node, dest, neighbors, clockwise=True) == "cw"

    def test_next_hop_mirror(self):
        node = Point(10, 0)
        prev_pos = Point(0, 0)
        neighbors = {
            "prev": Point(0, 0),
            "up": Point(10, 10),
            "down": Point(10, -10),
        }
        assert (
            next_face_hop(node, prev_pos, neighbors, prev_id="prev")
            == "down"
        )
        assert (
            next_face_hop(
                node, prev_pos, neighbors, prev_id="prev", clockwise=True
            )
            == "up"
        )

    def test_cw_dead_end_doubles_back(self):
        node = Point(10, 0)
        neighbors = {"prev": Point(0, 0)}
        assert (
            next_face_hop(
                node, Point(0, 0), neighbors, prev_id="prev", clockwise=True
            )
            == "prev"
        )


def _walk_face(positions, adjacency, start, dest, clockwise, max_hops=50):
    """Walk one face from ``start`` until a node beats the entry
    distance, returning (hops, exit node).  Pure-function replica of the
    copy-carried walk the protocol performs hop by hop."""
    start_distance = distance(positions[start], dest)

    def nbrs(node):
        return {n: positions[n] for n in adjacency[node]}

    current = first_face_hop(
        positions[start], dest, nbrs(start), clockwise=clockwise
    )
    assert current is not None
    prev, hops = start, 1
    while distance(positions[current], dest) >= start_distance:
        if hops >= max_hops:
            return hops, None
        nxt = next_face_hop(
            positions[current],
            positions[prev],
            nbrs(current),
            prev,
            clockwise=clockwise,
        )
        assert nxt is not None
        prev, current = current, nxt
        hops += 1
    return hops, current


class TestTwoFaceGolden:
    """2FACE on a planar probe graph: the walks traverse the same face
    in opposite directions, and taking whichever finishes first beats
    the single-direction walk's hop count."""

    # A ring face around a void between the entry node and the
    # destination: four hops over the top (the CCW side), two hops
    # under the bottom (the CW side).  Every node on the ring except
    # the exits stays at least the entry distance (10) from the
    # destination, so neither walk exits early.
    POSITIONS = {
        "u": Point(0, 0),
        "a1": Point(-1, 3),
        "a2": Point(0, 5),
        "a3": Point(2, 6.5),
        "a4": Point(5, 5),
        "b1": Point(-1, -3),
        "b2": Point(4, -3),
    }
    ADJACENCY = {
        "u": ("a1", "b1"),
        "a1": ("u", "a2"),
        "a2": ("a1", "a3"),
        "a3": ("a2", "a4"),
        "a4": ("a3",),
        "b1": ("u", "b2"),
        "b2": ("b1",),
    }
    DEST = Point(10, 0)

    def test_directions_take_different_routes(self):
        ccw_hops, ccw_exit = _walk_face(
            self.POSITIONS, self.ADJACENCY, "u", self.DEST, clockwise=False
        )
        cw_hops, cw_exit = _walk_face(
            self.POSITIONS, self.ADJACENCY, "u", self.DEST, clockwise=True
        )
        assert ccw_exit == "a4"
        assert cw_exit == "b2"
        assert ccw_hops == 4
        assert cw_hops == 2

    def test_bidirectional_beats_single_walk(self):
        ccw_hops, _ = _walk_face(
            self.POSITIONS, self.ADJACENCY, "u", self.DEST, clockwise=False
        )
        cw_hops, _ = _walk_face(
            self.POSITIONS, self.ADJACENCY, "u", self.DEST, clockwise=True
        )
        # Single-direction recovery always pays the CCW cost; 2FACE
        # completes when the faster direction exits.
        assert min(ccw_hops, cw_hops) < ccw_hops

    def test_exit_nodes_make_greedy_progress(self):
        start_distance = distance(self.POSITIONS["u"], self.DEST)
        for clockwise in (False, True):
            _, exit_node = _walk_face(
                self.POSITIONS, self.ADJACENCY, "u", self.DEST, clockwise
            )
            assert (
                distance(self.POSITIONS[exit_node], self.DEST)
                < start_distance
            )
