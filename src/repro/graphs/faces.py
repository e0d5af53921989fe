"""Planar face traversal — the machinery behind face routing.

Face routing (Bose, Morin, Stojmenović & Urrutia) walks the boundary of
the planar face intersected by the source–destination line using the
right-hand rule.  GLR invokes it when greedy DSTD forwarding reaches a
local minimum on a *connected* patch of the LDTG (paper Sections 1/2.3).

The key primitive is :func:`next_edge_on_face`: given the directed edge
``prev -> cur`` just traversed, return the next neighbour of ``cur`` in
clockwise (right-hand rule) or counter-clockwise order after the reverse
edge ``cur -> prev``.  Iterating it walks a face boundary of any planar
straight-line graph.
"""

from __future__ import annotations

from typing import Iterator

from repro.geometry.predicates import first_by_turn, segments_cross_interior
from repro.graphs.udg import NodeId, SpatialGraph


def next_edge_on_face(
    graph: SpatialGraph,
    prev: NodeId,
    cur: NodeId,
    clockwise: bool = True,
) -> NodeId | None:
    """Next node after traversing ``prev -> cur`` along the current face.

    With ``clockwise=True`` this implements the right-hand rule (the
    next edge is the first one counter-clockwise from ``cur -> prev``,
    in the exact turn order of
    :func:`repro.geometry.predicates.first_by_turn`), which traverses
    interior faces in clockwise orientation.  Returns None for an
    isolated ``cur``; returns ``prev`` when ``cur`` has no other
    neighbour (dead end — the walk doubles back, as face routing
    requires).
    """
    neighbors = graph.neighbors(cur)
    if not neighbors:
        return None
    positions = graph.positions
    best = first_by_turn(
        positions[cur],
        positions[prev],
        ((nbr, positions[nbr]) for nbr in neighbors if nbr != prev),
        clockwise=not clockwise,  # a clockwise face turns counter-clockwise
    )
    if best is None:
        return prev  # dead end: only way onward is back along the edge
    return best


def trace_face(
    graph: SpatialGraph,
    start: NodeId,
    first: NodeId,
    clockwise: bool = True,
    max_steps: int | None = None,
) -> list[NodeId]:
    """Walk the face containing directed edge ``start -> first``.

    Returns the cycle of nodes visited until the starting directed edge
    repeats (a closed face) or ``max_steps`` is exhausted.
    """
    limit = max_steps if max_steps is not None else 4 * max(
        1, graph.edge_count()
    )
    walk = [start, first]
    prev, cur = start, first
    for _ in range(limit):
        nxt = next_edge_on_face(graph, prev, cur, clockwise)
        if nxt is None:
            break
        prev, cur = cur, nxt
        if (prev, cur) == (start, first):
            break
        walk.append(cur)
    return walk


def enumerate_faces(graph: SpatialGraph) -> list[list[NodeId]]:
    """All faces of a planar straight-line graph, as vertex cycles.

    Every undirected edge is traversed once in each direction; each
    directed edge belongs to exactly one face.  The unbounded outer face
    appears as one of the cycles.  Euler's formula ``v - e + f = 1 + c``
    over these faces is asserted by the test suite as a planarity
    certificate.
    """
    visited: set[tuple[NodeId, NodeId]] = set()
    faces: list[list[NodeId]] = []
    for u in graph.nodes():
        for v in graph.neighbors(u):
            if (u, v) in visited:
                continue
            face = [u]
            prev, cur = u, v
            visited.add((u, v))
            while True:
                face.append(cur)
                nxt = next_edge_on_face(graph, prev, cur, clockwise=True)
                if nxt is None:
                    break
                prev, cur = cur, nxt
                if (prev, cur) in visited:
                    break
                visited.add((prev, cur))
            faces.append(face[:-1] if len(face) > 1 and face[-1] == face[0] else face)
    return faces


def crossing_edge_pairs(
    graph: SpatialGraph,
) -> Iterator[tuple[tuple[NodeId, NodeId], tuple[NodeId, NodeId]]]:
    """Yield the edge pairs that cross in their interiors (O(e^2))."""
    edges = list(graph.edges())
    for i in range(len(edges)):
        u1, v1 = edges[i]
        p1, p2 = graph.positions[u1], graph.positions[v1]
        for j in range(i + 1, len(edges)):
            u2, v2 = edges[j]
            q1, q2 = graph.positions[u2], graph.positions[v2]
            if segments_cross_interior(p1, p2, q1, q2):
                yield edges[i], edges[j]


def is_planar_embedding(graph: SpatialGraph) -> bool:
    """Certify that no two edges cross in their interiors: the test
    suite's oracle for the paper's claim that the k-LDTG is planar."""
    return next(crossing_edge_pairs(graph), None) is None
