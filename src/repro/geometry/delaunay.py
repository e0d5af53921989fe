"""Delaunay triangulation via the Bowyer–Watson incremental algorithm.

This is the ``A(N)`` operator of the paper: the (global) Delaunay
triangulation of a point set ``N``.  The k-LDTG construction in
:mod:`repro.graphs.ldt` no longer triangulates its k-hop frames on the
hot path: a per-link empty-circle kernel answers the vote's questions,
and reproduces this module's answers exactly, super triangle included.
Bowyer–Watson is that kernel's fallback on degenerate or near-tied
frames and its test oracle.  Frames are small (tens of points), so the
straightforward O(n^2) implementation below is fast enough for that and
keeps the code easy to audit against the textbook algorithm.

Its signs are exact (:mod:`repro.geometry.predicates`).  A point on a
circumcircle is not inside it, so insertion order settles exact ties.

Degenerate inputs are handled explicitly:

- fewer than 3 points, or all points collinear, yield a triangulation
  with no triangles (callers use :func:`delaunay_edges` which then falls
  back to the chain of collinear neighbours);
- duplicate points are collapsed before triangulating.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.geometry.predicates import (
    Orientation,
    in_circle,
    orientation,
)
from repro.geometry.primitives import Point, distance
from repro.geometry.triangulation import (
    Edge,
    Triangulation,
    normalize_edge,
)


def super_triangle(points: Sequence[Point]) -> tuple[Point, Point, Point]:
    """A triangle that comfortably contains every input point.

    Its vertices sit about 200 bounding-box extents from the points.
    Only edges of triangles free of these vertices are reported, so some
    long hull edges of the true Delaunay triangulation are dropped; the
    k-LDTG kernel in :mod:`repro.graphs.ldt` reproduces that.
    """
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    min_x = min(xs)
    max_x = max(xs)
    min_y = min(ys)
    max_y = max(ys)
    dx = max_x - min_x
    dy = max_y - min_y
    delta = max(dx, dy, 1.0) * 100.0
    mid_x = (min_x + max_x) / 2.0
    mid_y = (min_y + max_y) / 2.0
    return (
        Point(mid_x - 2.0 * delta, mid_y - delta),
        Point(mid_x + 2.0 * delta, mid_y - delta),
        Point(mid_x, mid_y + 2.0 * delta),
    )


def _all_collinear(points: Sequence[Point]) -> bool:
    """True when every point lies on one line (or there are < 3 points)."""
    if len(points) < 3:
        return True
    a = points[0]
    b = next((p for p in points[1:] if p != a), None)
    if b is None:
        return True
    return all(
        orientation(a, b, c) == Orientation.COLLINEAR for c in points[1:]
    )


def delaunay_triangulation(points: Iterable[Point]) -> Triangulation:
    """Delaunay triangulation of a point set.

    Returns a :class:`Triangulation` whose ``points`` list contains the
    *distinct* input points in first-seen order.  For degenerate inputs
    (collinear or < 3 points) the triangle set is empty.
    """
    distinct: list[Point] = []
    seen: set[Point] = set()
    for p in points:
        if p not in seen:
            seen.add(p)
            distinct.append(p)

    tri = Triangulation(points=distinct)
    if len(distinct) < 3 or _all_collinear(distinct):
        return tri

    # Indices len(distinct) .. len(distinct)+2 are the super-triangle.
    s0, s1, s2 = super_triangle(distinct)
    vertices = distinct + [s0, s1, s2]
    n = len(distinct)

    # Triangles kept as CCW-ordered index triples during construction so
    # the in_circle predicate sees consistent orientation.
    def ccw(a: int, b: int, c: int) -> tuple[int, int, int]:
        if orientation(vertices[a], vertices[b], vertices[c]) == Orientation.CLOCKWISE:
            return (a, c, b)
        return (a, b, c)

    triangles: set[tuple[int, int, int]] = {ccw(n, n + 1, n + 2)}

    for idx in range(n):
        p = vertices[idx]
        bad: list[tuple[int, int, int]] = []
        for t in triangles:
            a, b, c = (vertices[t[0]], vertices[t[1]], vertices[t[2]])
            if in_circle(a, b, c, p):
                bad.append(t)

        # Boundary of the cavity: edges belonging to exactly one bad triangle.
        edge_count: dict[Edge, tuple[int, int]] = {}
        counts: dict[Edge, int] = {}
        for t in bad:
            for i in range(3):
                u, v = t[i], t[(i + 1) % 3]
                e = normalize_edge(u, v)
                counts[e] = counts.get(e, 0) + 1
                edge_count[e] = (u, v)
        for t in bad:
            triangles.discard(t)
        for e, cnt in counts.items():
            if cnt == 1:
                u, v = edge_count[e]
                if len({u, v, idx}) == 3:
                    triangles.add(ccw(u, v, idx))

    for t in triangles:
        if all(v < n for v in t):
            tri.add_triangle(*t)
    return tri


def delaunay_edges(points: Sequence[Point]) -> set[Edge]:
    """Undirected Delaunay edge set over ``points`` (by index).

    For degenerate (collinear) inputs, the Delaunay triangulation has no
    triangles but the natural limit graph is the path connecting the
    points in order along the line; that path is returned so that sparse
    collinear neighbourhoods still yield a connected routing structure.
    Indices refer to positions in ``points`` (duplicates map onto the
    first occurrence).
    """
    distinct_index: dict[Point, int] = {}
    order: list[Point] = []
    remap: list[int] = []
    for p in points:
        if p not in distinct_index:
            distinct_index[p] = len(order)
            order.append(p)
        remap.append(distinct_index[p])

    tri = delaunay_triangulation(order)
    edges: set[Edge] = set()
    if tri.triangles:
        compact_edges = tri.edges()
    elif len(order) >= 2:
        # Collinear fallback: chain consecutive points along the line.
        ref = order[0]
        far = max(order, key=lambda q: distance(ref, q))
        direction = far - ref
        norm = direction.norm()
        if norm == 0.0:
            compact_edges = set()
        else:
            keyed = sorted(
                range(len(order)),
                key=lambda i: (order[i] - ref).dot(direction) / norm,
            )
            compact_edges = {
                normalize_edge(keyed[i], keyed[i + 1])
                for i in range(len(keyed) - 1)
            }
    else:
        compact_edges = set()

    # Map compact (deduplicated) indices back to the caller's indexing.
    back: dict[int, int] = {}
    for caller_idx, compact_idx in enumerate(remap):
        back.setdefault(compact_idx, caller_idx)
    for u, v in compact_edges:
        edges.add(normalize_edge(back[u], back[v]))
    return edges


def is_delaunay(tri: Triangulation) -> bool:
    """Check the empty-circumcircle property of every triangle.

    O(t * n) — test-suite oracle, not meant for production paths.
    """
    for a, b, c in tri.triangles:
        pa, pb, pc = tri.points[a], tri.points[b], tri.points[c]
        if orientation(pa, pb, pc) == Orientation.CLOCKWISE:
            pa, pb = pb, pa
        for i, p in enumerate(tri.points):
            if i in (a, b, c):
                continue
            if in_circle(pa, pb, pc, p):
                return False
    return True


def stretch_factor(points: Sequence[Point], edges: set[Edge]) -> float:
    """Maximum graph-distance/Euclidean-distance ratio over point pairs.

    The paper leans on Keil & Gutwin's result that the Delaunay
    triangulation is a constant-factor Euclidean spanner; this utility
    lets the tests confirm small stretch empirically.  Runs Dijkstra from
    every vertex — fine for the test-sized inputs it serves.
    """
    import heapq

    n = len(points)
    if n < 2:
        return 1.0
    adjacency: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for u, v in edges:
        w = distance(points[u], points[v])
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))

    worst = 1.0
    for source in range(n):
        dist = [math.inf] * n
        dist[source] = 0.0
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        for target in range(source + 1, n):
            euclid = distance(points[source], points[target])
            if euclid == 0.0:
                continue
            if math.isinf(dist[target]):
                return math.inf
            worst = max(worst, dist[target] / euclid)
    return worst
