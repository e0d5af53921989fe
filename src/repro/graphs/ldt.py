"""k-local Delaunay triangulation graph (k-LDTG) — the paper's spanner.

Construction (paper Section 2.1, after Li, Calinescu & Wan):

    A link ``uv`` is accepted in the final graph if it is in both
    ``A(Nk(u))`` and ``A(Nk(w))`` for all ``w ∈ N1(u)`` with
    ``u ∈ Nk(w)`` and ``v ∈ Nk(w)``,

where ``A(S)`` is the Delaunay triangulation of point set ``S`` and
``Nk(x)`` is the distance-k neighbourhood of ``x`` (including ``x``).
The witness condition over one-hop neighbours is what lets the paper
"obtain a planar graph directly, avoiding the extra time incurred by the
planar process" of the original LDel construction.

Two practical notes reflected below:

- Only UDG edges can be physical links, so every local Delaunay edge set
  is intersected with the UDG before voting.
- We apply the acceptance rule symmetrically (witnesses drawn from
  ``N1(u) ∪ N1(v)``, and ``uv`` must appear in both endpoints' local
  triangulations) so the result is an undirected graph by construction.

Each node's decision uses only its k-hop neighbourhood — the algorithm is
k-local in the paper's sense and the simulator evaluates it node-locally.

**Voting on demand.**  :func:`local_delaunay_graph` votes a list of
links: every UDG link, or only the links incident to the ``nodes`` it
is given.  A link's verdict reads the frames of its endpoints and of
their one-hop witnesses, so settling one node's links needs only the
frames within two hops of it.  An :class:`LdtMemo` carries the k-hop
sets, the frames with their answers and the verdicts from one call to
the next over the same snapshot, so each link is voted once however
the queries arrive.  A frame's answers do not depend on the order in
which links are asked, so the graph is the same in any query order.

**The per-link kernel.**  The vote only ever asks "is link ``uv`` an
edge of ``A(Nk(x))``?", so :func:`local_delaunay_graph` answers exactly
that instead of triangulating every frame ``Nk(x)``.  ``uv`` is a
Delaunay edge when some circle through ``u`` and ``v`` has no other
point strictly inside.  Such circles are centred on ``uv``'s
perpendicular bisector, at ``m + (t/2)·n`` (``m`` the midpoint, ``n``
the vector ``u -> v`` turned left).  A point on the left of ``uv``
stays outside the circle only while ``t`` is at most its bound, a point
on the right only while ``t`` is at least its bound, so one
O(|Nk(x)|) pass yields the tightest bounds ``hi`` and ``lo``, and
``uv`` is an edge when ``lo < hi``.

``A`` is Bowyer–Watson's (:mod:`repro.geometry.delaunay`): it
triangulates the frame together with the three vertices of a finite
super triangle, then keeps the edges of the triangles whose corners are
all frame points.  The super-triangle vertices are therefore part of
the pass.  True Delaunay would leave them out, and then the kernel
would keep some long hull edges of the frame that Bowyer–Watson drops
(the circles that keep them empty reach past a super-triangle vertex);
keeping them in keeps the k-LDTG, and every metric payload,
bit-identical.  On a frame that is not thin, every link in that
triangulation borders a triangle of frame points, so the kernel's "an
edge of the Delaunay triangulation of the frame plus the super-triangle
vertices" is exactly Bowyer–Watson's answer.

A frame goes to Bowyer–Watson (:func:`local_delaunay_edges_of`) when
it has fewer than 3 points or duplicate points, is thin (every
collinear frame is), or when a link's bounds nearly meet.  Bowyer–Watson
decides those near-ties exactly (:mod:`repro.geometry.predicates`), and
settles exact ties, such as the diagonals of a cocircular square, by
insertion order.  It is also the kernel's test oracle.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Mapping

from repro.geometry.delaunay import delaunay_edges, super_triangle
from repro.geometry.primitives import Point
from repro.graphs.udg import NodeId, SpatialGraph, unit_disk_graph

#: The width of the kernel's float band: bound comparisons closer than
#: this, relative to the bounds' size, send the frame to Bowyer–Watson,
#: which decides them exactly.  The smallest margin seen on random
#: frames at paper and N=400 density was 2.9e-5.
_TIE = 1e-6

#: A frame whose points all lie within this fraction of its extent from
#: one line goes to Bowyer–Watson.  The super-triangle vertices sit about
#: 200 extents away, so a thicker frame provably has a triangle of frame
#: points in ``A`` (Bowyer–Watson never takes its collinear-chain path on
#: it), and no link between frame points has super-triangle vertices as
#: both third corners; the proof needs a fraction above ~0.044.
_THIN = 0.1

_by_y = operator.itemgetter(1)


def local_delaunay_edges_of(
    udg: SpatialGraph, node: NodeId, k: int
) -> set[frozenset]:
    """Edges of ``A(Nk(node))`` restricted to UDG links.

    Returns undirected edges as frozensets of node ids.  ``Nk(node)``
    includes ``node`` itself.  This triangulates the frame with
    Bowyer–Watson; it is the reference the per-link kernel is tested
    against, and the kernel's fallback.
    """
    members = sorted(
        udg.k_hop_neighborhood(node, k) | {node}, key=repr
    )
    points = [udg.positions[m] for m in members]
    edges = delaunay_edges(points)
    result: set[frozenset] = set()
    for i, j in edges:
        u, v = members[i], members[j]
        if v in udg.neighbors(u):
            result.add(frozenset((u, v)))
    return result


def _takes_kernel(points: list[tuple[float, float]]) -> bool:
    """Whether the per-link kernel agrees with Bowyer–Watson on a frame.

    It needs at least 3 distinct points and a point farther than
    ``_THIN`` extents (the longer side of the bounding box) from the
    line through the extreme points along that side.  Every collinear
    frame fails that test.
    """
    if len(points) < 3 or len(set(points)) < len(points):
        return False
    a, b = min(points), max(points)
    low, high = min(points, key=_by_y), max(points, key=_by_y)
    extent = b[0] - a[0]
    if high[1] - low[1] > extent:
        a, b = low, high
        extent = b[1] - a[1]
    ax, ay = a
    ex = b[0] - ax
    ey = b[1] - ay
    # |cross| is the distance from the line times |ab|.
    height = max([abs(ex * (y - ay) - ey * (x - ax)) for x, y in points])
    return height >= _THIN * extent * math.hypot(ex, ey)


class _Frame:
    """One frame ``Nk(x)``, asked about links one at a time.

    Holds the frame's coordinates followed by its three super-triangle
    vertices, or the Bowyer–Watson edge set once the frame has fallen
    back to it, and every answer given so far.  Nodes with the same
    k-hop neighbourhood share one frame, and so its answers.
    """

    __slots__ = ("udg", "node", "k", "index", "points", "edges", "answers")

    def __init__(
        self, udg: SpatialGraph, node: NodeId, k: int, members: frozenset
    ) -> None:
        self.udg = udg
        self.node = node
        self.k = k
        self.index = {m: i for i, m in enumerate(members)}
        positions = udg.positions
        self.points = [(positions[m].x, positions[m].y) for m in members]
        self.edges: set[frozenset] | None = None
        self.answers: dict[tuple[NodeId, NodeId], bool] = {}
        if _takes_kernel(self.points):
            corners = super_triangle([positions[m] for m in members])
            self.points += [(c.x, c.y) for c in corners]
        else:
            self.edges = local_delaunay_edges_of(udg, node, k)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Is link ``uv`` an edge of ``A(Nk(x))``?"""
        answer = self.answers.get((u, v))
        if answer is None and self.edges is None:
            answer = self._empty_circle(u, v)
            if answer is None:  # a near-tie: Bowyer–Watson settles it
                self.edges = local_delaunay_edges_of(self.udg, self.node, self.k)
        if answer is None:
            answer = frozenset((u, v)) in self.edges
        self.answers[(u, v)] = answer
        return answer

    def _empty_circle(self, u: NodeId, v: NodeId) -> bool | None:
        """The per-link kernel; None on a near-tie or a point on line uv."""
        ux, uy = self.points[self.index[u]]
        vx, vy = self.points[self.index[v]]
        hi = math.inf
        lo = -math.inf
        for px, py in self.points:
            ax = px - ux
            ay = py - uy
            bx = px - vx
            by = py - vy
            # side > 0: p is left of u -> v.  power < 0: p is inside the
            # circle on diameter uv.  p is strictly inside the circle
            # centred at m + (t/2)·n exactly when power < t·side.
            side = ax * by - ay * bx
            power = ax * bx + ay * by
            if side > 0.0:
                t = power / side
                if t < hi:
                    hi = t
            elif side < 0.0:
                t = power / side
                if t > lo:
                    lo = t
            elif power:
                return None  # on the line through u and v
            # else p is u or v itself
        tie = _TIE * (1.0 + abs(hi) + abs(lo))
        if hi - lo > tie:
            return True
        if hi - lo < -tie:
            return False
        return None


class LdtMemo:
    """The vote over one snapshot so far, continued by later calls.

    Pass one memo to every :func:`local_delaunay_graph` call over the
    same UDG and ``k``; a new snapshot needs a new memo.  It holds each
    node's k-hop set, the frames with their answers, and the verdicts:
    a link is voted with the first of its endpoints to settle, so
    ``graph`` holds the accepted links and ``settled`` says which links
    have been voted.  A call that raises leaves the memo unusable.

    Attributes:
        graph: the accepted links on every node of the snapshot (None
            before the first call).
        settled: nodes whose links have all been voted; each has its
            final adjacency in ``graph``.
    """

    __slots__ = ("k_hoods", "frames", "graph", "settled")

    def __init__(self) -> None:
        self.k_hoods: dict[NodeId, frozenset] = {}
        self.frames: dict[frozenset, _Frame] = {}
        self.graph: SpatialGraph | None = None
        self.settled: set[NodeId] = set()


def local_delaunay_graph(
    positions: Mapping[NodeId, Point],
    radius: float,
    k: int = 2,
    udg: SpatialGraph | None = None,
    nodes: Iterable[NodeId] | None = None,
    memo: LdtMemo | None = None,
) -> SpatialGraph:
    """Vote the k-LDTG over ``positions`` with communication ``radius``.

    Args:
        positions: node locations.
        radius: transmission range defining the underlying UDG.
        k: locality parameter (paper experiments use k = 2).
        udg: pre-built unit-disk graph to reuse; built when omitted.
        nodes: vote only the links incident to these nodes; every UDG
            link when omitted.
        memo: the :class:`LdtMemo` of earlier calls over the same
            ``udg`` and ``k``, which this call continues; a new one when
            omitted.

    Returns:
        The memo's graph: every node of ``positions`` with the links
        accepted so far, so each of ``nodes`` has its final adjacency,
        and without ``nodes`` the graph is the whole k-LDTG.  That is a
        subgraph of the UDG.  For k >= 2 it is planar (verified
        property-style in the test suite); it preserves the connectivity
        of the UDG.  Its edges are those of the vote over Bowyer–Watson
        triangulations of every frame (:func:`node_local_ldt_neighbors`);
        the per-link kernel in the module docstring computes them without
        triangulating.
    """
    if k < 1:
        raise ValueError("locality parameter k must be >= 1")
    if udg is None:
        udg = unit_disk_graph(positions, radius)
    if memo is None:
        memo = LdtMemo()
    if memo.graph is None:
        memo.graph = SpatialGraph(
            positions=dict(positions),
            adjacency={node: set() for node in positions},
        )
    graph = memo.graph
    k_hoods = memo.k_hoods
    frames = memo.frames
    settled = memo.settled

    def k_hood(x: NodeId) -> frozenset:
        members = k_hoods.get(x)
        if members is None:
            members = k_hoods[x] = frozenset(udg.k_hop_neighborhood(x, k) | {x})
        return members

    def in_local_delaunay(x: NodeId, u: NodeId, v: NodeId) -> bool:
        members = k_hood(x)
        frame = frames.get(members)
        if frame is None:
            frame = frames[members] = _Frame(udg, x, k, members)
        return frame.has_edge(u, v)

    # Each link is listed once, with the first of its endpoints to settle.
    links: list[tuple[NodeId, NodeId]] = []
    for u in udg.nodes() if nodes is None else nodes:
        if u not in settled:
            links += [(u, v) for v in udg.neighbors(u) if v not in settled]
            settled.add(u)

    for u, v in links:
        if not in_local_delaunay(u, u, v) or not in_local_delaunay(v, u, v):
            continue
        witnesses = (udg.neighbors(u) | udg.neighbors(v)) - {u, v}
        accepted = True
        for w in witnesses:
            hood = k_hood(w)
            if u in hood and v in hood and not in_local_delaunay(w, u, v):
                accepted = False
                break
        if accepted:
            graph.add_edge(u, v)
    return graph


def node_local_ldt_neighbors(
    udg: SpatialGraph, node: NodeId, k: int = 2
) -> set[NodeId]:
    """LDTG neighbours of ``node`` computed with only local information.

    This is the routine a *node* runs inside the protocol: it sees its
    k-hop neighbourhood (collected via beacons/IMEP), triangulates, and
    asks its one-hop neighbours to veto edges absent from their own local
    triangulations.  Because every participant of the vote is within
    ``k + 1`` hops, the computation is k-local.

    It triangulates with Bowyer–Watson, so it is also the reference for
    the per-link kernel: the result agrees with the global
    :func:`local_delaunay_graph` adjacency for ``node`` whenever the
    node's collected neighbourhood information is up to date (tested in
    tests/graphs/test_ldt.py).
    """
    own = local_delaunay_edges_of(udg, node, k)
    k_hood_cache: dict[NodeId, set[NodeId]] = {}
    edge_cache: dict[NodeId, set[frozenset]] = {}

    def k_hood(x: NodeId) -> set[NodeId]:
        if x not in k_hood_cache:
            k_hood_cache[x] = udg.k_hop_neighborhood(x, k) | {x}
        return k_hood_cache[x]

    def edges_of_node(x: NodeId) -> set[frozenset]:
        if x not in edge_cache:
            edge_cache[x] = local_delaunay_edges_of(udg, x, k)
        return edge_cache[x]

    neighbors: set[NodeId] = set()
    for v in udg.neighbors(node):
        link = frozenset((node, v))
        if link not in own:
            continue
        if link not in edges_of_node(v):
            continue
        witnesses = (udg.neighbors(node) | udg.neighbors(v)) - {node, v}
        accepted = True
        for w in witnesses:
            if node in k_hood(w) and v in k_hood(w):
                if link not in edges_of_node(w):
                    accepted = False
                    break
        if accepted:
            neighbors.add(v)
    return neighbors
