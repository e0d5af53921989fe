"""Gabriel graph construction.

An edge ``uv`` belongs to the Gabriel graph when the closed disk having
``uv`` as diameter contains no third point.  The Gabriel graph is planar
and connected whenever the underlying UDG is, which makes it the natural
spanner to compare the paper's k-LDTG with:
``examples/spanner_playground.py`` compares their structure, and
docs/architecture.md maps the graphs package.
"""

from __future__ import annotations

from typing import Mapping

from repro.geometry.primitives import Point, distance_sq
from repro.graphs.udg import NodeId, SpatialGraph, unit_disk_graph


def gabriel_graph(
    positions: Mapping[NodeId, Point], radius: float | None = None
) -> SpatialGraph:
    """Gabriel graph, optionally restricted to a unit-disk radius.

    When ``radius`` is given, only UDG edges are candidates (a radio link
    cannot exceed the transmission range no matter how geometrically
    desirable); otherwise all pairs are considered.
    """
    nodes = list(positions)
    graph = SpatialGraph()
    for n in nodes:
        graph.add_node(n, positions[n])

    if radius is not None:
        candidate = unit_disk_graph(positions, radius)
        pairs = candidate.edges()
    else:
        pairs = {
            (nodes[i], nodes[j])
            for i in range(len(nodes))
            for j in range(i + 1, len(nodes))
        }

    for u, v in pairs:
        pu, pv = positions[u], positions[v]
        mid = Point((pu.x + pv.x) / 2.0, (pu.y + pv.y) / 2.0)
        r_sq = distance_sq(pu, pv) / 4.0
        blocked = False
        for w in nodes:
            if w == u or w == v:
                continue
            if distance_sq(positions[w], mid) < r_sq:
                blocked = True
                break
        if not blocked:
            graph.add_edge(u, v)
    return graph
