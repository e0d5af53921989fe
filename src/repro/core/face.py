"""Face-routing recovery on the planar LDTG (paper Sections 1, 2.3).

When greedy DSTD forwarding reaches a local minimum — no routing-graph
neighbour is closer to the (believed) destination — and the node is not
isolated, GLR applies face routing "when nodes enter local minimum",
leaning on the LDTG being a planar spanner.

The implementation follows the GFG/GPSR recovery pattern:

- **enter**: remember the distance to the destination at the local
  minimum and take the first edge counter-clockwise from the straight
  line toward the destination (right-hand rule start);
- **step**: continue around the current face with the right-hand rule:
  the first neighbour counter-clockwise from the edge back to the
  previous node;
- **exit**: the walk ends as soon as the copy reaches a node strictly
  closer to the destination than where it entered face mode, resuming
  greedy forwarding — or gives up after a step budget (mobility will
  have changed the graph by the next check interval anyway).

Both take the exact turn order of
:func:`repro.geometry.predicates.first_by_turn`.

The face walk happens hop-by-hop across *different nodes*; its state
(previous node, entry distance, step count) travels inside the message
copy header, mirroring how the paper keeps tree flags in the packet.
"""

from __future__ import annotations

from repro.geometry.predicates import first_by_turn
from repro.geometry.primitives import Point
from repro.graphs.udg import NodeId


def first_face_hop(
    node_pos: Point,
    dest_pos: Point,
    neighbor_positions: dict[NodeId, Point],
    clockwise: bool = False,
) -> NodeId | None:
    """First edge of a face walk at a local minimum.

    Right-hand rule entry: the first neighbour counter-clockwise from
    the ray ``node -> destination`` (or clockwise — the mirror-image
    left-hand walk — with ``clockwise=True``; 2FACE launches one of
    each).  A neighbour on that ray comes last: the walk must actually
    turn.  Returns None when the node has no routing-graph neighbours
    at all (isolated: store-and-forward is the only option).
    """
    return first_by_turn(
        node_pos, dest_pos, neighbor_positions.items(), clockwise
    )


def next_face_hop(
    node_pos: Point,
    prev_pos: Point,
    neighbor_positions: dict[NodeId, Point],
    prev_id: NodeId,
    clockwise: bool = False,
) -> NodeId | None:
    """Continue a face walk: first neighbour CCW after the reverse edge
    (CW with ``clockwise=True``, continuing a 2FACE mirror walk).

    Args:
        node_pos: current node's position.
        prev_pos: position of the node the copy arrived from.
        neighbor_positions: current node's routing-graph neighbours.
        prev_id: id of the previous node (excluded unless it is the only
            neighbour, in which case the walk doubles back, as the
            right-hand rule requires at a dead end).
        clockwise: walk direction (both directions double back at dead
            ends the same way).
    """
    best = first_by_turn(
        node_pos,
        prev_pos,
        ((nbr, pos) for nbr, pos in neighbor_positions.items() if nbr != prev_id),
        clockwise,
    )
    if best is None and prev_id in neighbor_positions:
        return prev_id
    return best
