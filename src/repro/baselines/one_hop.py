"""One-hop-information geographic DTN routing (arXiv 1602.08461).

The protocol uses only what a node can learn from its one-hop
neighbourhood: beaconed neighbour positions plus the destination
location carried in the packet header.  Each tick, every buffered
message is handed to the neighbour geographically closest to the
believed destination — but only when that neighbour is strictly closer
than the carrier itself (greedy progress).  With no closer neighbour
the node simply carries the message (store-carry-forward); mobility is
the recovery mechanism, so there is no face routing, no trees, and no
multi-copy spraying.

This sits between ``direct`` (never relays) and GLR (plans on the
LDTG): a single-copy geographic protocol whose routing state is
entirely local.  Destination knowledge follows the same convention as
GLR's default ``SOURCE`` mode — the source stamps the true destination
location at creation time, and relays refresh the belief from their own
location tables when they hold something fresher (location diffusion
teaches them via beacons and received packets).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.contact import ContactProtocol
from repro.geometry.primitives import Point, distance
from repro.graphs.udg import NodeId
from repro.sim.messages import Frame, FrameKind, Message, MessageCopy, data_frame
from repro.sim.neighbors import LocationRecord


@dataclass(frozen=True)
class OneHopConfig:
    """Tunables of the one-hop-information protocol.

    Attributes:
        tick_interval: forwarding-decision period in seconds.
        buffer_limit: per-node buffer capacity in messages
            (None = unlimited).
        progress_margin_m: a neighbour must be at least this many metres
            closer to the destination to receive the message (drift
            hysteresis, same role as GLR's progress margin).
    """

    tick_interval: float = 1.0
    buffer_limit: int | None = None
    progress_margin_m: float = 0.0

    def __post_init__(self) -> None:
        if self.tick_interval <= 0:
            raise ValueError("tick interval must be positive")
        if self.buffer_limit is not None and self.buffer_limit < 1:
            raise ValueError("buffer limit must be >= 1")
        if self.progress_margin_m < 0:
            raise ValueError("progress margin must be non-negative")


class OneHopProtocol(ContactProtocol):
    """One node's one-hop-information instance."""

    name = "one_hop"

    def __init__(self, config: OneHopConfig | None = None):
        self.config = config if config is not None else OneHopConfig()
        super().__init__(
            buffer_limit=self.config.buffer_limit,
            tick_interval=self.config.tick_interval,
        )
        #: Believed destination location per buffered uid.
        self._beliefs: dict[int, tuple[Point, float]] = {}
        # Diagnostics exposed for tests and benches.
        self.greedy_forwards = 0
        self.direct_deliveries = 0

    # -- traffic ---------------------------------------------------------

    def on_message_created(self, message: Message) -> None:
        assert self.api is not None
        self.hold(message, hops=0)
        # Source-knows-destination convention (GLR LocationMode.SOURCE).
        self._beliefs[message.uid] = (
            self.api.oracle_position_of(message.dest),
            self.api.now(),
        )

    def on_frame(self, frame: Frame) -> None:
        assert self.api is not None
        if frame.kind is not FrameKind.DATA:
            return
        copy: MessageCopy = frame.payload
        copy = copy.hopped()
        if copy.dest_location is not None and copy.dest_location_time > float(
            "-inf"
        ):
            # Location diffusion: the packet teaches the relay.
            self.api.learn_location(
                copy.message.dest,
                LocationRecord(copy.dest_location, copy.dest_location_time),
            )
        if self.deliver_if_mine(copy):
            return
        self.hold(copy.message, hops=copy.hops)
        if copy.dest_location is not None:
            self._beliefs[copy.message.uid] = (
                copy.dest_location,
                copy.dest_location_time,
            )

    # -- forwarding ------------------------------------------------------

    def on_tick_with_neighbors(self, neighbors: set[NodeId]) -> None:
        assert self.api is not None
        if not self.buffer:
            # Nothing to forward: skip the position lookups.
            self._prune_beliefs()
            return
        positions = self.api.neighbor_positions()
        my_pos = self.api.position()
        for uid in list(self.buffer.keys()):
            entry = self.held(uid)
            if entry is None:
                continue
            dest = entry.message.dest
            if dest in neighbors:
                if self._hand_off(uid, dest):
                    self.direct_deliveries += 1
                continue
            belief = self._refreshed_belief(uid, dest)
            if belief is None:
                continue
            dest_pos, _ = belief
            best: NodeId | None = None
            best_d = distance(my_pos, dest_pos) - self.config.progress_margin_m
            for nbr in sorted(neighbors, key=repr):
                pos = positions.get(nbr)
                if pos is None:
                    continue
                d = distance(pos, dest_pos)
                if d < best_d:
                    best_d = d
                    best = nbr
            if best is not None and self._hand_off(uid, best):
                self.greedy_forwards += 1
        self._prune_beliefs()

    def _prune_beliefs(self) -> None:
        # Buffer evictions (FIFO when full) leave belief entries behind;
        # prune so the side table cannot outgrow the buffer.
        if len(self._beliefs) > len(self.buffer):
            held = set(self.buffer.keys())
            self._beliefs = {
                uid: b for uid, b in self._beliefs.items() if uid in held
            }

    def _refreshed_belief(
        self, uid: int, dest: NodeId
    ) -> tuple[Point, float] | None:
        assert self.api is not None
        belief = self._beliefs.get(uid)
        record = self.api.location_of(dest)
        if record is not None and (
            belief is None or record.timestamp > belief[1]
        ):
            belief = (record.position, record.timestamp)
            self._beliefs[uid] = belief
        return belief

    def _hand_off(self, uid: int, target: NodeId) -> bool:
        """Send the single copy to ``target``; drop it locally on success."""
        assert self.api is not None
        entry = self.held(uid)
        if entry is None:
            return False
        belief = self._beliefs.get(uid)
        copy = MessageCopy(
            message=entry.message,
            branch="one_hop",
            hops=entry.hops,
            dest_location=belief[0] if belief is not None else None,
            dest_location_time=belief[1] if belief is not None else float("-inf"),
        )
        if not self.api.send(data_frame(self.api.node_id, target, copy)):
            return False
        self.buffer.pop(uid)
        self._beliefs.pop(uid, None)
        return True
