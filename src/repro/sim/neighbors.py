"""Neighbour discovery and location diffusion — the IMEP stand-in.

The paper layers GLR over IMEP, whose link/connection status sensing
gives each node a periodically refreshed view of its neighbourhood, with
locations piggybacked in the (modified) IMEP header.  Two consequences
the paper calls out, both preserved here:

- neighbour/location information is only as fresh as the last beacon
  ("the IMEP layer updates neighbor information at specified time
  interval, the location information is not accurate");
- whenever two nodes are in range they exchange timestamped locations,
  which is the transport for **location diffusion** (Section 2.3.1).

Implementation: every ``beacon_interval`` the service snapshots true
node positions, rebuilds the unit-disk graph over that snapshot, and
updates each node's timestamped location table with its in-range
neighbours.  Between beacons all queries answer from the snapshot —
stale by up to one interval, exactly like IMEP.

The service also owns the per-epoch **LDTG memo**: the k-local Delaunay
triangulation over the beacon snapshot, voted on demand.  A node's first
query in an epoch votes the links incident to it, k-locally (paper Sec.
2.1), and the memo keeps every frame and verdict for the rest of the
epoch.  All nodes acting on the same beacon epoch see mutually
consistent local triangulations, which is what the k-local construction
guarantees when neighbourhood information is synchronized.

Beacon frames themselves are not pushed through the MAC — they are
small, periodic, and identical across compared protocols, so simulating
their airtime would add cost without changing any comparison.  Their
byte volume is still accounted in the metrics as control overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.geometry.primitives import Point
from repro.graphs.ldt import LdtMemo, local_delaunay_graph
from repro.graphs.udg import NodeId, SpatialGraph, unit_disk_graph
from repro.mobility.base import MobilityModel
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.radio import RadioConfig
from repro.telemetry.profile import (
    NULL_PROFILER,
    PHASE_MOBILITY,
    PHASE_PLANARIZE,
    PHASE_UDG,
)

#: Approximate bytes of one beacon (IMEP header + location + id).
BEACON_BYTES = 32


@dataclass(frozen=True)
class LocationRecord:
    """A timestamped location belief about some node."""

    position: Point
    timestamp: float


class NeighborService:
    """Beacon-driven neighbourhood, location tables, and LDTG memo."""

    def __init__(
        self,
        sim: Simulator,
        mobility: MobilityModel,
        radio: RadioConfig,
        beacon_interval: float = 1.0,
        ldt_k: int = 2,
        on_control_bytes: Callable[[int], None] | None = None,
        profiler=NULL_PROFILER,
    ):
        if beacon_interval <= 0:
            raise ValueError("beacon interval must be positive")
        self._sim = sim
        self._mobility = mobility
        self._radio = radio
        self.beacon_interval = beacon_interval
        self.ldt_k = ldt_k
        self._on_control_bytes = on_control_bytes
        self._profiler = profiler

        self.epoch = 0
        self._snapshot: SpatialGraph = SpatialGraph()
        self._ldt_memo = LdtMemo()
        self._location_tables: dict[NodeId, dict[NodeId, LocationRecord]] = {
            node: {} for node in mobility.node_ids
        }
        self._rebuild()  # epoch 0 snapshot at t=0
        self._task = PeriodicTask(
            sim,
            beacon_interval,
            self._on_beacon_tick,
            start_offset=beacon_interval,  # epoch 0 is built above
        )

    # ------------------------------------------------------------------
    # Beacon cycle
    # ------------------------------------------------------------------

    def _on_beacon_tick(self) -> None:
        self.epoch += 1
        self._rebuild()

    def _rebuild(self) -> None:
        now = self._sim.now
        t0 = self._profiler.start()
        scalar_positions = self._mobility.positions(now)
        self._profiler.add(PHASE_MOBILITY, t0)
        t0 = self._profiler.start()
        self._snapshot = unit_disk_graph(
            scalar_positions, self._radio.range_m
        )
        positions = self._snapshot.positions
        self._ldt_memo = LdtMemo()
        # Location diffusion leg 1: beacon exchange between
        # neighbours.  Adjacency keys follow the snapshot's node order.
        tables = self._location_tables
        adjacency = self._snapshot.adjacency
        for node, nbrs in adjacency.items():
            record = LocationRecord(positions[node], now)
            for nbr in nbrs:
                tables[nbr][node] = record
            # A node always knows its own current position (GPS).
            tables[node][node] = record
        if self._on_control_bytes is not None:
            self._on_control_bytes(len(adjacency) * BEACON_BYTES)
        self._profiler.add(PHASE_UDG, t0)

    # ------------------------------------------------------------------
    # Queries (all answer from the latest beacon snapshot)
    # ------------------------------------------------------------------

    def snapshot_graph(self) -> SpatialGraph:
        """The beacon-epoch unit-disk graph."""
        return self._snapshot

    def neighbors(self, node: NodeId) -> set[NodeId]:
        """One-hop neighbours as of the last beacon."""
        return set(self._snapshot.neighbors(node))

    def neighbor_positions(self, node: NodeId) -> dict[NodeId, Point]:
        """Beaconed positions of the node's one-hop neighbours."""
        return {
            n: self._snapshot.positions[n]
            for n in self._snapshot.neighbors(node)
        }

    def k_hop(self, node: NodeId, k: int) -> set[NodeId]:
        """k-hop neighbourhood (excluding ``node``) from the snapshot."""
        return self._snapshot.k_hop_neighborhood(node, k)

    def beacon_position(self, node: NodeId) -> Point:
        """Position of ``node`` as of the last beacon."""
        return self._snapshot.positions[node]

    def ldt_neighbors(self, node: NodeId) -> set[NodeId]:
        """LDTG neighbours of ``node`` for the current epoch.

        A node's first query in an epoch votes the links incident to it
        over the beacon snapshot, modelling each node running the k-local
        construction on consistent beacon data; links that an earlier
        querier shares were voted with it and are not voted again.
        """
        memo = self._ldt_memo
        if node not in memo.settled:
            self._vote((node,))
        return set(memo.graph.neighbors(node))

    def ldt_graph(self) -> SpatialGraph:
        """The current epoch's whole LDTG (analysis hooks): the epoch's
        vote, finished over every link."""
        return self._vote(None)

    def _vote(self, nodes: tuple[NodeId, ...] | None) -> SpatialGraph:
        t0 = self._profiler.start()
        graph = local_delaunay_graph(
            self._snapshot.positions,
            self._radio.range_m,
            k=self.ldt_k,
            udg=self._snapshot,
            nodes=nodes,
            memo=self._ldt_memo,
        )
        self._profiler.add(PHASE_PLANARIZE, t0)
        return graph

    # ------------------------------------------------------------------
    # Location tables (diffusion legs 2 and 3 happen in the protocol)
    # ------------------------------------------------------------------

    def location_of(self, owner: NodeId, subject: NodeId) -> LocationRecord | None:
        """``owner``'s current belief about ``subject``'s location."""
        return self._location_tables[owner].get(subject)

    def learn_location(
        self, owner: NodeId, subject: NodeId, record: LocationRecord
    ) -> bool:
        """Install a location belief if it is fresher than the current one.

        Returns True when the table was updated.  This is the primitive
        both diffusion directions use: a data packet carrying a fresher
        destination location teaches the receiving relay, and a relay
        with fresher knowledge refreshes the packet (paper 2.3.1).
        """
        current = self._location_tables[owner].get(subject)
        if current is None or record.timestamp > current.timestamp:
            self._location_tables[owner][subject] = record
            return True
        return False

    def stop(self) -> None:
        """Stop the beacon task (end of simulation)."""
        self._task.stop()
