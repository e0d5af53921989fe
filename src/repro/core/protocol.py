"""GLR — Geometric Routing with Controlled Flooding (paper Algorithm 2).

Per-node behaviour, as the paper specifies it:

1. A **source** runs Algorithm 1 (:mod:`repro.core.decision`) to choose
   the copy count, stamps each copy with a tree flag (MaxDSTD always;
   MinDSTD/MidDSTD for multi-copy) and the believed destination
   location, and places the copies in its Store.
2. Every ``check_interval`` seconds (paper default 0.9 s) a node with
   stored messages runs a **routing round**: it collects its beacon-
   fresh neighbourhood, builds its local Delaunay neighbours (LDTG),
   and for every stored copy either
   - hands it directly to the destination when in range,
   - forwards it greedily along the copy's DSTD tree,
   - continues/starts a **face-routing** walk at a local minimum, or
   - keeps it stored ("store state") until topology changes.
3. **Custody transfer** keeps each forwarded copy in the Cache until
   the next hop ACKs; timeouts reschedule the copy from the Store.
4. **Location diffusion** runs continuously: beacons teach neighbours
   each other's timestamped positions, data packets carry the believed
   destination location, and whoever (packet or relay table) is fresher
   updates the other.  A copy stalled against a stale location is
   re-aimed at a random position (paper Section 3.3's fix).

Omissions relative to the paper's prose, both harmless to fidelity:
the "neighbour proactively notifies the holder of fresher destination
locations" direction of diffusion is subsumed by the relay refreshing
the copy when it next forwards it; and full location-table exchange on
contact is skipped — the paper itself disables it ("it is not used in
the experimentation of GLR").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.custody import CustodyManager
from repro.core.decision import decide_copies
from repro.core.face import first_face_hop, next_face_hop
from repro.core.location import (
    LocationMode,
    initial_location_guess,
    is_belief_stale,
    perturbed_location,
)
from repro.geometry.primitives import Point, distance
from repro.graphs.trees import Branch, branch_assignment, dstd_next_hop
from repro.graphs.udg import NodeId
from repro.mobility.base import Region
from repro.sim.messages import (
    Frame,
    FrameKind,
    Message,
    MessageCopy,
    ack_frame,
    data_frame,
)
from repro.sim.neighbors import LocationRecord
from repro.sim.storage import DualStore
from repro.sim.world import Protocol


@dataclass(frozen=True)
class GLRConfig:
    """Tunable parameters of the GLR protocol.

    Attributes:
        check_interval: route re-check period for stored messages
            (paper Section 3.2; default 0.9 s).
        connectivity_threshold: Algorithm 1 confidence above which a
            single copy is used.
        sparse_copies: copy count in sparse networks (paper: 3).
        copies_override: force an exact copy count (experiment control;
            None = let Algorithm 1 decide).
        custody: enable custody transfer (Table 3 compares on/off).
        custody_timeout: seconds a sent copy waits in the Cache for an
            ACK before being rescheduled.
        storage_limit: per-node capacity in messages (Store + Cache);
            None = unlimited (Figure 7 sweeps this).
        location_mode: destination-knowledge situation (Table 2).
        face_routing: enable face recovery at local minima.
        max_face_steps: face-walk step budget before giving up and
            falling back to store-and-forward.
        face_cooldown: seconds a copy must wait after an unsuccessful
            face episode before starting another.  In a disconnected
            cluster a face walk just circumnavigates the component; the
            cooldown stops that from repeating every check interval.
        two_face: launch bi-directional face traversals (2FACE, after
            arXiv cs/0611117): on entering face mode the copy walks the
            face counter-clockwise as usual, and a mirror copy is sent
            the other way around simultaneously.  Whichever direction
            reaches a node closer to the destination first resumes
            greedy there; when the walks meet, the duplicate-merge
            machinery collapses them back to one copy.  Halves the
            worst-case face detour at the cost of one extra in-flight
            copy per recovery.
        progress_margin_fraction: greedy hysteresis as a fraction of the
            radio range — a neighbour must be at least this much closer
            to the destination to receive the message.  Suppresses
            back-and-forth hand-offs between two drifting nodes whose
            relative order to the destination flips every beacon.
        range_guard_fraction: neighbours farther than this fraction of
            the radio range are not used as next hops.  Beacon positions
            are up to one interval stale; a neighbour seen at the range
            edge has often already left it, and every such failed
            hand-off costs a custody timeout.  (The paper works around
            the same staleness by re-acquiring locations during data
            exchange.)
        stale_patience_rounds: routing rounds without progress before
            the stale-location perturbation is considered.
        stale_age: belief age (seconds) beyond which a destination
            location counts as stale.
        use_ldt: route on LDTG neighbours (True, the paper's design) or
            directly on all radio neighbours (False; ablation).
    """

    check_interval: float = 0.9
    connectivity_threshold: float = 0.9
    sparse_copies: int = 3
    copies_override: int | None = None
    custody: bool = True
    custody_timeout: float = 5.0
    storage_limit: int | None = None
    location_mode: LocationMode = LocationMode.SOURCE
    face_routing: bool = True
    max_face_steps: int = 8
    face_cooldown: float = 10.0
    two_face: bool = False
    progress_margin_fraction: float = 0.10
    range_guard_fraction: float = 1.0
    stale_patience_rounds: int = 10
    stale_age: float = 60.0
    use_ldt: bool = True
    failed_hop_exclusion: float = 25.0

    def __post_init__(self) -> None:
        if self.check_interval <= 0:
            raise ValueError("check interval must be positive")
        if not 0.0 < self.connectivity_threshold <= 1.0:
            raise ValueError("connectivity threshold must be in (0, 1]")
        if self.sparse_copies < 1:
            raise ValueError("sparse_copies must be >= 1")
        if self.copies_override is not None and self.copies_override < 1:
            raise ValueError("copies_override must be >= 1")
        if self.custody_timeout <= 0:
            raise ValueError("custody timeout must be positive")
        if self.storage_limit is not None and self.storage_limit < 1:
            raise ValueError("storage limit must be >= 1")
        if self.max_face_steps < 1:
            raise ValueError("max_face_steps must be >= 1")
        if self.face_cooldown < 0:
            raise ValueError("face_cooldown must be non-negative")
        if not 0.0 <= self.progress_margin_fraction < 1.0:
            raise ValueError("progress_margin_fraction must be in [0, 1)")
        if not 0.0 < self.range_guard_fraction <= 1.0:
            raise ValueError("range_guard_fraction must be in (0, 1]")
        if self.failed_hop_exclusion < 0:
            raise ValueError("failed_hop_exclusion must be non-negative")
        if self.stale_patience_rounds < 1:
            raise ValueError("stale_patience_rounds must be >= 1")
        if self.stale_age <= 0:
            raise ValueError("stale_age must be positive")


class _CopyState:
    """Mutable per-copy routing state held alongside the stored copy."""

    __slots__ = ("copy", "fail_rounds", "fail_signature", "last_next_hop",
                 "hop_failures")

    def __init__(self, copy: MessageCopy):
        self.copy = copy
        self.fail_rounds = 0
        # Neighbourhood signature at the last failed attempt.  While it
        # is unchanged, re-attempting is pointless (paper 3.2: resend
        # when "relative location with respect to the neighboring nodes
        # changes and new path emerges").
        self.fail_signature: object = None
        # The neighbour the copy was last handed to (custody pending).
        self.last_next_hop: NodeId | None = None
        # Neighbours whose hand-off recently timed out, with the timeout
        # time.  Excluded from candidate selection for a while — the
        # paper's rescheduling "may or may not choose the same next hop
        # this time", and retrying a hop that just failed (peer moved
        # away, or peer already relayed this copy) only burns airtime.
        self.hop_failures: dict[NodeId, float] = {}


class GLRProtocol(Protocol):
    """One node's GLR instance (see module docstring)."""

    name = "glr"

    def __init__(self, config: GLRConfig | None = None):
        super().__init__()
        self.config = config if config is not None else GLRConfig()
        self.dual = DualStore(capacity=self.config.storage_limit)
        self.custody: CustodyManager | None = None
        self._round_task = None
        self._region: Region | None = None
        # Diagnostics exposed for tests and the ablation benches.
        self.rounds_run = 0
        self.rounds_skipped = 0
        self.greedy_forwards = 0
        self.direct_deliveries = 0
        self.face_entries = 0
        self.face_steps_taken = 0
        self.two_face_launches = 0
        self.store_stalls = 0
        self.location_resets = 0
        self.duplicates_ignored = 0
        self._last_topology_key: object = None
        # Copies accepted recently, by copy id -> acceptance time.  A
        # custody retransmission can arrive after the copy has already
        # been forwarded onward; without this memory the duplicate would
        # be re-accepted and the copy would breed (two live instances of
        # the same copy id ping-ponging traffic).  Entries expire after
        # ``_SEEN_TTL`` so a genuine long-cycle revisit is still allowed.
        self._seen: dict[tuple, float] = {}

    #: Seconds a processed copy id is remembered for duplicate rejection.
    _SEEN_TTL = 60.0
    #: Prune the seen-cache when it grows beyond this many entries.
    _SEEN_PRUNE_SIZE = 2048

    # ------------------------------------------------------------------
    # Protocol lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        assert self.api is not None, "protocol must be attached before start"
        self.custody = CustodyManager(
            schedule=self.api.schedule,
            store=self.dual,
            timeout=self.config.custody_timeout,
            on_returned=self._on_custody_returned,
        )
        jitter = self.config.check_interval * 0.05
        self._round_task = self.api.periodic(
            self.config.check_interval, self._routing_round, jitter=jitter
        )

    def detach(self) -> None:
        # The custody manager's armed timers, its ``schedule`` callable
        # and its ``on_returned`` hook all lead back to this protocol.
        if self.custody is not None:
            self.custody.cancel_all()
            self.custody = None
        super().detach()

    def _require_region(self) -> Region:
        # The region rectangle is needed for random location guesses; it
        # is reconstructed from the world's area assuming the paper's
        # known deployment rectangle is available to every node.
        if self._region is None:
            mobility = self.api._world.mobility  # noqa: SLF001 - world wiring
            self._region = mobility.region
        return self._region

    # ------------------------------------------------------------------
    # Message injection (paper: source side of Algorithm 2)
    # ------------------------------------------------------------------

    def on_message_created(self, message: Message) -> None:
        assert self.api is not None
        now = self.api.now()
        copies = self.config.copies_override
        if copies is None:
            decision = decide_copies(
                n_nodes=self.api.n_nodes,
                radius=self.api.config.radio.range_m,
                area=self.api.region_area,
                threshold=self.config.connectivity_threshold,
                sparse_copies=self.config.sparse_copies,
            )
            copies = decision.copies

        location, timestamp = self._initial_location(message.dest, now)
        for branch, rank in branch_assignment(copies):
            copy = MessageCopy(
                message=message,
                branch=branch.value,
                mid_rank=rank,
                dest_location=location,
                dest_location_time=timestamp,
            )
            self.dual.add_to_store(copy.copy_id, _CopyState(copy))

    def _initial_location(
        self, dest: NodeId, now: float
    ) -> tuple[Point, float]:
        assert self.api is not None
        mode = self.config.location_mode
        if mode is LocationMode.NONE:
            guess = initial_location_guess(self._require_region(), self.api.rng)
            return guess, float("-inf")
        # ORACLE and SOURCE both stamp the true location at creation
        # ("Source knows the true destination location" assumption);
        # ORACLE additionally refreshes at every hop (see _refresh).
        return self.api.oracle_position_of(dest), now

    # ------------------------------------------------------------------
    # Routing round (paper Algorithm 2 main loop)
    # ------------------------------------------------------------------

    def _routing_round(self) -> None:
        assert self.api is not None
        if not len(self.dual.store):
            return
        neighbors = self.api.neighbors()
        if not neighbors:
            # Isolated node: nothing can move, stay in store state.
            self.rounds_skipped += 1
            return
        # Paper 3.2: a node in store state re-checks only when something
        # changed.  "Changed" here = new beacon epoch (positions moved)
        # — store content changes re-enter via fail_rounds reset anyway.
        topology_key = (self.api.beacon_epoch(), len(self.dual.store))
        if topology_key == self._last_topology_key:
            self.rounds_skipped += 1
            return
        self._last_topology_key = topology_key
        self.rounds_run += 1
        for copy_id in list(self.dual.store.keys()):
            state = self.dual.store.get(copy_id)
            if state is None:
                continue
            self._route_copy(copy_id, state, neighbors)

    def _route_copy(
        self,
        copy_id: tuple,
        state: _CopyState,
        neighbors: set[NodeId],
    ) -> None:
        assert self.api is not None
        copy = state.copy
        message = copy.message
        now = self.api.now()

        # 1. Destination in radio range: hand over directly.
        if message.dest in neighbors:
            self.direct_deliveries += 1
            self._forward(copy_id, state, message.dest)
            return

        # 2. Refresh the believed destination location.
        copy = self._refresh_location(copy, message.dest, now)
        state.copy = copy
        dest_pos = copy.dest_location
        if dest_pos is None:
            state.fail_rounds += 1
            return

        # 2b. Skip when nothing changed since the last failed attempt
        # (paper 3.2: resend only when the relative neighbourhood
        # changes and a new path emerges).  The signature covers the
        # neighbour membership and the believed destination cell; face
        # walks are never gated (their state lives in the copy and a
        # walk always arrives with a fresh _CopyState).
        signature = (
            frozenset(neighbors),
            round(dest_pos.x / 25.0),
            round(dest_pos.y / 25.0),
        )
        if not copy.in_face_mode and signature == state.fail_signature:
            state.fail_rounds += 1
            self._maybe_reset_stale_location(state, now)
            return

        # 3. Routing-graph neighbours (LDTG by default), guarded against
        # beacon staleness at the range edge, minus recently failed hops.
        if self.config.use_ldt:
            graph_neighbors = self.api.ldt_neighbors() & neighbors
        else:
            graph_neighbors = neighbors
        if state.hop_failures:
            cutoff = now - self.config.failed_hop_exclusion
            state.hop_failures = {
                n: t for n, t in state.hop_failures.items() if t >= cutoff
            }
            graph_neighbors = graph_neighbors - state.hop_failures.keys()
        my_pos = self.api.position()
        guard = self.config.range_guard_fraction * self.api.config.radio.range_m
        positions = {
            n: pos
            for n in graph_neighbors
            if distance(my_pos, pos := self.api.beacon_position(n)) <= guard
        }

        # 4. Face-routing mode.
        if copy.in_face_mode:
            if (
                copy.face_start_distance is not None
                and distance(my_pos, dest_pos) < copy.face_start_distance
            ):
                copy = copy.leaving_face_mode()
                state.copy = copy
            else:
                self._face_step(copy_id, state, positions, my_pos)
                return

        # 5. Greedy DSTD forwarding (with drift hysteresis).
        margin = self.config.progress_margin_fraction * (
            self.api.config.radio.range_m
        )
        next_hop = dstd_next_hop(
            my_pos,
            dest_pos,
            positions,
            Branch(copy.branch),
            copy.mid_rank,
            min_progress=margin,
        )
        if next_hop is not None:
            state.fail_rounds = 0
            self.greedy_forwards += 1
            self._forward(copy_id, state, next_hop)
            return

        # 6. Local minimum: enter face routing if possible (and not in
        # cooldown after a recent fruitless face episode).
        if (
            self.config.face_routing
            and positions
            and now >= copy.face_block_until
        ):
            first = first_face_hop(my_pos, dest_pos, positions)
            if first is not None:
                self.face_entries += 1
                start_distance = distance(my_pos, dest_pos)
                if self.config.two_face:
                    self._launch_mirror_walk(
                        copy, my_pos, dest_pos, positions, first,
                        start_distance,
                    )
                state.copy = copy.entering_face_mode(
                    prev=self.api.node_id,
                    start_distance=start_distance,
                )
                self._forward(copy_id, state, first)
                return

        # 7. Store state: wait for topology change (paper Section 3.2).
        self.store_stalls += 1
        state.fail_rounds += 1
        state.fail_signature = signature
        self._maybe_reset_stale_location(state, now)

    def _maybe_reset_stale_location(self, state: _CopyState, now: float) -> None:
        """Paper 3.3: re-aim a copy stalled against a stale destination
        location at a new random place, so the node closest to the wrong
        location can push it out again."""
        assert self.api is not None
        copy = state.copy
        if state.fail_rounds < self.config.stale_patience_rounds:
            return
        if not is_belief_stale(
            copy.dest_location_time, now, self.config.stale_age
        ):
            return
        self.location_resets += 1
        state.copy = replace(
            copy,
            dest_location=perturbed_location(
                self._require_region(), self.api.rng
            ),
        )
        state.fail_rounds = 0
        state.fail_signature = None

    def _launch_mirror_walk(
        self,
        copy: MessageCopy,
        my_pos: Point,
        dest_pos: Point,
        positions: dict[NodeId, Point],
        ccw_first: NodeId,
        start_distance: float,
    ) -> None:
        """2FACE: fire the clockwise twin of a face walk being entered.

        The twin carries the same copy id, so it is not a new copy in
        the multi-copy sense: wherever the two walks meet, the
        duplicate-merge path (ack + ignore) collapses them back to one
        instance, and delivery metrics dedup on the message uid.  It is
        sent without taking custody — the counter-clockwise primary
        already holds it; losing the twin merely degrades 2FACE to the
        ordinary single walk.
        """
        assert self.api is not None
        cw_first = first_face_hop(my_pos, dest_pos, positions, clockwise=True)
        if cw_first is None or cw_first == ccw_first:
            # One viable first edge only: both directions would traverse
            # the same node next, so a twin adds traffic, not coverage.
            return
        twin = copy.entering_face_mode(
            prev=self.api.node_id,
            start_distance=start_distance,
            direction="cw",
        )
        if self.api.send(data_frame(self.api.node_id, cw_first, twin)):
            self.two_face_launches += 1

    def _face_step(
        self,
        copy_id: tuple,
        state: _CopyState,
        positions: dict[NodeId, Point],
        my_pos: Point,
    ) -> None:
        assert self.api is not None
        copy = state.copy
        now = self.api.now()
        blocked_until = now + self.config.face_cooldown
        if copy.face_steps >= self.config.max_face_steps or not positions:
            state.copy = copy.leaving_face_mode(block_until=blocked_until)
            state.fail_rounds += 1
            return
        prev = copy.face_prev
        clockwise = copy.face_dir == "cw"
        next_hop: NodeId | None
        if prev is None or prev == self.api.node_id:
            dest_pos = copy.dest_location
            next_hop = (
                first_face_hop(
                    my_pos, dest_pos, positions, clockwise=clockwise
                )
                if dest_pos is not None
                else None
            )
        else:
            prev_pos = self.api.beacon_position(prev)
            next_hop = next_face_hop(
                my_pos, prev_pos, positions, prev, clockwise=clockwise
            )
        if next_hop is None:
            state.copy = copy.leaving_face_mode(block_until=blocked_until)
            state.fail_rounds += 1
            return
        self.face_steps_taken += 1
        state.copy = copy.face_stepped(prev=self.api.node_id)
        self._forward(copy_id, state, next_hop)

    def _refresh_location(
        self, copy: MessageCopy, dest: NodeId, now: float
    ) -> MessageCopy:
        assert self.api is not None
        if self.config.location_mode is LocationMode.ORACLE:
            return copy.with_location(self.api.oracle_position_of(dest), now)
        record = self.api.location_of(dest)
        if record is not None and record.timestamp > copy.dest_location_time:
            return copy.with_location(record.position, record.timestamp)
        return copy

    # ------------------------------------------------------------------
    # Transmission and custody
    # ------------------------------------------------------------------

    def _forward(
        self, copy_id: tuple, state: _CopyState, next_hop: NodeId
    ) -> None:
        assert self.api is not None
        frame = data_frame(self.api.node_id, next_hop, state.copy)
        if not self.api.send(frame):
            # MAC queue full: keep the copy stored; next round retries.
            return
        state.last_next_hop = next_hop
        if self.config.custody and self.custody is not None:
            self.custody.on_sent(copy_id)
        else:
            self.dual.drop(copy_id)

    def _on_custody_returned(self, copy_id: object) -> None:
        assert self.api is not None
        state = self.dual.store.get(copy_id)
        if isinstance(state, _CopyState):
            # Returned copies retry immediately on the next round; a
            # failed hand-off usually means the chosen neighbour moved
            # (or silently refused a duplicate) — avoid it for a while.
            if state.last_next_hop is not None:
                state.hop_failures[state.last_next_hop] = self.api.now()
                state.last_next_hop = None
            state.fail_rounds = 0
            state.fail_signature = None
            state.copy = state.copy.leaving_face_mode()

    # ------------------------------------------------------------------
    # Frame reception
    # ------------------------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        assert self.api is not None
        if frame.kind is FrameKind.ACK:
            if self.custody is not None:
                self.custody.on_ack(frame.payload)
            return
        if frame.kind is not FrameKind.DATA:
            return
        copy: MessageCopy = frame.payload
        copy = copy.hopped()
        message = copy.message
        now = self.api.now()

        def send_custody_ack() -> None:
            # Paper 2.3.2: "Whenever a node successfully receives a
            # message, it notifies the sender" — and only then may the
            # sender delete its cached instance.
            if self.config.custody:
                self.api.send(
                    ack_frame(self.api.node_id, frame.sender, copy.copy_id)
                )

        # Location diffusion: the packet teaches the relay.
        if copy.dest_location is not None and copy.dest_location_time > float(
            "-inf"
        ):
            self.api.learn_location(
                message.dest,
                LocationRecord(copy.dest_location, copy.dest_location_time),
            )

        if message.dest == self.api.node_id:
            send_custody_ack()
            self.api.metrics.on_delivered(message, now, copy.hops)
            return

        if copy.copy_id in self.dual.store or copy.copy_id in self.dual.cache:
            # Already holding this copy: acknowledge so the sender's
            # instance is released and exactly one survives (merge).
            send_custody_ack()
            self.duplicates_ignored += 1
            return

        if self.config.custody and self._seen_recently(copy.copy_id, now):
            # Relayed this copy onward a moment ago.  Adopting it again
            # would breed a second live instance; acknowledging without
            # adopting would annihilate the sender's only instance.  So
            # stay silent: the sender keeps custody and reroutes after
            # its timeout.
            self.duplicates_ignored += 1
            return

        send_custody_ack()
        self._seen[copy.copy_id] = now
        self._prune_seen(now)
        self.dual.add_to_store(copy.copy_id, _CopyState(copy))

    def _seen_recently(self, copy_id: tuple, now: float) -> bool:
        accepted_at = self._seen.get(copy_id)
        return accepted_at is not None and now - accepted_at < self._SEEN_TTL

    def _prune_seen(self, now: float) -> None:
        if len(self._seen) <= self._SEEN_PRUNE_SIZE:
            return
        cutoff = now - self._SEEN_TTL
        self._seen = {
            cid: t for cid, t in self._seen.items() if t >= cutoff
        }

    # ------------------------------------------------------------------
    # Storage metrics
    # ------------------------------------------------------------------

    def storage_occupancy(self) -> int:
        return self.dual.occupancy()

    def storage_peak(self) -> int:
        return self.dual.peak_occupancy

    def sample_storage(self, now: float) -> None:
        self.dual.sample(now)

    def storage_time_average(self, horizon: float) -> float:
        return self.dual.time_average_occupancy(horizon)
