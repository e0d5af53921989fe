"""World orchestration: nodes, protocols, and the run loop.

A :class:`World` wires together one mobility model, one radio/MAC stack,
one neighbour service and one routing protocol instance per node, then
runs the event calendar.  Protocols interact with the world exclusively
through their :class:`NodeApi`, which scopes every query to the owning
node — a protocol cannot peek at another node's buffers, only at what
the beacon layer legitimately tells it (the oracle location query is the
single, clearly-marked exception, used for Table 2's "all nodes know the
destination location" row).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.geometry.primitives import Point
from repro.graphs.udg import NodeId
from repro.mobility.base import MobilityModel
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.mac import MacConfig, MacStats, Medium, NodeMac
from repro.sim.messages import Frame, Message
from repro.sim.neighbors import LocationRecord, NeighborService
from repro.sim.radio import RadioConfig
from repro.seeding import derive_rng
from repro.sim.stats import MetricsCollector, SimulationMetrics
from repro.telemetry.profile import (
    NULL_PROFILER,
    PHASE_CALENDAR,
    PHASE_DELIVERY,
    PHASE_PROTOCOL,
)


@dataclass(frozen=True)
class WorldConfig:
    """Simulation-wide parameters (paper Table 1 defaults).

    Attributes:
        radio: physical layer settings.
        mac: MAC settings (queue limit, backoff, collisions).
        beacon_interval: neighbour/location refresh period (IMEP tick).
        ldt_k: locality parameter of the LDTG construction (paper: 2).
        seed: master seed; per-node RNGs derive from it.
        storage_sample_interval: cadence of occupancy sampling.
    """

    radio: RadioConfig = field(default_factory=RadioConfig)
    mac: MacConfig = field(default_factory=MacConfig)
    beacon_interval: float = 1.0
    ldt_k: int = 2
    seed: int = 0
    storage_sample_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.beacon_interval <= 0:
            raise ValueError("beacon interval must be positive")
        if self.ldt_k < 1:
            raise ValueError("ldt_k must be >= 1")
        if self.storage_sample_interval <= 0:
            raise ValueError("storage sample interval must be positive")


class Protocol(abc.ABC):
    """Per-node routing protocol instance.

    Lifecycle: constructed by the factory, :meth:`attach`-ed to its node
    API, :meth:`start`-ed when the world begins running, then driven by
    :meth:`on_message_created` (locally generated traffic) and
    :meth:`on_frame` (frames arriving from the MAC), and finally
    :meth:`detach`-ed when the world closes.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.api: "NodeApi | None" = None

    def attach(self, api: "NodeApi") -> None:
        """Bind this protocol instance to its node."""
        self.api = api

    def detach(self) -> None:
        """Unbind from the node; called once, when the world closes.

        Drops :attr:`api`, the protocol's reference back into the
        world.  A protocol that holds further references to itself
        (timer handles whose callbacks are its methods, say) drops
        them here too, so reference counting frees it with its world.
        """
        self.api = None

    @abc.abstractmethod
    def start(self) -> None:
        """Schedule timers; called once before the run."""

    @abc.abstractmethod
    def on_message_created(self, message: Message) -> None:
        """A message originated at this node."""

    @abc.abstractmethod
    def on_frame(self, frame: Frame) -> None:
        """A frame addressed to this node arrived."""

    @abc.abstractmethod
    def storage_occupancy(self) -> int:
        """Messages currently held (for storage metrics)."""

    @abc.abstractmethod
    def storage_peak(self) -> int:
        """High-water mark of messages held."""

    def sample_storage(self, now: float) -> None:
        """Record a time-weighted occupancy sample (optional)."""

    def storage_time_average(self, horizon: float) -> float:
        """Time-averaged occupancy over the run (optional)."""
        return 0.0


class NodeApi:
    """The window through which one protocol instance sees the world."""

    def __init__(self, world: "World", node_id: NodeId):
        self._world = world
        self.node_id = node_id
        self.rng = derive_rng(world.config.seed, repr(node_id), "node")

    # -- time and scheduling -------------------------------------------

    def now(self) -> float:
        """Current simulation time."""
        return self._world.sim.now

    def schedule(self, delay: float, callback: Callable[[], None]):
        """One-shot timer."""
        return self._world.sim.schedule(delay, self._charged(callback))

    def periodic(
        self, interval: float, callback: Callable[[], None], jitter: float = 0.0
    ) -> PeriodicTask:
        """Self-rescheduling timer with optional jitter from the node RNG.

        The world stops the task when it closes.
        """
        task = PeriodicTask(
            self._world.sim,
            interval,
            self._charged(callback),
            jitter=jitter,
            uniform=self.rng.uniform,
            start_offset=self.rng.uniform(0.0, interval),
        )
        self._world._tasks.append(task)
        return task

    def _charged(self, callback: Callable[[], None]) -> Callable[[], None]:
        """``callback`` charged to the protocol phase while profiling.

        Timers are protocol work the calendar fires, so without this
        their time would land in the calendar residual.  With the
        profiler off the callback is returned as is: no wrapper.
        """
        profiler = self._world.profiler
        if not profiler.enabled:
            return callback

        def charged() -> None:
            t0 = profiler.start()
            callback()
            profiler.add(PHASE_PROTOCOL, t0)

        return charged

    # -- communication ---------------------------------------------------

    def send(self, frame: Frame) -> bool:
        """Hand a frame to the MAC; False when the transmit queue is full."""
        return self._world.macs[self.node_id].enqueue(frame)

    # -- neighbourhood (beacon-fresh, i.e. possibly stale) ---------------

    def neighbors(self) -> set[NodeId]:
        """One-hop neighbours as of the last beacon."""
        return self._world.neighbor_service.neighbors(self.node_id)

    def neighbor_positions(self) -> dict[NodeId, Point]:
        """Beaconed positions of one-hop neighbours."""
        return self._world.neighbor_service.neighbor_positions(self.node_id)

    def k_hop(self, k: int) -> set[NodeId]:
        """k-hop neighbourhood from the beacon snapshot."""
        return self._world.neighbor_service.k_hop(self.node_id, k)

    def ldt_neighbors(self) -> set[NodeId]:
        """This node's k-LDTG neighbours for the current beacon epoch."""
        return self._world.neighbor_service.ldt_neighbors(self.node_id)

    def beacon_epoch(self) -> int:
        """Monotone counter of beacon refreshes (topology-change hint)."""
        return self._world.neighbor_service.epoch

    def beacon_position(self, node: NodeId) -> Point:
        """Another node's position as of the last beacon epoch."""
        return self._world.neighbor_service.beacon_position(node)

    # -- own position (GPS) ----------------------------------------------

    def position(self) -> Point:
        """This node's true current position (GPS assumption)."""
        return self._world.mobility.position(self.node_id, self.now())

    # -- location tables (diffusion) --------------------------------------

    def location_of(self, subject: NodeId) -> LocationRecord | None:
        """This node's belief about ``subject``'s location."""
        return self._world.neighbor_service.location_of(self.node_id, subject)

    def learn_location(self, subject: NodeId, record: LocationRecord) -> bool:
        """Adopt a location belief if fresher.  Returns True on update."""
        return self._world.neighbor_service.learn_location(
            self.node_id, subject, record
        )

    def oracle_position_of(self, node: NodeId) -> Point:
        """True current position of any node.

        This bypasses every information constraint and exists solely for
        the "all nodes know the destination location" row of Table 2.
        """
        return self._world.mobility.position(node, self.now())

    # -- environment -------------------------------------------------------

    @property
    def config(self) -> WorldConfig:
        """World-level configuration."""
        return self._world.config

    @property
    def metrics(self) -> MetricsCollector:
        """Shared metrics collector."""
        return self._world.metrics

    @property
    def n_nodes(self) -> int:
        """Total node population (Algorithm 1 density input)."""
        return len(self._world.mobility.node_ids)

    @property
    def region_area(self) -> float:
        """Deployment area in m^2 (Algorithm 1 density input)."""
        return self._world.mobility.region.area


class World:
    """A complete simulation: mobility + stack + protocols + metrics."""

    def __init__(
        self,
        mobility: MobilityModel,
        protocol_factory: Callable[[NodeId], Protocol],
        config: WorldConfig | None = None,
        profiler=None,
        adversary=None,
    ):
        self.config = config if config is not None else WorldConfig()
        self.mobility = mobility
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.sim = Simulator()
        self.metrics = MetricsCollector(profiler=self.profiler)
        self.medium = Medium(self.sim, self.config.radio)
        self.neighbor_service = NeighborService(
            self.sim,
            mobility,
            self.config.radio,
            beacon_interval=self.config.beacon_interval,
            ldt_k=self.config.ldt_k,
            on_control_bytes=self.metrics.on_control_bytes,
            profiler=self.profiler,
        )

        self.protocols: dict[NodeId, Protocol] = {}
        self.macs: dict[NodeId, NodeMac] = {}
        self._mac_stats: dict[NodeId, MacStats] = {}
        self._started = False
        self._closed = False
        #: Every periodic task a protocol asked for (stopped on close).
        self._tasks: list[PeriodicTask] = []
        self._message_seq: dict[NodeId, int] = {}
        #: The adversary plan in force (an
        #: :class:`repro.sim.adversary.AdversaryPlan`) and the wrapper
        #: instances it installed, keyed by compromised node — honest
        #: worlds leave both empty.
        self.adversary = adversary
        self.adversaries: dict[NodeId, Protocol] = {}

        for node in mobility.node_ids:
            protocol = protocol_factory(node)
            if adversary is not None and node in adversary.nodes:
                protocol = adversary.wrap(node, protocol)
                self.adversaries[node] = protocol
            api = NodeApi(self, node)
            protocol.attach(api)
            self.protocols[node] = protocol
            stats = MacStats()
            self._mac_stats[node] = stats
            self.macs[node] = NodeMac(
                sim=self.sim,
                medium=self.medium,
                radio=self.config.radio,
                config=self.config.mac,
                node_id=node,
                position_fn=mobility.position,
                deliver=self._dispatch,
                rng=derive_rng(self.config.seed, repr(node), "mac"),
                stats=stats,
                profiler=self.profiler,
            )
            self._message_seq[node] = 0

        self._sampler = PeriodicTask(
            self.sim,
            self.config.storage_sample_interval,
            self._sample_storage,
        )

    # ------------------------------------------------------------------

    def _dispatch(self, frame: Frame) -> None:
        protocol = self.protocols.get(frame.receiver)
        if protocol is None:
            raise KeyError(f"frame addressed to unknown node {frame.receiver!r}")
        t0 = self.profiler.start()
        protocol.on_frame(frame)
        self.profiler.add(PHASE_PROTOCOL, t0)

    def _sample_storage(self) -> None:
        now = self.sim.now
        t0 = self.profiler.start()
        for protocol in self.protocols.values():
            protocol.sample_storage(now)
        self.profiler.add(PHASE_DELIVERY, t0)

    # ------------------------------------------------------------------

    def schedule_message(
        self, source: NodeId, dest: NodeId, at_time: float, size_bytes: int = 1000
    ) -> None:
        """Schedule creation of one application message."""
        self.schedule_traffic((at_time,), (source, dest), size_bytes)

    def schedule_traffic(
        self,
        times: Sequence[float],
        pairs: Sequence[NodeId],
        size_bytes: int = 1000,
    ) -> None:
        """Schedule message ``i`` from ``pairs[2i]`` to ``pairs[2i + 1]``
        at ``times[i]`` (non-decreasing).

        The messages are one calendar series: one heap entry however
        many there are, with the tiebreakers one ``schedule_at`` call per
        message would have taken, so they fire exactly as if scheduled
        one by one, here.
        """
        if len(pairs) != 2 * len(times):
            raise ValueError("need one (source, dest) pair per time")
        if not self.protocols.keys() >= set(pairs):
            raise KeyError("source and destination must be world nodes")

        def create(i: int) -> None:
            source = pairs[2 * i]
            seq = self._message_seq[source]
            self._message_seq[source] = seq + 1
            message = Message.create(
                source=source,
                dest=pairs[2 * i + 1],
                seq=seq,
                created_at=self.sim.now,
                size_bytes=size_bytes,
            )
            self.metrics.on_created(message)
            t0 = self.profiler.start()
            self.protocols[source].on_message_created(message)
            self.profiler.add(PHASE_PROTOCOL, t0)

        self.sim.schedule_series(times, create)

    def run(self, until: float, protocol_name: str | None = None) -> SimulationMetrics:
        """Start protocols, run to the horizon, and return the metrics.

        Raises:
            RuntimeError: the world has been closed.
        """
        if self._closed:
            raise RuntimeError("cannot run a closed world")
        with self.profiler.charging_gc():
            t0 = self.profiler.start()
            if not self._started:
                for protocol in self.protocols.values():
                    protocol.start()
                self._started = True
            self.sim.run(until=until)
            self.profiler.add(PHASE_CALENDAR, t0)

            t0 = self.profiler.start()
            for node, protocol in self.protocols.items():
                protocol.sample_storage(self.sim.now)
                self.metrics.record_storage(
                    node,
                    protocol.storage_peak(),
                    protocol.storage_time_average(self.sim.now),
                )

            totals: dict[str, int] = {}
            for stats in self._mac_stats.values():
                for key in (
                    "frames_sent",
                    "frames_delivered",
                    "frames_lost_collision",
                    "frames_lost_range",
                    "frames_dropped_queue",
                    "retries",
                    "bytes_sent",
                ):
                    totals[key] = totals.get(key, 0) + getattr(stats, key)

            name = protocol_name
            if name is None:
                first = next(iter(self.protocols.values()), None)
                name = first.name if first is not None else "none"
            metrics = self.metrics.snapshot(
                protocol=name,
                duration=self.sim.now,
                mac_totals=totals,
                events_processed=self.sim.events_processed,
            )
            self.profiler.add(PHASE_DELIVERY, t0)
            return metrics

    def close(self) -> None:
        """Release the world's reference cycles (idempotent).

        Stops the beacon, the storage sampler and every protocol timer,
        empties the calendar, detaches every protocol and drops each
        MAC's delivery callback.  Each of these refers back into the
        world, so without this a finished world is freed only by a full
        cyclic collection; after it, reference counting frees the world
        as soon as its last outside reference goes.  Metrics that
        :meth:`run` returned are unaffected; the world cannot run again.
        """
        if self._closed:
            return
        self._closed = True
        self.neighbor_service.stop()
        self._sampler.stop()
        for task in self._tasks:
            task.stop()
        self.sim.close()
        for protocol in self.protocols.values():
            protocol.detach()
        for mac in self.macs.values():
            mac.close()
