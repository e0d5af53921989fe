"""Layer spans for the traced benchmark run.

The tracer wraps calls into each simulator layer's public functions
from outside the program: nothing under ``src/`` knows it exists.  A
wrapper opens a span named after its layer, closes it when the call
returns, and charges the layer its *self* time: the span's duration
minus the part covered by spans opened inside it.  Spans are kept in
memory, aggregated by (parent layer, layer), and written out once the
run ends (:meth:`Tracer.to_json`).

Patches are installed before the world is built, because ``NodeMac``
captures ``mobility.position`` as a bound method at construction, and
each name is patched where its caller looks it up (the module that
imported it, or the class whose instances call it).
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

_MISSING = object()


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        #: layer -> exclusive seconds.
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: layer -> spans closed.
        self.spans: Counter[str] = Counter()
        #: (parent layer, layer) -> [spans, inclusive seconds].
        self.edges: defaultdict[tuple, list] = defaultdict(lambda: [0, 0.0])
        #: named counts and summed observations (edges built, points...).
        self.counts: Counter[str] = Counter()
        self._names: list[str] = []
        self._child: list[float] = []

    def _close(self, layer: str, parent: str | None, elapsed: float) -> None:
        inner = self._child.pop()
        self._names.pop()
        self.self_s[layer] += elapsed - inner
        self.spans[layer] += 1
        edge = self.edges[(parent, layer)]
        edge[0] += 1
        edge[1] += elapsed
        if self._child:
            self._child[-1] += elapsed

    def wrap(self, layer: str, fn, after=None):
        """``fn`` inside a ``layer`` span; ``after(args, result)`` runs
        once the span is closed (its cost lands in the parent span)."""
        names = self._names
        child = self._child
        close = self._close
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = names[-1] if names else None
            names.append(layer)
            child.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(layer, parent, perf() - start)
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, key: str, fn, before=None):
        """``fn`` with a call counter and no span (cheap hot-path hooks)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span around benchmark-side code (campaign, analysis...)."""
        parent = self._names[-1] if self._names else None
        self._names.append(layer)
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(layer, parent, time.perf_counter() - start)

    def total_self_s(self) -> float:
        """Exclusive seconds over every layer (= root span time)."""
        return sum(self.self_s.values())

    def to_json(self) -> dict:
        """The aggregated span tree and counters, JSON-ready."""
        return {
            "self_s": dict(self.self_s),
            "spans": dict(self.spans),
            "edges": [
                {"parent": parent, "layer": layer, "spans": n, "total_s": t}
                for (parent, layer), (n, t) in sorted(
                    self.edges.items(), key=lambda kv: -kv[1][1]
                )
            ],
            "counts": dict(self.counts),
        }


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make) -> None:
        """Set ``owner.name`` to ``make(current value)``.

        The current value may be inherited; restoring then deletes the
        override instead of copying the base class's attribute down.
        """
        own = vars(owner).get(name, _MISSING)
        setattr(owner, name, make(getattr(owner, name)))
        self._undo.append((owner, name, own))

    def restore(self) -> None:
        while self._undo:
            owner, name, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    """Install every layer wrapper for the duration of the block."""
    from repro.experiments import campaign, runner, stream
    from repro.graphs import ldt
    from repro.mobility.random_waypoint import RandomWaypointMobility
    from repro.sim import neighbors
    from repro.sim.engine import Simulator
    from repro.sim.mac import Medium, NodeMac
    from repro.sim.stats import MetricsCollector
    from repro.sim.world import NodeApi, World

    counts = tracer.counts
    queriers: set[tuple[int, object]] = set()

    def on_udg(args, graph) -> None:
        counts["udg.edges"] += graph.edge_count()

    def on_ldt(args, graph) -> None:
        counts["ldt.nodes_triangulated"] += len(args[0])

    def on_delaunay(args, edges) -> None:
        counts["delaunay.points"] += len(args[0])

    def on_ldt_query(args) -> None:
        service, node = args[0], args[1]
        queriers.add((service.epoch, node))

    def traced_run(run):
        span = tracer.wrap("engine", run)

        def run_world(self, *args, **kwargs):
            queriers.clear()
            # The world dispatches through instance lookups, so
            # instance attributes shadow the class methods for this run.
            for protocol in self.protocols.values():
                protocol.on_frame = tracer.wrap("protocol", tracer.count(
                    "protocol.frames_in", protocol.on_frame))
                protocol.on_message_created = tracer.wrap(
                    "protocol", tracer.count(
                        "protocol.messages_created",
                        protocol.on_message_created))
            result = span(self, *args, **kwargs)
            counts["engine.events"] += self.sim.events_processed
            counts["ldt.queriers"] += len(queriers)
            for protocol in self.protocols.values():
                counts["protocol.greedy_forwards"] += getattr(
                    protocol, "greedy_forwards", 0
                )
                counts["protocol.face_entries"] += getattr(
                    protocol, "face_entries", 0
                )
            return result

        return run_world

    def traced_timer(method):
        # Protocol timers reach the calendar only through NodeApi, so
        # wrapping the callback here charges every protocol timer fire.
        def schedule(self, delay, callback, *args, **kwargs):
            return method(
                self, delay, tracer.wrap("protocol", callback), *args, **kwargs
            )

        return schedule

    patches = Patches()
    try:
        patches.replace(runner, "build_world",
                        lambda fn: tracer.wrap("setup", fn))
        patches.replace(World, "run", traced_run)
        patches.replace(NodeApi, "schedule", traced_timer)
        patches.replace(NodeApi, "periodic", traced_timer)
        patches.replace(Simulator, "schedule_at",
                        lambda fn: tracer.count("engine.schedules", fn))
        for name in ("position", "positions"):
            patches.replace(RandomWaypointMobility, name,
                            lambda fn: tracer.wrap("mobility", fn))
        patches.replace(neighbors, "unit_disk_graph",
                        lambda fn: tracer.wrap("udg", fn, on_udg))
        patches.replace(neighbors, "local_delaunay_graph",
                        lambda fn: tracer.wrap("ldt", fn, on_ldt))
        patches.replace(ldt, "delaunay_edges",
                        lambda fn: tracer.wrap("delaunay", fn, on_delaunay))
        patches.replace(neighbors.NeighborService, "ldt_neighbors",
                        lambda fn: tracer.count("ldt.queries", fn,
                                                on_ldt_query))
        patches.replace(NodeMac, "enqueue",
                        lambda fn: tracer.wrap(
                            "mac", tracer.count("mac.enqueues", fn)))
        for name in ("_attempt", "_complete"):
            patches.replace(NodeMac, name, lambda fn: tracer.wrap("mac", fn))
        for name in ("contention_at", "busy_until", "interferers_at"):
            patches.replace(Medium, name, lambda fn: tracer.wrap(
                "mac.medium", tracer.count("mac.medium_queries", fn)))
        patches.replace(Medium, "register",
                        lambda fn: tracer.wrap("mac.medium", fn))
        patches.replace(MetricsCollector, "on_delivered",
                        lambda fn: tracer.wrap(
                            "stats", tracer.count("stats.delivered_calls", fn)))
        patches.replace(MetricsCollector, "on_created",
                        lambda fn: tracer.wrap("stats", fn))
        # The campaign engine imported the stream functions by name; the
        # result store reaches load_stream through the stream module.
        for module in (campaign, stream):
            patches.replace(module, "append_record",
                            lambda fn: tracer.wrap(
                                "stream.append",
                                tracer.count("stream.appends", fn)))
            patches.replace(module, "init_stream",
                            lambda fn: tracer.wrap("stream.init", fn))
            patches.replace(module, "load_stream",
                            lambda fn: tracer.wrap("stream.load", fn))
        yield tracer
    finally:
        patches.restore()
