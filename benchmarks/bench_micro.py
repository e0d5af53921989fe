"""Microbenchmarks for the substrates on the simulator's hot paths.

These are conventional pytest-benchmark timings (multiple rounds): the
Delaunay construction, LDTG build, RWP position queries and the event
engine dominate the simulation profile, so regressions here translate
directly into slower experiment harness runs.  Layers of a paper
Table-1 task each have one here: the k-LDTG epochs at paper density
(planarization; at N=400 both the full vote and the on-demand vote of
one epoch's queriers), the beacon rebuild (mobility + UDG), calendar
push/pop at a task's pending-event depth, the MAC medium's three
queries over a paper-density set of live transmissions, and the world's
build, run (with and without the phase profiler) and close.
"""

import random

from repro.experiments.runner import build_world
from repro.experiments.scenarios import PAPER_TABLE1
from repro.geometry.delaunay import delaunay_triangulation
from repro.geometry.primitives import Point
from repro.graphs.ldt import LdtMemo, local_delaunay_graph
from repro.graphs.udg import unit_disk_graph
from repro.mobility.base import Region
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.mac import Medium
from repro.sim.messages import HEADER_BYTES
from repro.sim.radio import RadioConfig
from repro.sim.world import World
from repro.telemetry.profile import PhaseProfiler


def _points(n, seed, side=1000.0):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]


def test_delaunay_50_points(benchmark):
    pts = _points(50, 1)
    tri = benchmark(delaunay_triangulation, pts)
    assert len(tri.triangles) > 0


def test_unit_disk_graph_50_nodes(benchmark):
    positions = {i: p for i, p in enumerate(_points(50, 2))}
    graph = benchmark(unit_disk_graph, positions, 200.0)
    assert graph.edge_count() > 0


def test_unit_disk_rebuild_vs_naive_double_discovery(benchmark):
    """Beacon-tick rebuild at paper density (50 nodes, 1500x300, 100 m).

    The rebuild discovers each edge once via forward-cell pair
    iteration (GridIndex.iter_pairs_within) and tests each pair inline
    on floats; the naive per-node query loop it replaced found every
    edge twice.  Reference numbers (shared 2-vCPU x86-64 host,
    CPython 3.11, best of 5 x 2,000 calls; the host's speed drifts by
    up to 2x): ~260 us naive vs ~95 us deduped (2.7x) at 100 m, ~400 us
    vs ~140 us (2.8x) at 250 m.  This runs every beacon interval of
    every simulated second.
    """
    rng = random.Random(7)
    positions = {
        i: Point(rng.uniform(0, 1500.0), rng.uniform(0, 300.0))
        for i in range(50)
    }

    def naive_double_discovery(positions, radius):
        # The pre-dedupe implementation, kept as the comparison baseline.
        from repro.graphs.udg import GridIndex, SpatialGraph

        graph = SpatialGraph()
        index = GridIndex(cell_size=radius)
        for node, p in positions.items():
            graph.add_node(node, p)
            index.insert(node, p)
        for node, p in positions.items():
            for other, _ in index.neighbors_within(p, radius):
                if other != node:
                    graph.adjacency[node].add(other)
        return graph

    deduped = benchmark(unit_disk_graph, positions, 100.0)
    assert deduped.edges() == naive_double_discovery(positions, 100.0).edges()


def _paper_density_mobility(n=800, seed=11):
    """An RWP population at the paper's node density, scaled up to n.

    The paper's Table 1 places 50 nodes on 1500 m x 300 m; scaling both
    region sides by sqrt(n/50) keeps nodes-per-square-metre fixed, so
    the per-tick edge work grows the way a larger paper scenario would.
    """
    import math

    scale = math.sqrt(n / 50)
    region = Region(1500.0 * scale, 300.0 * scale)
    return RandomWaypointMobility(list(range(n)), region, seed=seed)


def test_reference_rebuild_paper_density(benchmark):
    """Beacon rebuild (mobility + UDG) at paper density.

    800 nodes at paper density, 100 m range.  Each call advances the
    clock one beacon interval, as the simulator does.
    """
    mobility = _paper_density_mobility()
    clock = {"t": 0.0}

    def rebuild():
        clock["t"] += 1.0
        graph = unit_disk_graph(mobility.positions(clock["t"]), 100.0)
        return graph.edge_count()

    assert benchmark(rebuild) > 0


def test_ldtg_50_nodes(benchmark):
    positions = {i: p for i, p in enumerate(_points(50, 3))}
    graph = benchmark(local_delaunay_graph, positions, 200.0, 2)
    assert graph.edge_count() > 0


def _ldtg_epoch(benchmark, n):
    """One k-LDTG epoch as the neighbour service builds it: RWP positions
    at paper density, 100 m range, over a pre-built UDG."""
    udg = unit_disk_graph(_paper_density_mobility(n).positions(120.0), 100.0)
    graph = benchmark(local_delaunay_graph, udg.positions, 100.0, 2, udg)
    assert 0 < graph.edge_count() <= udg.edge_count()


def test_ldtg_epoch_paper_density(benchmark):
    """50 nodes on 1500 m x 300 m: one epoch of the paper's Table-1 task."""
    _ldtg_epoch(benchmark, 50)


def test_ldtg_epoch_n400_density(benchmark):
    """400 nodes at the same density (region sides x sqrt(8))."""
    _ldtg_epoch(benchmark, 400)


def test_ldtg_epoch_n400_on_demand(benchmark):
    """The same N=400 epoch as the neighbour service votes it: only the
    links of 26 querying nodes (the median per epoch of a 40-s N=400
    GLR task), a fixed seeded set, answered through one memo."""
    udg = unit_disk_graph(_paper_density_mobility(400).positions(120.0), 100.0)
    queriers = random.Random(26).sample(udg.nodes(), 26)

    def epoch():
        memo = LdtMemo()
        for node in queriers:
            local_delaunay_graph(
                udg.positions, 100.0, 2, udg, nodes=(node,), memo=memo
            )
        return memo

    memo = benchmark(epoch)
    full = local_delaunay_graph(udg.positions, 100.0, 2, udg)
    for node in queriers:
        assert memo.graph.neighbors(node) == full.neighbors(node)


def test_rwp_position_queries(benchmark):
    region = Region(1500.0, 300.0)
    mobility = RandomWaypointMobility(list(range(50)), region, seed=4)

    def query_sweep():
        total = 0.0
        for t in range(0, 1000, 10):
            total += mobility.position(t % 50, float(t)).x
        return total

    assert benchmark(query_sweep) > 0


def _noop():
    pass


def _noop_element(i):
    pass


def test_calendar_push_pop_table1_depth(benchmark):
    """Calendar push/pop at a paper Table-1 task's depth.

    The task's calendar holds its 1,980 message creations (one per
    whole second) as one series entry, plus the per-node timers: 50
    protocol ticks re-armed every second with 5% jitter, the beacon tick
    and the storage sampler.  Running 200 simulated seconds fires
    ~10,400 events against a ~50-entry heap, with the whole-second ties
    the paper's traffic makes; ``pending_events`` still counts the
    ~1,800 creations the series owes.
    """

    def run_200_seconds():
        sim = Simulator()
        rng = random.Random(9)
        sim.schedule_series([1.0 + i for i in range(1980)], _noop_element)
        for _ in range(50):
            PeriodicTask(sim, 1.0, _noop, jitter=0.05, uniform=rng.uniform,
                         start_offset=rng.uniform(0.0, 1.0))
        PeriodicTask(sim, 1.0, _noop, start_offset=1.0)
        PeriodicTask(sim, 5.0, _noop)
        sim.run(until=200.0)
        return sim.events_processed, sim.pending_events()

    events, pending = benchmark(run_200_seconds)
    assert events > 10_000 and 1_700 < pending < 2_100


def test_build_world_table1(benchmark):
    """``build_world`` for a paper Table-1 GLR task: mobility, 50
    protocol stacks, the epoch-0 beacon snapshot and the 1,980-message
    traffic series."""
    world = benchmark(build_world, PAPER_TABLE1, "glr")
    assert len(world.protocols) == 50


def test_close_world_table1(benchmark):
    """``World.close`` on a finished 40-s Table-1 GLR world: stopping 52
    timers, emptying the calendar and detaching 50 protocol stacks (with
    their armed custody timers), the teardown every campaign task pays.
    Each round's world is built and run in the untimed setup."""
    scenario = PAPER_TABLE1.but(sim_time=40.0)
    closed = []

    def finished_world():
        world = build_world(scenario, "glr")
        world.run(until=scenario.sim_time)
        closed[:] = [world]
        return (world,), {}

    benchmark.pedantic(World.close, setup=finished_world, rounds=5)
    assert closed[0].sim.pending_events() == 0


def _run_table1(benchmark, profiler_type):
    """``World.run`` on a 40-s Table-1 GLR world, built in the untimed
    setup with a ``profiler_type()`` profiler (``None``: the no-op)."""
    scenario = PAPER_TABLE1.but(sim_time=40.0)
    worlds = []

    def fresh_world():
        for world in worlds:
            world.close()
        worlds[:] = [build_world(scenario, "glr", profiler=profiler_type())]
        return (worlds[0], scenario.sim_time), {}

    metrics = benchmark.pedantic(World.run, setup=fresh_world, rounds=5)
    assert metrics.messages_created > 0


def test_run_table1(benchmark):
    """A Table-1 GLR task's run with the phase profiler off."""
    _run_table1(benchmark, lambda: None)


def test_run_table1_profiled(benchmark):
    """The same run with a ``PhaseProfiler``: its mean over
    ``test_run_table1``'s is the profiler's overhead
    (``REPRO_PROFILE_PHASES=1``)."""
    _run_table1(benchmark, PhaseProfiler)


def test_medium_queries_paper_density(benchmark):
    """The MAC medium's three queries over live transmissions.

    ~100 transmission records are held at once in an epidemic task at
    paper Table-1 density (50 nodes, 1500x300 m, 100 m range; measured
    over 40 s), each a 1,000-byte message frame's airtime at 1 Mbps, sent
    during the medium's one-second look-back window.  One round asks
    every node's position ``contention_at``, ``busy_until`` and
    ``interferers_at``, as ``NodeMac._attempt`` and ``_complete`` do.
    """
    radio = RadioConfig(range_m=100.0)
    sim = Simulator()
    sim.run(until=10.0)
    medium = Medium(sim, radio)
    rng = random.Random(13)
    nodes = [
        Point(rng.uniform(0, 1500.0), rng.uniform(0, 300.0)) for _ in range(50)
    ]
    airtime = radio.airtime(1000 + HEADER_BYTES)
    for i in range(100):
        start = rng.uniform(9.0, 10.0)
        medium.register(i % 50, nodes[i % 50], start, start + airtime)
    window_start = sim.now - airtime

    def query_every_node():
        sensed = 0
        for node, position in enumerate(nodes):
            sensed += medium.contention_at(position, exclude=node)
            medium.busy_until(position, exclude=node)
            sensed += medium.interferers_at(
                position, window_start, sim.now, exclude=node
            )
        return sensed

    assert benchmark(query_every_node) >= 0


def test_event_engine_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run_10k_events) == 10_000
