"""Traffic generation.

The paper: "A subset of 50 nodes act as sources and destinations, with
each of 45 nodes sending packets to other 44 nodes (1980 messages
total).  Packets are generated every second."

:func:`generate_workload` reproduces that: the ordered pairs among the
``active_nodes`` first nodes are shuffled deterministically and emitted
one per ``message_interval``.  Message counts other than the full 1980
(the "number of messages in transit" sweeps of Figures 4/5) take a
prefix of the shuffled pair list, cycling when the request exceeds the
number of distinct pairs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain

from repro.experiments.scenarios import Scenario
from repro.seeding import derive_rng


@dataclass(frozen=True)
class WorkloadSpec:
    """One scheduled application message."""

    source: int
    dest: int
    at_time: float


def traffic_schedule(scenario: Scenario) -> tuple[array, array]:
    """The message schedule in compact form: ``(times, pairs)``.

    Message ``i`` goes from ``pairs[2i]`` to ``pairs[2i + 1]`` at
    ``times[i]``.  Two flat arrays instead of one object per message,
    so a world can hold its whole traffic for the run
    (:meth:`repro.sim.world.World.schedule_traffic`).
    """
    active = range(scenario.active_nodes)
    shuffled = [(s, d) for s in active for d in active if s != d]
    derive_rng(scenario.seed, "workload").shuffle(shuffled)
    count = scenario.message_count
    start, interval = scenario.message_start, scenario.message_interval
    times = array("d", [start + i * interval for i in range(count)])
    cycle = array("l", chain.from_iterable(shuffled))
    laps, rest = divmod(count, len(shuffled))
    pairs = cycle * laps + cycle[: 2 * rest]
    return times, pairs


def generate_workload(scenario: Scenario) -> list[WorkloadSpec]:
    """Deterministic message schedule for ``scenario``.

    Node ids are integers 0..n-1; the first ``active_nodes`` of them
    participate in traffic.
    """
    times, pairs = traffic_schedule(scenario)
    return [
        WorkloadSpec(source=pairs[2 * i], dest=pairs[2 * i + 1], at_time=at)
        for i, at in enumerate(times)
    ]
