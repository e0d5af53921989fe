"""Build and run simulation worlds from scenarios.

The runner is the only place where scenario values are translated into
simulator/protocol configuration, so every experiment driver and bench
goes through the same code path.  Protocol construction flows through
the protocol registry (:mod:`repro.baselines.registry`): the runner
never names a concrete protocol class, so registering a protocol makes
it runnable here with no further wiring.

``protocol_config`` is the single configuration argument: a
:class:`~repro.experiments.protocols.ProtocolConfig`, its protocol
name or its mapping form, or ``None`` for the protocol's defaults.  A
concrete config dataclass (``GLRConfig``, ...) is refused: it would be
a second spelling of the same run.
"""

from __future__ import annotations

from typing import Mapping

from repro.baselines.registry import available_protocols  # noqa: F401 - re-exported
from repro.baselines.registry import protocol_factory, resolve_protocol
from repro.experiments.protocols import ProtocolConfig, run_config
from repro.experiments.scenarios import Scenario
from repro.experiments.workload import traffic_schedule
from repro.mobility.base import MobilityModel
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.registry import build_mobility
from repro.seeding import replicate_seed
from repro.sim.adversary import build_adversary_plan
from repro.sim.mac import MacConfig
from repro.sim.radio import RadioConfig
from repro.sim.stats import SimulationMetrics
from repro.sim.world import World, WorldConfig


def resolve_run_config(
    protocol: str,
    protocol_config: "ProtocolConfig | str | Mapping | None" = None,
) -> object | None:
    """The concrete config a run of ``protocol`` uses (None: defaults).

    The config is validated against the protocol
    (:func:`~repro.experiments.protocols.run_config`) and built into
    its config dataclass.
    """
    config = run_config(protocol, protocol_config)
    return None if config is None else config.build()


def _build_scenario_mobility(
    scenario: Scenario, node_ids: list
) -> MobilityModel:
    """The movement model a scenario describes.

    ``scenario.mobility is None`` is the paper's reference path: a
    random waypoint model driven by the scenario's speed/pause fields,
    constructed exactly as before the registry existed so default
    scenarios reproduce seed metrics byte-for-byte.  Any other value is
    resolved through :func:`repro.mobility.registry.build_mobility`.
    """
    if scenario.mobility is None:
        return RandomWaypointMobility(
            node_ids=node_ids,
            region=scenario.region,
            seed=scenario.seed,
            min_speed=scenario.min_speed,
            max_speed=scenario.max_speed,
            pause_time=scenario.pause_time,
        )
    return build_mobility(
        scenario.mobility, node_ids, scenario.region, scenario.seed
    )


def build_world(
    scenario: Scenario,
    protocol: str,
    buffer_limit: int | None = None,
    protocol_config: "ProtocolConfig | str | Mapping | None" = None,
    profiler=None,
) -> World:
    """Assemble a world for ``scenario`` running ``protocol`` everywhere.

    ``profiler`` (a :class:`repro.telemetry.profile.PhaseProfiler`)
    threads into every subsystem hook; ``None`` means the shared no-op.
    """
    canonical = resolve_protocol(protocol)
    config = resolve_run_config(canonical, protocol_config)
    node_ids = list(range(scenario.n_nodes))
    mobility = _build_scenario_mobility(scenario, node_ids)
    world_config = WorldConfig(
        radio=RadioConfig(
            range_m=scenario.radius, data_rate_bps=scenario.data_rate_bps
        ),
        mac=MacConfig(queue_limit=scenario.queue_limit),
        beacon_interval=scenario.beacon_interval,
        seed=scenario.seed,
    )
    factory = protocol_factory(
        canonical, config=config, buffer_limit=buffer_limit
    )
    adversary = build_adversary_plan(
        scenario.adversary, node_ids, scenario.seed
    )
    world = World(
        mobility, factory, world_config, profiler=profiler, adversary=adversary
    )
    world.schedule_traffic(
        *traffic_schedule(scenario), size_bytes=scenario.payload_bytes
    )
    return world


def run_single(
    scenario: Scenario,
    protocol: str,
    buffer_limit: int | None = None,
    protocol_config: "ProtocolConfig | str | Mapping | None" = None,
    profiler=None,
) -> SimulationMetrics:
    """Run one simulation to the scenario horizon.

    The world is closed once it has run (or raised), so reference
    counting frees it here rather than a later cyclic collection: a
    campaign worker holds one world at a time.
    """
    canonical = resolve_protocol(protocol)
    world = build_world(
        scenario,
        canonical,
        buffer_limit=buffer_limit,
        protocol_config=protocol_config,
        profiler=profiler,
    )
    try:
        return world.run(until=scenario.sim_time, protocol_name=canonical)
    finally:
        world.close()


def run_replicates(
    scenario: Scenario,
    protocol: str,
    runs: int = 10,
    protocol_config: "ProtocolConfig | str | Mapping | None" = None,
    buffer_limit: int | None = None,
    workers: int = 1,
    cache_dir: str | None = None,
) -> list[SimulationMetrics]:
    """Replicate ``scenario`` over ``runs`` seeds (paper: 10 topologies).

    Replicate seeds come from :func:`repro.seeding.replicate_seed`
    (``scenario.seed + 1000 * i``) so populations are disjoint but
    reproducible.  The default serial in-process loop is the reference
    behaviour; ``workers > 1`` and/or ``cache_dir`` route the same
    seeded tasks through the campaign engine
    (:mod:`repro.experiments.campaign`), which returns bit-identical
    metrics because every task's seed is derived before dispatch.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if workers == 1 and cache_dir is None:
        canonical = resolve_protocol(protocol)
        return [
            run_single(
                scenario.with_seed(replicate_seed(scenario.seed, i)),
                canonical,
                protocol_config=protocol_config,
                buffer_limit=buffer_limit,
            )
            for i in range(runs)
        ]
    # Imported lazily: campaign builds on this module's run_single.
    from repro.experiments.campaign import ReplicateSpec, run_replicate_specs

    spec = ReplicateSpec(
        scenario=scenario,
        protocol=protocol,
        runs=runs,
        buffer_limit=buffer_limit,
        protocol_config=protocol_config,
    )
    return run_replicate_specs(
        [spec], workers=workers, cache_dir=cache_dir
    )[0]
