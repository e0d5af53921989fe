"""Build and run simulation worlds from scenarios.

The runner is the only place where scenario values are translated into
simulator/protocol configuration, so every experiment driver and bench
goes through the same code path.  Protocol construction flows through
the protocol registry (:mod:`repro.baselines.registry`): the runner
never names a concrete protocol class, so registering a protocol makes
it runnable here with no further wiring.

``protocol_config`` is the single configuration argument: it accepts a
declarative :class:`~repro.experiments.protocols.ProtocolConfig` (the
campaign sweep axis) or a concrete config dataclass instance
(``GLRConfig``, ``EpidemicConfig``, ...).  A config is either applied
or refused: the registry rejects a concrete config of the wrong class.
"""

from __future__ import annotations

from repro.baselines.registry import available_protocols  # noqa: F401 - re-exported
from repro.baselines.registry import protocol_factory, resolve_protocol
from repro.experiments.protocols import ProtocolConfig
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
    protocol_config: "ProtocolConfig | object | None" = None,
) -> object | None:
    """The concrete config a run of ``protocol`` uses (None: defaults).

    A declarative :class:`ProtocolConfig` is validated against the
    protocol and built into its concrete config dataclass; a concrete
    config instance passes through (the registry type-checks it at
    factory build time).
    """
    if isinstance(protocol_config, ProtocolConfig):
        canonical = resolve_protocol(protocol)
        # A declarative ProtocolConfig (campaign protocol axis) must
        # name the protocol it configures; accepting a mismatch would
        # make it ambiguous which one a run keyed on.
        if protocol_config.protocol != canonical:
            raise ValueError(
                f"protocol config is for {protocol_config.protocol!r}, "
                f"but the run requests {canonical!r}"
            )
        return protocol_config.build()
    return protocol_config


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
    protocol_config: "ProtocolConfig | object | None" = None,
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
    protocol_config: "ProtocolConfig | object | None" = None,
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
    protocol_config: "ProtocolConfig | object | None" = None,
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
        config = resolve_run_config(canonical, protocol_config)
        return [
            run_single(
                scenario.with_seed(replicate_seed(scenario.seed, i)),
                canonical,
                protocol_config=config,
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
