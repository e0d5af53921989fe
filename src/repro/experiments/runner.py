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
(``GLRConfig``, ``EpidemicConfig``, ...).  The historical per-protocol
keywords (``glr_config``/``epidemic_config``/``spray_config``) remain
as deprecation shims that collapse onto the same path, bit-identically
(see :func:`resolve_run_config`).
"""

from __future__ import annotations

import warnings

from repro.baselines.registry import available_protocols as _available_protocols
from repro.baselines.registry import protocol_factory, resolve_protocol
from repro.baselines.epidemic import EpidemicConfig
from repro.baselines.spray_and_wait import SprayAndWaitConfig
from repro.core.protocol import GLRConfig
from repro.experiments.protocols import ProtocolConfig
from repro.experiments.scenarios import Scenario
from repro.experiments.workload import generate_workload
from repro.mobility.base import MobilityModel
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.registry import build_mobility
from repro.seeding import replicate_seed
from repro.sim.adversary import build_adversary_plan
from repro.sim.mac import MacConfig
from repro.sim.radio import RadioConfig
from repro.sim.stats import SimulationMetrics
from repro.sim.world import World, WorldConfig


def available_protocols() -> list[str]:
    """Names accepted by :func:`run_single`'s ``protocol`` argument.

    Derived from the protocol registry; aliases resolve on use.
    """
    return _available_protocols()


def resolve_run_config(
    protocol: str,
    protocol_config: "ProtocolConfig | object | None" = None,
    glr_config: GLRConfig | None = None,
    epidemic_config: EpidemicConfig | None = None,
    spray_config: SprayAndWaitConfig | None = None,
    warn: bool = False,
) -> object | None:
    """Collapse every config spelling into one concrete config (or None).

    The single translation point between the legacy per-protocol
    keywords and the unified ``protocol_config`` path, so both APIs
    construct bit-identical protocols:

    - a declarative :class:`ProtocolConfig` is validated against the
      protocol and built into its concrete config dataclass;
    - a concrete config instance passes through (the registry
      type-checks it at factory build time);
    - with no ``protocol_config``, the legacy keyword matching the
      protocol is selected and the others are ignored — exactly how the
      old per-protocol branch chain behaved.

    ``warn`` emits a :class:`DeprecationWarning` when legacy keywords
    are in use (the public entry points pass True; internal callers
    translating stored task fields stay quiet).
    """
    canonical = resolve_protocol(protocol)
    legacy = {
        "glr": glr_config,
        "epidemic": epidemic_config,
        "spray_and_wait": spray_config,
    }
    legacy_given = [k for k, v in legacy.items() if v is not None]
    if legacy_given and warn:
        warnings.warn(
            "glr_config/epidemic_config/spray_config are deprecated; "
            "pass the config object via protocol_config instead",
            DeprecationWarning,
            stacklevel=3,
        )
    if protocol_config is not None:
        if legacy_given:
            raise ValueError(
                "pass either protocol_config or a concrete "
                "glr/epidemic/spray config, not both"
            )
        if isinstance(protocol_config, ProtocolConfig):
            # A declarative ProtocolConfig (campaign protocol axis) must
            # name the protocol it configures; accepting a mismatch
            # would make it ambiguous which one a run keyed on.
            if protocol_config.protocol != canonical:
                raise ValueError(
                    f"protocol config is for {protocol_config.protocol!r}, "
                    f"but the run requests {canonical!r}"
                )
            return protocol_config.build()
        return protocol_config
    return legacy.get(canonical)


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
    glr_config: GLRConfig | None = None,
    epidemic_config: EpidemicConfig | None = None,
    spray_config: SprayAndWaitConfig | None = None,
    buffer_limit: int | None = None,
    protocol_config: "ProtocolConfig | object | None" = None,
    profiler=None,
) -> World:
    """Assemble a world for ``scenario`` running ``protocol`` everywhere.

    ``profiler`` (a :class:`repro.telemetry.profile.PhaseProfiler`)
    threads into every subsystem hook; ``None`` means the shared no-op.
    """
    canonical = resolve_protocol(protocol)
    config = resolve_run_config(
        canonical,
        protocol_config,
        glr_config,
        epidemic_config,
        spray_config,
        warn=True,
    )
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
    for spec in generate_workload(scenario):
        world.schedule_message(
            spec.source,
            spec.dest,
            spec.at_time,
            size_bytes=scenario.payload_bytes,
        )
    return world


def run_single(
    scenario: Scenario,
    protocol: str,
    glr_config: GLRConfig | None = None,
    epidemic_config: EpidemicConfig | None = None,
    spray_config: SprayAndWaitConfig | None = None,
    buffer_limit: int | None = None,
    protocol_config: "ProtocolConfig | object | None" = None,
    profiler=None,
) -> SimulationMetrics:
    """Run one simulation to the scenario horizon."""
    canonical = resolve_protocol(protocol)
    config = resolve_run_config(
        canonical,
        protocol_config,
        glr_config,
        epidemic_config,
        spray_config,
        warn=True,
    )
    world = build_world(
        scenario,
        canonical,
        buffer_limit=buffer_limit,
        protocol_config=config,
        profiler=profiler,
    )
    return world.run(until=scenario.sim_time, protocol_name=canonical)


def run_replicates(
    scenario: Scenario,
    protocol: str,
    runs: int = 10,
    glr_config: GLRConfig | None = None,
    epidemic_config: EpidemicConfig | None = None,
    spray_config: SprayAndWaitConfig | None = None,
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
        config = resolve_run_config(
            canonical, None, glr_config, epidemic_config, spray_config
        )
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
        glr_config=glr_config,
        epidemic_config=epidemic_config,
        spray_config=spray_config,
        buffer_limit=buffer_limit,
    )
    return run_replicate_specs(
        [spec], workers=workers, cache_dir=cache_dir
    )[0]
