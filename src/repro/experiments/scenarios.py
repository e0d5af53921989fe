"""Scenario definitions (paper Table 1).

A :class:`Scenario` is a pure value object describing one simulated
world: population, region, radio range, mobility, traffic, and horizon.
``PAPER_TABLE1`` captures the defaults of the paper's Table 1; every
experiment driver derives its sweeps from it with :meth:`Scenario.but`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.mobility.base import Region
from repro.mobility.registry import MobilityConfig, as_mobility_config
from repro.sim.adversary import AdversaryConfig, as_adversary_config


@dataclass(frozen=True)
class Scenario:
    """One simulation scenario.

    Attributes mirror the paper's Table 1:

        n_nodes: number of mobile nodes (50).
        region: topology rectangle (1500 m x 300 m).
        radius: transmission range in metres (50–250 sweep).
        min_speed / max_speed: uniform mobility speed range (0–20 m/s).
        pause_time: random-waypoint pause (0 s).
        message_count: messages generated (1980 = 45 sources x 44 dests).
        message_interval: seconds between generations ("packets are
            generated every second").
        message_start: generation start time.
        active_nodes: how many nodes act as sources/destinations (45).
        payload_bytes: packet payload size (1000).
        sim_time: horizon in seconds (1200 or 3800 in the paper).
        beacon_interval: neighbour/location refresh (IMEP tick).
        queue_limit: link-layer queue length (150).
        data_rate_bps: link rate (1 Mbps).
        seed: master seed for this scenario instance.
        mobility: declarative movement pattern
            (:class:`~repro.mobility.registry.MobilityConfig`; strings
            and mappings are coerced).  ``None`` — the default — means
            the paper's random waypoint driven by ``min_speed`` /
            ``max_speed`` / ``pause_time`` above, byte-identical to the
            pre-registry behaviour.
        adversary: Byzantine adversary in force
            (:class:`~repro.sim.adversary.AdversaryConfig`; strings
            like ``"blackhole:0.2"`` and mappings are coerced).
            ``None`` — the default — is the honest world; a zero
            fraction coerces to ``None`` so "no adversary" has exactly
            one spelling in cache keys and spec hashes.  Which nodes
            are compromised derives from the scenario seed, so all
            execution strategies select the same set.
    """

    name: str = "paper-default"
    n_nodes: int = 50
    region: Region = field(default_factory=lambda: Region(1500.0, 300.0))
    radius: float = 100.0
    min_speed: float = 0.0
    max_speed: float = 20.0
    pause_time: float = 0.0
    message_count: int = 1980
    message_interval: float = 1.0
    message_start: float = 1.0
    active_nodes: int = 45
    payload_bytes: int = 1000
    sim_time: float = 3800.0
    beacon_interval: float = 1.0
    queue_limit: int = 150
    data_rate_bps: float = 1_000_000.0
    seed: int = 1
    mobility: MobilityConfig | None = None
    adversary: AdversaryConfig | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.max_speed <= 0:
            raise ValueError("max speed must be positive")
        if self.min_speed < 0 or self.min_speed > self.max_speed:
            raise ValueError("need 0 <= min_speed <= max_speed")
        if self.message_count < 0:
            raise ValueError("message count must be non-negative")
        if self.message_interval <= 0:
            raise ValueError("message interval must be positive")
        if self.message_start < 0:
            raise ValueError("message start must be non-negative")
        if self.payload_bytes < 1:
            raise ValueError("payload must be at least one byte")
        if self.data_rate_bps <= 0:
            raise ValueError("data rate must be positive")
        if not 2 <= self.active_nodes <= self.n_nodes:
            raise ValueError("active_nodes must be in [2, n_nodes]")
        if self.sim_time <= 0:
            raise ValueError("sim time must be positive")
        if self.beacon_interval <= 0:
            raise ValueError("beacon interval must be positive")
        if self.queue_limit < 1:
            raise ValueError("queue limit must be >= 1")
        # Coerce strings / mappings ("gauss-markov", {"model": ...}) so
        # sweep grids and JSON specs can name models directly.
        object.__setattr__(self, "mobility", as_mobility_config(self.mobility))
        # Same coercion contract for the adversary axis ("blackhole:0.2",
        # {"mode": ..., "fraction": ...}); fraction 0 normalises to None.
        object.__setattr__(
            self, "adversary", as_adversary_config(self.adversary)
        )
        fields = type(self).__dataclass_fields__
        motion_defaults = tuple(
            fields[name].default
            for name in ("min_speed", "max_speed", "pause_time")
        )
        if self.mobility is not None and (
            (self.min_speed, self.max_speed, self.pause_time)
            != motion_defaults
        ):
            # The scenario motion fields only drive the default RWP
            # path; a registry model takes speeds from its own params.
            # Rejecting the combination prevents sweeps that *look*
            # like speed sensitivity grids but simulate identically.
            raise ValueError(
                "min_speed/max_speed/pause_time only apply to the "
                "default random waypoint path; pass them as parameters "
                f"of the mobility config instead ({self.mobility})"
            )

    def but(self, **changes) -> "Scenario":
        """A copy of this scenario with the given fields replaced."""
        return replace(self, **changes)

    def with_seed(self, seed: int) -> "Scenario":
        """A copy with a different seed (replicate runs)."""
        return replace(self, seed=seed)

    @property
    def area(self) -> float:
        """Deployment area in m^2."""
        return self.region.area


#: The paper's Table 1 configuration, verbatim.
PAPER_TABLE1 = Scenario()
