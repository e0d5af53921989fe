"""Drivers regenerating the paper's figures (data series, not plots).

Each driver runs the simulations behind one figure and returns the data
series the figure plots; ``render_*`` helpers print them in a layout
comparable to reading values off the paper's axes.  Drivers accept an
:class:`repro.experiments.common.Effort` so the benches can run reduced
workloads while the CLI can run paper-scale ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from pathlib import Path

from repro.analysis.ci import ConfidenceInterval
from repro.analysis.render import render_series
from repro.core.protocol import GLRConfig
from repro.experiments.campaign import ReplicateSpec, run_replicate_specs
from repro.experiments.common import BENCH_EFFORT, Effort, ci_of
from repro.experiments.scenarios import Scenario
from repro.graphs.connectivity import (
    connected_components,
    largest_component_fraction,
    reachable_pair_fraction,
)
from repro.graphs.udg import unit_disk_graph
from repro.mobility.base import Region
from repro.mobility.registry import MobilityConfig
from repro.mobility.static import uniform_random_positions


@dataclass
class SeriesResult:
    """One figure's data: x values and named y-series of CIs."""

    experiment: str
    title: str
    x_label: str
    xs: list[float] = field(default_factory=list)
    series: dict[str, list[ConfidenceInterval]] = field(default_factory=dict)

    def render(self) -> str:
        """Paper-comparable ASCII rendering."""
        return render_series(
            f"{self.experiment}: {self.title}",
            self.x_label,
            self.xs,
            {
                name: [str(ci) for ci in cis]
                for name, cis in self.series.items()
            },
        )


# ---------------------------------------------------------------------------
# Figure 1 — topology connectivity at 250 m vs 100 m
# ---------------------------------------------------------------------------

def fig1_topology(
    radii: tuple[float, ...] = (250.0, 100.0),
    n_nodes: int = 50,
    side: float = 1000.0,
    runs: int = 10,
    seed: int = 1,
) -> SeriesResult:
    """Figure 1: connectivity of 50 random nodes in a 1000 m square.

    The paper draws two example topologies; the quantitative content is
    "radius 250 m → (almost) connected, radius 100 m → shattered".  We
    report component counts, largest-component fraction, and the
    fraction of node pairs with *any* connecting path, averaged over
    ``runs`` random topologies.
    """
    result = SeriesResult(
        experiment="fig1",
        title=f"topology connectivity, {n_nodes} nodes in {side:.0f}m square",
        x_label="radius_m",
    )
    region = Region(side, side)
    components: list[ConfidenceInterval] = []
    largest: list[ConfidenceInterval] = []
    pairs: list[ConfidenceInterval] = []
    edge_counts: list[ConfidenceInterval] = []
    from repro.analysis.ci import mean_confidence_interval

    for radius in radii:
        comp_samples = []
        largest_samples = []
        pair_samples = []
        edge_samples = []
        for i in range(runs):
            positions = uniform_random_positions(
                list(range(n_nodes)), region, seed=seed + 1000 * i
            )
            graph = unit_disk_graph(positions, radius)
            comp_samples.append(float(len(connected_components(graph))))
            largest_samples.append(largest_component_fraction(graph))
            pair_samples.append(reachable_pair_fraction(graph))
            edge_samples.append(float(graph.edge_count()))
        components.append(mean_confidence_interval(comp_samples))
        largest.append(mean_confidence_interval(largest_samples))
        pairs.append(mean_confidence_interval(pair_samples))
        edge_counts.append(mean_confidence_interval(edge_samples))

    result.xs = list(radii)
    result.series = {
        "components": components,
        "largest_component_fraction": largest,
        "reachable_pair_fraction": pairs,
        "edges": edge_counts,
    }
    return result


# ---------------------------------------------------------------------------
# Figure 3 — latency vs route-check interval
# ---------------------------------------------------------------------------

def fig3_check_interval(
    intervals: tuple[float, ...] = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6),
    effort: Effort = BENCH_EFFORT,
    radius: float = 100.0,
    seed: int = 1,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    mobility: MobilityConfig | str | None = None,
) -> SeriesResult:
    """Figure 3: GLR delivery latency under different check intervals.

    Paper setting: 1980 messages, 100 m radius; we sweep the store-state
    re-check timer.  Expected shape: latency mildly increases with the
    interval (less frequent checks delay reaction to topology change),
    traded against control overhead.
    """
    result = SeriesResult(
        experiment="fig3",
        title="GLR delivery latency vs route check interval "
        f"({effort.message_count} messages, {radius:.0f}m)",
        x_label="check_interval_s",
    )
    specs = [
        ReplicateSpec(
            scenario=Scenario(
                name=f"fig3-{interval}",
                radius=radius,
                message_count=effort.message_count,
                sim_time=effort.sim_time,
                seed=seed,
                mobility=mobility,
            ),
            protocol="glr",
            runs=effort.runs,
            protocol_config=GLRConfig(check_interval=interval),
        )
        for interval in intervals
    ]
    latencies = []
    control = []
    for runs in run_replicate_specs(specs, workers=workers, cache_dir=cache_dir):
        latencies.append(ci_of(runs, "average_latency"))
        control.append(ci_of(runs, "frames_sent"))
    result.xs = list(intervals)
    result.series = {
        "glr_latency_s": latencies,
        "frames_sent": control,
    }
    return result


# ---------------------------------------------------------------------------
# Figures 4 and 5 — latency vs number of messages in transit
# ---------------------------------------------------------------------------

def _latency_vs_load(
    experiment: str,
    radius: float,
    loads: tuple[int, ...],
    effort: Effort,
    seed: int,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    mobility: MobilityConfig | str | None = None,
) -> SeriesResult:
    result = SeriesResult(
        experiment=experiment,
        title=f"delivery latency vs messages in transit ({radius:.0f}m)",
        x_label="messages",
    )
    specs = []
    for load in loads:
        # Horizon: generation takes `load` seconds; leave the same again
        # for deliveries to finish, bounded below by the effort horizon.
        sim_time = max(effort.sim_time, 2.0 * load)
        scenario = Scenario(
            name=f"{experiment}-{load}",
            radius=radius,
            message_count=load,
            sim_time=sim_time,
            seed=seed,
            mobility=mobility,
        )
        for protocol in ("glr", "epidemic"):
            specs.append(
                ReplicateSpec(
                    scenario=scenario, protocol=protocol, runs=effort.runs
                )
            )
    cells = run_replicate_specs(specs, workers=workers, cache_dir=cache_dir)
    glr_series = []
    epidemic_series = []
    for glr_runs, epidemic_runs in zip(cells[0::2], cells[1::2]):
        glr_series.append(ci_of(glr_runs, "average_latency"))
        epidemic_series.append(ci_of(epidemic_runs, "average_latency"))
    result.xs = [float(x) for x in loads]
    result.series = {
        "glr_latency_s": glr_series,
        "epidemic_latency_s": epidemic_series,
    }
    return result


def fig4_latency_vs_load(
    loads: tuple[int, ...] = (100, 400, 890, 1400, 1980),
    effort: Effort = BENCH_EFFORT,
    seed: int = 1,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    mobility: MobilityConfig | str | None = None,
) -> SeriesResult:
    """Figure 4: latency vs number of messages, 50 m radius."""
    return _latency_vs_load(
        "fig4", 50.0, loads, effort, seed, workers, cache_dir, mobility
    )


def fig5_latency_vs_load(
    loads: tuple[int, ...] = (100, 400, 890, 1400, 1980),
    effort: Effort = BENCH_EFFORT,
    seed: int = 1,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    mobility: MobilityConfig | str | None = None,
) -> SeriesResult:
    """Figure 5: latency vs number of messages, 100 m radius."""
    return _latency_vs_load(
        "fig5", 100.0, loads, effort, seed, workers, cache_dir, mobility
    )


# ---------------------------------------------------------------------------
# Figure 6 — latency vs radius
# ---------------------------------------------------------------------------

def fig6_latency_vs_radius(
    radii: tuple[float, ...] = (50.0, 100.0, 150.0, 200.0, 250.0),
    effort: Effort = BENCH_EFFORT,
    seed: int = 1,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    mobility: MobilityConfig | str | None = None,
) -> SeriesResult:
    """Figure 6: latency vs transmission radius, fixed message count.

    GLR's Algorithm 1 automatically selects 3 copies below 150 m and a
    single copy at 150 m and above in this geometry, matching the
    paper's stated configuration.
    """
    result = SeriesResult(
        experiment="fig6",
        title=f"delivery latency vs radius ({effort.message_count} messages)",
        x_label="radius_m",
    )
    specs = [
        ReplicateSpec(
            scenario=Scenario(
                name=f"fig6-{radius}",
                radius=radius,
                message_count=effort.message_count,
                sim_time=effort.sim_time,
                seed=seed,
                mobility=mobility,
            ),
            protocol=protocol,
            runs=effort.runs,
        )
        for radius in radii
        for protocol in ("glr", "epidemic")
    ]
    cells = run_replicate_specs(specs, workers=workers, cache_dir=cache_dir)
    glr_series = []
    epidemic_series = []
    for glr_runs, epidemic_runs in zip(cells[0::2], cells[1::2]):
        glr_series.append(ci_of(glr_runs, "average_latency"))
        epidemic_series.append(ci_of(epidemic_runs, "average_latency"))
    result.xs = list(radii)
    result.series = {
        "glr_latency_s": glr_series,
        "epidemic_latency_s": epidemic_series,
    }
    return result


# ---------------------------------------------------------------------------
# Figure 7 — delivery ratio vs storage limit
# ---------------------------------------------------------------------------

def fig7_delivery_vs_storage(
    limits: tuple[int, ...] = (25, 50, 100, 150, 200),
    effort: Effort = BENCH_EFFORT,
    radius: float = 50.0,
    seed: int = 1,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    mobility: MobilityConfig | str | None = None,
) -> SeriesResult:
    """Figure 7: delivery ratio under per-node storage limits (50 m).

    Paper shape: epidemic's delivery ratio collapses once storage drops
    below the number of messages in transit; GLR holds near-100% at far
    smaller stores because controlled flooding keeps occupancy low.
    """
    result = SeriesResult(
        experiment="fig7",
        title=f"delivery ratio vs storage limit ({effort.message_count} "
        f"messages, {radius:.0f}m)",
        x_label="storage_limit_msgs",
    )
    specs = [
        ReplicateSpec(
            scenario=Scenario(
                name=f"fig7-{limit}",
                radius=radius,
                message_count=effort.message_count,
                sim_time=effort.sim_time,
                seed=seed,
                mobility=mobility,
            ),
            protocol=protocol,
            runs=effort.runs,
            buffer_limit=limit,
        )
        for limit in limits
        for protocol in ("glr", "epidemic")
    ]
    cells = run_replicate_specs(specs, workers=workers, cache_dir=cache_dir)
    glr_series = []
    epidemic_series = []
    for glr_runs, epidemic_runs in zip(cells[0::2], cells[1::2]):
        glr_series.append(ci_of(glr_runs, "delivery_ratio"))
        epidemic_series.append(ci_of(epidemic_runs, "delivery_ratio"))
    result.xs = [float(x) for x in limits]
    result.series = {
        "glr_delivery_ratio": glr_series,
        "epidemic_delivery_ratio": epidemic_series,
    }
    return result
