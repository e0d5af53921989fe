"""The paper's evaluation as data: every figure, table and ablation.

``ARTEFACTS`` declares each artefact: its default sweep values and row
labels, the fields each value overrides, the protocols each row runs
and the metric columns it reports.  Three functions read the table:

- :func:`specs` lists an artefact's cells as ``ReplicateSpec``s;
- :func:`view` turns the cells' metrics into a :class:`SeriesResult`
  (the data series a figure plots) or a :class:`TableResult` (rows
  comparable to the paper's table);
- :func:`run_artefact` joins the two through
  :func:`~repro.experiments.campaign.run_replicate_specs`.

Figure 1 is the one artefact without simulation cells: it measures the
connectivity of static random topologies.  An
:class:`~repro.experiments.common.Effort` scales every artefact, so the
benches run reduced workloads and the CLI runs paper-scale ones.

The ablations go beyond the paper's evaluation: each isolates one
mechanism the paper motivates qualitatively (the ``glr`` config fields
they vary are listed in docs/protocols.md).

Every cell's config is a ``ProtocolConfig``, so a cell keys the same
written into a JSON campaign spec or swept by ``--protocol-param``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.analysis.ci import ConfidenceInterval, mean_confidence_interval
from repro.analysis.render import render_series, render_table
from repro.core.location import LocationMode
from repro.core.protocol import GLRConfig
from repro.experiments.campaign import ReplicateSpec, run_replicate_specs
from repro.experiments.common import BENCH_EFFORT, Effort, ci_of, fmt_ci
from repro.experiments.protocols import ProtocolConfig
from repro.experiments.scenarios import Scenario
from repro.graphs.connectivity import (
    connected_components,
    largest_component_fraction,
    reachable_pair_fraction,
)
from repro.graphs.udg import SpatialGraph, unit_disk_graph
from repro.mobility.base import Region
from repro.mobility.registry import MobilityConfig
from repro.mobility.static import uniform_random_positions
from repro.sim.stats import SimulationMetrics


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


@dataclass
class TableResult:
    """One table's rows (already formatted paper-style)."""

    experiment: str
    title: str
    headers: list[str] = field(default_factory=list)
    rows: list[list[str]] = field(default_factory=list)

    def render(self) -> str:
        """Paper-comparable ASCII rendering."""
        return render_table(
            f"{self.experiment}: {self.title}", self.headers, self.rows
        )


@dataclass(frozen=True)
class Column:
    """One reported metric: the confidence interval of ``metric``.

    ``protocol`` picks the row's cell of that protocol; ``None`` picks
    the row's first.  A table prints the interval with ``digits``
    decimals; a figure keeps the interval itself.
    """

    header: str
    metric: str
    protocol: str | None = None
    digits: int = 1


def _text(value: Any) -> tuple[str, ...]:
    return (str(value),)


def _whole(value: float) -> tuple[str, ...]:
    return (f"{value:.0f}",)


@dataclass(frozen=True)
class Artefact:
    """One figure, table or ablation, declared as data.

    Each sweep value is one row of a table or one x of a figure.
    ``cell(value)`` returns the fields the value overrides:
    ``Scenario`` fields (``radius``, ``message_count``, ``sim_time``)
    and ``ReplicateSpec`` fields (``protocol``, ``protocol_config``,
    ``buffer_limit``).  A ``protocol`` override replaces the row's
    ``protocols``.  A ``sim_time`` override is the horizon a load
    needs; the effort's horizon applies when it is longer.  ``title``
    may name ``{messages}`` (the effort's) and ``{radius}``.

    A figure has an ``x_label``.  A table has ``labels``, the headers
    of the row labels ``label(value)`` returns.  Figure 1 has no
    ``cell``: it simulates nothing.
    """

    title: str
    values: tuple
    columns: tuple[Column, ...]
    cell: Callable[[Any], dict] | None = None
    protocols: tuple[str, ...] = ("glr",)
    radius: float = 100.0
    x_label: str = ""
    labels: tuple[str, ...] = ()
    label: Callable[[Any], tuple[str, ...]] = _text


_GLR_VS_EPIDEMIC = ("glr", "epidemic")


def _per_protocol(
    header: str, metric: str, digits: int = 1
) -> tuple[Column, ...]:
    """The same metric for each of GLR and epidemic."""
    return tuple(
        Column(f"{protocol}_{header}", metric, protocol, digits)
        for protocol in _GLR_VS_EPIDEMIC
    )


_DELIVERY = Column("delivery_ratio", "delivery_ratio", digits=3)
_LATENCY = Column("latency_s", "average_latency")
_HOPS = Column("hops", "average_hops")
_STORAGE = Column("avg_peak_storage", "average_peak_storage")
_PEAKS = (Column("max_peak_storage", "max_peak_storage"), _STORAGE)
_RADII = (250.0, 200.0, 150.0, 100.0, 50.0)

#: Figure 1's measures of one static topology.
_TOPOLOGY: dict[str, Callable[[SpatialGraph], float]] = {
    "components": lambda graph: float(len(connected_components(graph))),
    "largest_component_fraction": largest_component_fraction,
    "reachable_pair_fraction": reachable_pair_fraction,
    "edges": lambda graph: float(graph.edge_count()),
}

#: Table 2's rows: copies and who knows the destination's location.
_SITUATIONS = {
    ("1 copy", "all nodes know"): (1, LocationMode.ORACLE),
    ("3 copies", "only source knows"): (3, LocationMode.SOURCE),
    ("1 copy", "only source knows"): (1, LocationMode.SOURCE),
    ("3 copies", "no nodes know"): (3, LocationMode.NONE),
}


def _glr_cell(**fields: Any) -> dict:
    """A GLR cell with ``fields`` set.  A field at its default is left
    out, so a row at the defaults is the bare ``glr`` cell."""
    defaults = GLRConfig()
    params = {k: v for k, v in fields.items() if v != getattr(defaults, k)}
    return {"protocol_config": ProtocolConfig.of("glr", **params)}


def _situation(row: tuple[str, str]) -> dict:
    copies, mode = _SITUATIONS[row]
    return _glr_cell(copies_override=copies, location_mode=mode)


def _glr(name: str) -> Callable[[Any], dict]:
    """A sweep over one ``GLRConfig`` field."""
    return lambda value: _glr_cell(**{name: value})


def _load(seconds_per_message: float, **fields: Any) -> Callable:
    """A message-count sweep whose horizon grows with the load.

    Generating ``n`` messages takes ``n`` seconds; the horizon leaves
    time for deliveries to finish after that.
    """
    return lambda count: {
        "message_count": count,
        "sim_time": seconds_per_message * count,
        **fields,
    }


def _radius(radius: float) -> dict:
    return {"radius": radius}


def _latency_vs_load(radius: float) -> Artefact:
    """Figures 4 and 5: latency vs the number of messages in transit."""
    return Artefact(
        "delivery latency vs messages in transit ({radius:.0f}m)",
        values=(100, 400, 890, 1400, 1980),
        cell=_load(2.0),
        columns=_per_protocol("latency_s", "average_latency"),
        protocols=_GLR_VS_EPIDEMIC,
        radius=radius,
        x_label="messages",
    )


ARTEFACTS: dict[str, Artefact] = {
    # Figure 1: the paper draws two example topologies.  Its content is
    # "250 m: (almost) connected, 100 m: shattered", so each measure is
    # averaged over random topologies of 50 nodes in a 1000 m square.
    "fig1": Artefact(
        "topology connectivity, 50 nodes in 1000m square",
        values=(250.0, 100.0),
        columns=tuple(Column(name, name) for name in _TOPOLOGY),
        x_label="radius_m",
    ),
    # Figure 3: latency mildly rises with the store-state re-check
    # interval, traded against control overhead.
    "fig3": Artefact(
        "GLR delivery latency vs route check interval "
        "({messages} messages, {radius:.0f}m)",
        values=(0.6, 0.8, 1.0, 1.2, 1.4, 1.6),
        cell=_glr("check_interval"),
        columns=(
            Column("glr_latency_s", "average_latency"),
            Column("frames_sent", "frames_sent"),
        ),
        x_label="check_interval_s",
    ),
    "fig4": _latency_vs_load(50.0),
    "fig5": _latency_vs_load(100.0),
    # Figure 6: Algorithm 1 picks 3 copies below 150 m and one copy
    # from 150 m on in this geometry, as the paper configures it.
    "fig6": Artefact(
        "delivery latency vs radius ({messages} messages)",
        values=(50.0, 100.0, 150.0, 200.0, 250.0),
        cell=_radius,
        columns=_per_protocol("latency_s", "average_latency"),
        protocols=_GLR_VS_EPIDEMIC,
        x_label="radius_m",
    ),
    # Figure 7: epidemic's delivery collapses once storage drops below
    # the messages in transit; GLR's controlled flooding keeps its
    # occupancy low.
    "fig7": Artefact(
        "delivery ratio vs storage limit "
        "({messages} messages, {radius:.0f}m)",
        values=(25, 50, 100, 150, 200),
        cell=lambda limit: {"buffer_limit": limit},
        columns=_per_protocol("delivery_ratio", "delivery_ratio"),
        protocols=_GLR_VS_EPIDEMIC,
        radius=50.0,
        x_label="storage_limit_msgs",
    ),
    # Table 2: the oracle is fastest, three copies beat one when only
    # the source knows, and no knowledge is slowest.
    "table2": Artefact(
        "message delivery under location information availability "
        "({messages} messages, {radius:.0f}m)",
        values=tuple(_SITUATIONS),
        cell=_situation,
        columns=(
            Column("delivery_rate", "delivery_ratio", digits=3),
            *(_LATENCY, _HOPS, _STORAGE),
        ),
        labels=("copies", "dest location"),
        label=lambda row: row,
    ),
    # Table 3 (890 messages, 1200 s): 84.7%±1 without custody transfer,
    # 97.9%±1 with it.
    "table3": Artefact(
        "delivery ratio with/without custody transfer "
        "({messages} messages, {radius:.0f}m)",
        values=(False, True),
        cell=_glr("custody"),
        columns=(_DELIVERY, _LATENCY),
        radius=50.0,
        labels=("custody transfer",),
        label=lambda custody: ("with" if custody else "without",),
    ),
    # Table 4: both peaks grow sublinearly with the load, far below
    # epidemic's requirement of every message in transit.
    "table4": Artefact(
        "GLR storage requirement vs message count ({radius:.0f}m, "
        "3 copies)",
        values=(400, 600, 890, 1180, 1980),
        cell=_load(1.5, **_glr_cell(copies_override=3)),
        columns=_PEAKS,
        radius=50.0,
        labels=("messages",),
    ),
    # Table 5: Algorithm 1 picks the copies, as the paper configures
    # it; the longer the radius, the smaller the storage requirement.
    "table5": Artefact(
        "GLR storage requirement vs radius ({messages} messages)",
        values=_RADII,
        cell=_radius,
        columns=_PEAKS,
        labels=("radius_m",),
        label=_whole,
    ),
    # Table 6: GLR re-forwards whenever relative positions change, so
    # its hop counts exceed epidemic's and grow as the radius shrinks.
    "table6": Artefact(
        "hop counts ({messages} messages)",
        values=_RADII,
        cell=_radius,
        columns=_per_protocol("hops", "average_hops", digits=2),
        protocols=_GLR_VS_EPIDEMIC,
        labels=("radius_m",),
        label=_whole,
    ),
    # Fixed copy counts against Algorithm 1's adaptive decision (None).
    "ablation-copies": Artefact(
        "copy count ablation ({radius:.0f}m, {messages} messages)",
        values=(1, 3, 5, None),
        cell=_glr("copies_override"),
        columns=(_DELIVERY, _LATENCY, _STORAGE),
        radius=50.0,
        labels=("copies",),
        label=lambda copies: (
            "algorithm-1" if copies is None else str(copies),
        ),
    ),
    # The LDTG routing graph against raw unit-disk neighbours.
    "ablation-spanner": Artefact(
        "routing spanner ablation ({radius:.0f}m, {messages} messages)",
        values=(True, False),
        cell=_glr("use_ldt"),
        columns=(_DELIVERY, _LATENCY, _HOPS),
        labels=("spanner",),
        label=lambda use_ldt: ("ldt" if use_ldt else "udg",),
    ),
    "ablation-face": Artefact(
        "face routing ablation ({radius:.0f}m, {messages} messages)",
        values=(True, False),
        cell=_glr("face_routing"),
        columns=(_DELIVERY, _LATENCY, _HOPS),
        labels=("face_routing",),
        label=lambda enabled: ("on" if enabled else "off",),
    ),
    "ablation-custody-timeout": Artefact(
        "custody timeout sensitivity ({radius:.0f}m, {messages} messages)",
        values=(2.0, 5.0, 10.0, 20.0),
        cell=_glr("custody_timeout"),
        columns=(_DELIVERY, _LATENCY),
        radius=50.0,
        labels=("timeout_s",),
        label=_whole,
    ),
    # Every implemented protocol side by side in one scenario.
    "ablation-protocols": Artefact(
        "protocol comparison ({radius:.0f}m, {messages} messages)",
        values=(
            "glr", "epidemic", "spray_and_wait", "first_contact", "direct"
        ),
        cell=lambda protocol: {"protocol": protocol},
        columns=(_DELIVERY, _LATENCY, _HOPS, _STORAGE),
        labels=("protocol",),
    ),
}


def _rows(
    name: str, values: Sequence | None
) -> Iterator[tuple[Any, dict, tuple[str, ...]]]:
    """Each sweep value with the fields it overrides and its protocols."""
    artefact = ARTEFACTS[name]
    if artefact.cell is None:
        raise ValueError(f"{name} has no simulation cells")
    for value in artefact.values if values is None else values:
        fields = artefact.cell(value)
        protocol = fields.pop("protocol", None)
        yield value, fields, (protocol,) if protocol else artefact.protocols


def specs(
    name: str,
    effort: Effort = BENCH_EFFORT,
    seed: int = 1,
    mobility: MobilityConfig | str | None = None,
    values: Sequence | None = None,
) -> list[ReplicateSpec]:
    """An artefact's cells: one per sweep value and protocol, in order.

    ``values`` replaces the artefact's default sweep.
    """
    artefact = ARTEFACTS[name]
    cells = []
    for value, fields, protocols in _rows(name, values):
        scenario = Scenario(
            name="-".join((name, *artefact.label(value))),
            radius=fields.pop("radius", artefact.radius),
            message_count=fields.pop("message_count", effort.message_count),
            sim_time=max(effort.sim_time, fields.pop("sim_time", 0.0)),
            seed=seed,
            mobility=mobility,
        )
        cells.extend(
            ReplicateSpec(scenario, protocol, runs=effort.runs, **fields)
            for protocol in protocols
        )
    return cells


def view(
    name: str,
    effort: Effort,
    cells: Sequence[Sequence[SimulationMetrics]],
    values: Sequence | None = None,
) -> SeriesResult | TableResult:
    """An artefact's result from its cells' metrics, in ``specs`` order."""
    artefact = ARTEFACTS[name]
    values = artefact.values if values is None else values
    columns = artefact.columns
    flat = iter(cells)
    rows = []  # per sweep value: one interval per column
    for _, _, protocols in _rows(name, values):
        runs = {protocol: next(flat) for protocol in protocols}
        rows.append(
            [
                ci_of(runs[column.protocol or protocols[0]], column.metric)
                for column in columns
            ]
        )
    title = artefact.title.format(
        messages=effort.message_count, radius=artefact.radius
    )
    if artefact.x_label:
        xs = [float(value) for value in values]
        series = {
            column.header: [row[i] for row in rows]
            for i, column in enumerate(columns)
        }
        return SeriesResult(name, title, artefact.x_label, xs, series)
    headers = [*artefact.labels, *(column.header for column in columns)]
    table = [
        [*artefact.label(value)]
        + [fmt_ci(ci, column.digits) for ci, column in zip(row, columns)]
        for value, row in zip(values, rows)
    ]
    return TableResult(name, title, headers, table)


def _topology(
    artefact: Artefact, radii: Sequence[float], runs: int, seed: int
) -> SeriesResult:
    """Figure 1: each measure over ``runs`` static random topologies."""
    nodes, region = list(range(50)), Region(1000.0, 1000.0)
    series: dict[str, list[ConfidenceInterval]] = {
        column.header: [] for column in artefact.columns
    }
    for radius in radii:
        graphs = [
            unit_disk_graph(
                uniform_random_positions(nodes, region, seed=seed + 1000 * i),
                radius,
            )
            for i in range(runs)
        ]
        for column in artefact.columns:
            measure = _TOPOLOGY[column.metric]
            series[column.header].append(
                mean_confidence_interval([measure(g) for g in graphs])
            )
    xs = [float(radius) for radius in radii]
    return SeriesResult("fig1", artefact.title, artefact.x_label, xs, series)


def run_artefact(
    name: str,
    effort: Effort = BENCH_EFFORT,
    seed: int = 1,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    mobility: MobilityConfig | str | None = None,
    values: Sequence | None = None,
) -> SeriesResult | TableResult:
    """Run one artefact's cells and return its view.

    ``workers`` and ``cache_dir`` go to the campaign engine, so a
    parallel or cached run is bit-identical to a serial one.  Figure 1
    takes five static topologies per effort run and ignores both.
    """
    artefact = ARTEFACTS[name]
    if artefact.cell is None:
        if mobility is not None:
            raise ValueError(
                f"{name} is a static-topology experiment; --mobility "
                "does not apply"
            )
        radii = artefact.values if values is None else values
        return _topology(artefact, radii, 5 * effort.runs, seed)
    cells = run_replicate_specs(
        specs(name, effort, seed, mobility, values),
        workers=workers,
        cache_dir=cache_dir,
    )
    return view(name, effort, cells, values)
