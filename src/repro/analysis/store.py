"""Queryable result store over campaign metric streams.

Campaign streams (:mod:`repro.experiments.stream`) are the durable
record of every simulation the repo runs, but until now the only way to
read them was a one-shot render (``campaign aggregate``).  This module
is the "serve results" surface the ROADMAP names: a
:class:`ResultStore` ingests streams and run directories — idempotently,
reusing the stream layer's :func:`~repro.experiments.stream
.union_records` dedup and spec-hash discipline — and answers filtered
queries over the campaign grid.

The store is an index, not a new format: records stay exactly the
stream's task records, the spec comes from the stream header, and every
aggregate routes through the same code paths the campaign engine uses
(:func:`~repro.experiments.campaign.campaign_result_from_records`,
:func:`~repro.analysis.aggregate.summarize_cells`), so store queries
reproduce ``campaign aggregate`` numbers bit-identically.

Example::

    store = ResultStore.open("orchestrated-sweep/")   # run dir or stream
    q = store.select(protocol="glr", adversary="blackhole")
    print(q.result().render())                        # paper-style table
    q.values("delivery_ratio")                        # raw per-cell runs
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from repro.analysis.aggregate import MetricSummary, summarize_cells
from repro.baselines.registry import resolve_protocol
from repro.experiments.campaign import (
    CampaignResult,
    CampaignSpec,
    campaign_result_from_records,
    campaign_spec_hash,
)
from repro.experiments.scenarios import Scenario
from repro.experiments.stream import (
    StreamError,
    StreamInfo,
    discover_streams,
    load_union,
)
from repro.mobility.registry import resolve_model
from repro.sim.adversary import as_adversary_config
from repro.sim.stats import SimulationMetrics

#: Metric names a query may select on: every numeric field of
#: :class:`~repro.sim.stats.SimulationMetrics` that aggregation reads.
QUERYABLE_METRICS = (
    "delivery_ratio",
    "average_latency",
    "average_hops",
    "max_peak_storage",
    "average_peak_storage",
    "time_average_storage",
    "frames_sent",
    "data_bytes_sent",
    "control_bytes_sent",
)

#: The mobility label of scenarios running the paper's default model
#: (``Scenario.mobility is None``).
DEFAULT_MOBILITY = "random_waypoint"


@dataclass(frozen=True)
class CellInfo:
    """One campaign grid cell, indexed for filtering.

    Derived from the spec's own cell expansion
    (:meth:`~repro.experiments.campaign.CampaignSpec.cell_specs`), so
    the axis values are the *coerced* configs the campaign actually
    ran, not re-parsed scenario-name strings.
    """

    scenario_name: str
    protocol_label: str
    #: Canonical registry name of the cell's protocol (label minus
    #: swept parameters: ``glr(custody=False)`` -> ``glr``).
    protocol: str
    #: Canonical mobility model name (:data:`DEFAULT_MOBILITY` when the
    #: scenario runs the paper's built-in random waypoint).
    mobility: str
    #: Canonical adversary spec string (``blackhole:0.2``), or ``None``
    #: for the honest cell.
    adversary: str | None
    #: The adversary mode alone, or ``None`` for honest cells.
    adversary_mode: str | None
    #: Grid-axis assignments of this cell's scenario, as
    #: ``(field, value)`` pairs in grid order (empty off-grid).
    axes: tuple[tuple[str, object], ...]
    scenario: Scenario

    @property
    def key(self) -> tuple[str, str]:
        """The cell's stream/result key: (scenario name, protocol label)."""
        return (self.scenario_name, self.protocol_label)


def _index_cells(spec: CampaignSpec) -> list[CellInfo]:
    """Every spec cell with its filterable axis values resolved."""
    # Rebuild the scenario-name -> grid-overrides map the same way
    # CampaignSpec.scenarios() builds the names, so axis values stay the
    # coerced objects (not strings parsed back out of the name).
    import itertools

    overrides_by_name: dict[str, tuple[tuple[str, object], ...]] = {}
    if spec.grid:
        fields = [fname for fname, _ in spec.grid]
        axes = [values for _, values in spec.grid]
        for combo in itertools.product(*axes):
            overrides = dict(zip(fields, combo))
            label = ",".join(
                f"{k}={'none' if v is None else v}"
                for k, v in overrides.items()
            )
            overrides_by_name[f"{spec.name}/{label}"] = tuple(
                overrides.items()
            )
    cells = []
    for scenario, config in spec.cells():
        name, label = spec.cell_label(scenario, config)
        cells.append(
            CellInfo(
                scenario_name=name,
                protocol_label=label,
                protocol=config.protocol,
                mobility=(
                    scenario.mobility.model
                    if scenario.mobility is not None
                    else DEFAULT_MOBILITY
                ),
                adversary=(
                    str(scenario.adversary)
                    if scenario.adversary is not None
                    else None
                ),
                adversary_mode=(
                    scenario.adversary.mode
                    if scenario.adversary is not None
                    else None
                ),
                axes=overrides_by_name.get(name, ()),
                scenario=scenario,
            )
        )
    return cells


def _match_protocol(cell: CellInfo, wanted: str) -> bool:
    if cell.protocol_label == wanted:
        return True
    return cell.protocol == resolve_protocol(wanted)


def _match_mobility(cell: CellInfo, wanted: str) -> bool:
    return cell.mobility == resolve_model(wanted)


def _match_adversary(cell: CellInfo, wanted: str) -> bool:
    if ":" not in wanted and wanted.strip().lower() in ("none", ""):
        return cell.adversary is None  # the honest cells
    config = as_adversary_config(wanted if ":" in wanted else f"{wanted}:1")
    if config is None:  # "none:0" / zero fraction: honest again
        return cell.adversary is None
    if ":" in wanted:  # a full spec matches exactly
        return cell.adversary == str(config)
    return cell.adversary_mode == config.mode  # a bare mode, any fraction


class ResultStore:
    """An indexed, filterable store of campaign task records.

    Ingestion accepts stream files and run directories and is
    idempotent: records are deduplicated by task content key through
    :func:`~repro.experiments.stream.union_records`, so re-ingesting a
    stream (or ingesting a merged stream after its shards) adds
    nothing.  All ingested streams must carry one spec hash — the same
    refuse-to-mix-campaigns rule the merge layer enforces.
    """

    def __init__(self) -> None:
        self._infos: list[StreamInfo] = []
        self._records: list[dict] | None = None
        self._spec: CampaignSpec | None = None
        self._cells: list[CellInfo] | None = None

    # -- ingestion ------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> "ResultStore":
        """A store over ``path`` (a stream file or a run directory)."""
        store = cls()
        store.ingest(path)
        return store

    def ingest(self, path: str | Path) -> int:
        """Ingest a stream file or run directory; returns new task count.

        Idempotent by task key: ingesting data the store already holds
        returns 0 and changes nothing.  Raises
        :class:`~repro.experiments.stream.StreamError` for a spec-hash
        mismatch with previously ingested data, damaged headers, or a
        directory without streams.
        """
        before = len(self.records()) if self._infos else 0
        info = load_union(
            discover_streams(path),
            expected_spec_hash=self.spec_hash,
        )
        self._infos.append(info)
        self._records = None
        return len(self.records()) - before

    # -- the indexed view ----------------------------------------------

    @property
    def spec_hash(self) -> str | None:
        """Spec hash of the ingested campaign (None before ingestion)."""
        return self._infos[0].spec_hash if self._infos else None

    @property
    def spec(self) -> CampaignSpec:
        """The campaign spec, rebuilt from the stream header."""
        if not self._infos:
            raise StreamError("empty store: ingest a stream first")
        if self._spec is None:
            spec = CampaignSpec.from_dict(self._infos[0].header["spec"])
            if campaign_spec_hash(spec) != self.spec_hash:
                raise StreamError(
                    "stream header is inconsistent: its spec document "
                    "does not hash to its spec_hash"
                )
            self._spec = spec
        return self._spec

    @property
    def damaged(self) -> int:
        """Undecodable stream lines skipped across all ingested inputs."""
        return sum(info.quarantined for info in self._infos)

    def records(self) -> list[dict]:
        """Every task record, deduplicated, in canonical stream order."""
        if self._records is None:
            from repro.experiments.stream import union_records

            self._records = union_records(self._infos)
        return self._records

    def keys(self) -> set[str]:
        """Task content keys the store holds."""
        return {record["key"] for record in self.records()}

    def cells(self) -> list[CellInfo]:
        """Every spec grid cell, in sweep order (with or without data)."""
        if self._cells is None:
            self._cells = _index_cells(self.spec)
        return list(self._cells)

    def scenarios(self) -> list[str]:
        """Scenario (cell) names, in sweep order."""
        seen: dict[str, None] = {}
        for cell in self.cells():
            seen.setdefault(cell.scenario_name)
        return list(seen)

    def protocols(self) -> list[str]:
        """Protocol labels, in the spec's protocol-axis order."""
        seen: dict[str, None] = {}
        for cell in self.cells():
            seen.setdefault(cell.protocol_label)
        return list(seen)

    # -- queries --------------------------------------------------------

    def select(
        self,
        *,
        scenario: str | None = None,
        protocol: str | None = None,
        mobility: str | None = None,
        adversary: str | None = None,
        metric: str | None = None,
    ) -> "Query":
        """A filtered view of the grid (``None`` = don't care).

        - ``scenario``: exact cell scenario name, or a substring of it
          (``"radius=100"`` selects that slice of a radius sweep);
        - ``protocol``: registry name or alias (matches every variant of
          that protocol) or an exact variant label
          (``"glr(custody=False)"``);
        - ``mobility``: mobility model name or alias
          (:data:`DEFAULT_MOBILITY` for the paper's built-in RWP);
        - ``adversary``: ``"none"`` for honest cells, a mode name for
          any fraction of that mode, or a full ``mode:fraction`` spec
          for one exact cell value;
        - ``metric``: default metric for :meth:`Query.values`, validated
          against :data:`QUERYABLE_METRICS`.

        Raises :class:`ValueError` for unknown protocol/mobility/
        adversary/metric names — a typo'd filter fails loudly instead of
        matching nothing.
        """
        if metric is not None and metric not in QUERYABLE_METRICS:
            raise ValueError(
                f"unknown metric {metric!r}; choose from "
                f"{list(QUERYABLE_METRICS)}"
            )
        selected = []
        for cell in self.cells():
            if scenario is not None and scenario != cell.scenario_name \
                    and scenario not in cell.scenario_name:
                continue
            if protocol is not None and not _match_protocol(cell, protocol):
                continue
            if mobility is not None and not _match_mobility(cell, mobility):
                continue
            if adversary is not None and not _match_adversary(
                cell, adversary
            ):
                continue
            selected.append(cell)
        return Query(store=self, cells=tuple(selected), metric=metric)

    def result(self) -> CampaignResult:
        """The full (unfiltered) campaign aggregate.

        Routed through :func:`~repro.experiments.campaign
        .campaign_result_from_records` — the same rebuild step
        ``campaign aggregate`` uses — so the store's numbers are
        bit-identical to a stream aggregate of the same records.
        """
        return self.select().result()


@dataclass(frozen=True)
class Query:
    """The result of :meth:`ResultStore.select`: a set of grid cells.

    All aggregation methods route through the campaign engine's own
    rebuild/summarize code, so any filter's numbers match what
    ``campaign aggregate`` would print for a stream holding exactly the
    filtered records.
    """

    store: ResultStore
    cells: tuple[CellInfo, ...]
    metric: str | None = None

    def records(self) -> list[dict]:
        """The matching task records, in canonical stream order."""
        keys = {cell.key for cell in self.cells}
        return [
            record
            for record in self.store.records()
            if (record["scenario"], record["protocol"]) in keys
        ]

    def result(self) -> CampaignResult:
        """A :class:`~repro.experiments.campaign.CampaignResult` of the
        matching records (cells without data are absent, as in any
        partial-stream aggregate)."""
        return campaign_result_from_records(
            self.store.spec,
            self.records(),
            stream_damaged=self.store.damaged,
            source="result store",
        )

    def metrics_by_cell(self) -> dict[tuple[str, str], list[SimulationMetrics]]:
        """Decoded replicate metrics per (scenario, protocol) cell."""
        return self.result().metrics

    def summaries(self) -> dict[tuple[str, str], MetricSummary]:
        """Mean ± 90% CI per cell (the paper's methodology)."""
        return summarize_cells(self.metrics_by_cell())

    def values(
        self, metric: str | None = None
    ) -> dict[tuple[str, str], list[float | None]]:
        """Raw per-replicate values of one metric, per cell.

        ``metric`` defaults to the query's ``metric=`` selection;
        one must be given.  Values keep replicate order; optional
        metrics (``average_latency`` when nothing was delivered) appear
        as ``None``.
        """
        name = metric if metric is not None else self.metric
        if name is None:
            raise ValueError(
                "no metric selected: pass values(metric=...) or "
                "select(metric=...)"
            )
        if name not in QUERYABLE_METRICS:
            raise ValueError(
                f"unknown metric {name!r}; choose from "
                f"{list(QUERYABLE_METRICS)}"
            )
        return {
            cell: [getattr(m, name) for m in runs]
            for cell, runs in self.metrics_by_cell().items()
        }

    def scenarios(self) -> list[str]:
        """Matching scenario names, in sweep order."""
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.scenario_name)
        return list(seen)

    def protocols(self) -> list[str]:
        """Matching protocol labels, in protocol-axis order."""
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.protocol_label)
        return list(seen)


def axis_table(
    cells: Sequence[CellInfo],
    metrics_by_cell: Mapping[tuple[str, str], Sequence[SimulationMetrics]],
    field: str,
    metric: str,
) -> tuple[list[object], dict[str, list[float | None]]]:
    """Marginal per-axis means: metric vs one grid axis, per protocol.

    Returns ``(axis values, {protocol label: mean per value})`` — the
    data behind one trade-off curve.  With more than one grid axis the
    mean marginalises over the others.  Values without any samples
    (e.g. latency in a cell that delivered nothing) come back ``None``.
    """
    values: list[object] = []
    sums: dict[tuple[int, str], list[float]] = {}
    labels: dict[str, None] = {}
    for cell in cells:
        assignment = dict(cell.axes)
        if field not in assignment:
            continue
        value = assignment[field]
        value = "none" if value is None else value
        if value not in values:
            values.append(value)
        labels.setdefault(cell.protocol_label)
        bucket = sums.setdefault(
            (values.index(value), cell.protocol_label), []
        )
        for run in metrics_by_cell.get(cell.key, []):
            sample = getattr(run, metric)
            if sample is not None:
                bucket.append(float(sample))
    series = {
        label: [
            (
                sum(sums[(i, label)]) / len(sums[(i, label)])
                if sums.get((i, label))
                else None
            )
            for i in range(len(values))
        ]
        for label in labels
    }
    return values, series
