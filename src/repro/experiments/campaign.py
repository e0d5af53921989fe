"""Campaign engine v2: parallel, shardable sweeps with streamed metrics.

The paper's evaluation is a grid — scenarios x protocol configs x
replicate seeds — and every figure/table driver walks some slice of
that grid.  This module is the one place that executes such grids:

- :class:`ReplicateSpec` describes one grid cell (a scenario, a
  protocol variant, and a replicate count); it expands to
  :class:`ReplicateTask` leaves whose seeds come from
  :func:`repro.seeding.replicate_seed`, the same rule the serial
  reference path uses, so parallel results are bit-identical to serial.
- :func:`execute_tasks` fans tasks out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``workers > 1``) or
  runs them inline (``workers == 1``, the reference behaviour).  It and
  the ``--tasks`` lease worker run through one task loop that differs
  only in where its pending keys come from.
- :class:`ResultCache` is a content-addressed on-disk JSON store keyed
  by the code-relevant task parameters (scenario fields minus the
  display name, protocol + protocol config, seed, cache format
  version), so an interrupted campaign resumes where it stopped and
  repeated benches skip finished work.  Corrupt or partial entries are
  detected and recomputed, never silently loaded.
- :class:`CampaignSpec` is the declarative top layer: a base scenario,
  a field grid, a protocol axis
  (:class:`~repro.experiments.protocols.ProtocolConfig` values —
  protocol variants with swept config fields), and a replicate count.
  :func:`run_campaign` executes it and aggregates with
  :mod:`repro.analysis.aggregate` / :mod:`repro.analysis.ci`.
- A campaign can **stream** per-task metrics to an append-only JSONL
  file (:mod:`repro.experiments.stream`) and can run as one **shard**
  of a multi-machine sweep (``shard_index``/``shard_count``; tasks are
  partitioned by content key via :func:`repro.seeding.stable_shard`).
  Shard streams merge with :func:`~repro.experiments.stream
  .merge_streams` and aggregate with
  :func:`campaign_result_from_stream` — bit-identically to an
  unsharded run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from repro.analysis.aggregate import MetricSummary, summarize_cells
from repro.analysis.render import render_table
from repro.baselines.registry import resolve_protocol
from repro.experiments.common import ci_of, fmt_ci
from repro.experiments.protocols import (
    ProtocolConfig,
    as_protocol_config,
    run_config,
)
from repro.experiments.runner import run_single
from repro.experiments.scenarios import Scenario
from repro.experiments.scheduler import (
    AssignmentIdleTimeout,
    SchedulerError,
    read_assignment,
)
from repro.experiments.stream import (
    append_record,
    init_stream,
    load_stream,
    make_task_record,
    merge_streams,
)
from repro.mobility.registry import MobilityConfig, as_mobility_config
from repro.mobility.traces import trace_file_digest
from repro.params import params_text
from repro.sim.adversary import AdversaryConfig, as_adversary_config
from repro.seeding import replicate_seed, stable_shard
from repro.sim.stats import SimulationMetrics
from repro.telemetry.profile import make_profiler

__all__ = [
    "CACHE_FORMAT",
    "CHAOS_TASK_SLEEP_ENV",
    "CampaignResult",
    "CampaignSpec",
    "ReplicateSpec",
    "ReplicateTask",
    "ResultCache",
    "TaskProgress",
    "campaign_result_from_records",
    "campaign_result_from_stream",
    "campaign_spec_hash",
    "execute_tasks",
    "merge_caches",
    "merge_streams",
    "run_campaign",
    "run_replicate_specs",
    "task_key",
    "task_payload",
]

#: Bump whenever simulation semantics change in a way that invalidates
#: previously cached metrics (it is part of every cache key).
#: 2: Scenario grew the ``mobility`` field (cache keys now cover the
#:    movement model configuration).
#: 3: tasks grew the ``protocol_config`` axis, and trace mobility keys
#:    switched from the path string to the file's content hash.
#: Entries written under an older format are never read back: their
#: keys differ, so they are ordinary cache misses and get recomputed.
CACHE_FORMAT = 3


# ---------------------------------------------------------------------------
# Tasks and specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicateTask:
    """One simulation leaf: a fully seeded scenario plus its protocol."""

    scenario: Scenario
    protocol: str
    replicate: int
    buffer_limit: int | None = None
    protocol_config: ProtocolConfig | None = None

    @property
    def protocol_label(self) -> str:
        """The reporting label: ``glr`` or ``glr(custody=False)``."""
        if self.protocol_config is None:
            return self.protocol
        return str(self.protocol_config)


@dataclass(frozen=True)
class ReplicateSpec:
    """One grid cell: ``runs`` replicates of (scenario, protocol).

    ``protocol`` is stored under its canonical registry name, so an
    alias (``snw``) and its canonical name share task keys and cache
    entries.  ``protocol_config`` takes a :class:`ProtocolConfig`, its
    protocol name or its mapping form, and is stored as
    :func:`~repro.experiments.protocols.run_config` leaves it: ``None``
    for the bare protocol, so every spelling of a cell keys alike.
    """

    scenario: Scenario
    protocol: str
    runs: int = 10
    buffer_limit: int | None = None
    protocol_config: ProtocolConfig | str | Mapping | None = None

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("need at least one run")
        object.__setattr__(self, "protocol", resolve_protocol(self.protocol))
        # Checked at spec build time rather than inside a worker
        # mid-campaign.
        object.__setattr__(
            self,
            "protocol_config",
            run_config(self.protocol, self.protocol_config),
        )

    def tasks(self) -> list[ReplicateTask]:
        """Expand to seeded per-replicate tasks (deterministic order)."""
        return [
            ReplicateTask(
                scenario=self.scenario.with_seed(
                    replicate_seed(self.scenario.seed, i)
                ),
                protocol=self.protocol,
                replicate=i,
                buffer_limit=self.buffer_limit,
                protocol_config=self.protocol_config,
            )
            for i in range(self.runs)
        ]


# ---------------------------------------------------------------------------
# Content-addressed cache
# ---------------------------------------------------------------------------

def _canonical(value: object) -> object:
    """A JSON-serialisable canonical form of configs and scenarios."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {
            str(k): _canonical(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for cache key")


def _is_trace_mobility(scenario: Scenario) -> bool:
    return scenario.mobility is not None and scenario.mobility.model == "trace"


def _canonical_scenario(task: ReplicateTask) -> dict:
    """The scenario part of a cache key payload.

    Trace mobility is keyed on the trace *file content* instead of its
    path string: editing a trace in place invalidates cached
    simulations, while renaming or copying an identical file still hits.
    """
    scenario = _canonical(task.scenario)
    scenario.pop("name", None)
    # No adversary keys exactly like the field never existed, so
    # pre-axis caches stay valid — and since a zero fraction coerces to
    # None at scenario construction, "no adversary" has exactly one key
    # however it was spelled.
    if scenario.get("adversary") is None:
        scenario.pop("adversary", None)
    if _is_trace_mobility(task.scenario):
        params = dict(scenario["mobility"]["params"])
        path = params.pop("path", None)
        if path is not None:
            params["content_sha256"] = trace_file_digest(path)
        scenario["mobility"]["params"] = sorted(
            [k, v] for k, v in params.items()
        )
    return scenario


def task_payload(task: ReplicateTask) -> dict:
    """The code-relevant parameters a task's cache key is built from.

    The scenario's display ``name`` is excluded so renaming a sweep
    does not invalidate its cached simulations.  The config is keyed in
    its one form (:func:`~repro.experiments.protocols.run_config`), so
    anything else, such as a concrete config dataclass, raises.
    """
    return {
        "format": CACHE_FORMAT,
        "scenario": _canonical_scenario(task),
        "protocol": task.protocol,
        # Concrete configs of these three protocols once keyed here.
        # Keeping the slots, always null, keeps every other task's key.
        "glr_config": None,
        "epidemic_config": None,
        "spray_config": None,
        "buffer_limit": task.buffer_limit,
        "protocol_config": _canonical(
            run_config(task.protocol, task.protocol_config)
        ),
    }


def _payload_key(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def task_key(task: ReplicateTask) -> str:
    """Content hash addressing one task's cached metrics."""
    return _payload_key(task_payload(task))


def _decode_metrics(
    payload: object, task: ReplicateTask
) -> SimulationMetrics | None:
    """Rebuild metrics from a cache payload; ``None`` if anything is off."""
    if not isinstance(payload, dict):
        return None
    if payload.get("format") != CACHE_FORMAT:
        return None
    try:
        metrics = SimulationMetrics.from_json(payload.get("metrics"))
    except ValueError:
        return None
    if metrics.protocol != task.protocol:
        return None
    return metrics


class ResultCache:
    """On-disk JSON store of per-task metrics, addressed by content hash.

    Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is
    :func:`task_key`.  Each file holds the format version, the full key
    payload (for human inspection), and the serialised metrics.  Writes
    are atomic (temp file + rename) so a killed campaign never leaves a
    half-written entry that a resume would trust; loads validate the
    payload and fall back to recomputation on any mismatch.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        # Key derivation is a full canonical JSON dump + sha256 (plus
        # a stat for trace mobility); load+store on a miss would pay
        # it twice per task without this memo.
        self._key_memo: dict[ReplicateTask, str] = {}

    def _key(self, task: ReplicateTask) -> str:
        if _is_trace_mobility(task.scenario):
            # Trace keys hash the trace *file*, which can change under
            # a long-lived cache; memoising would pin the stale key and
            # defeat the content-hash invalidation.
            return task_key(task)
        key = self._key_memo.get(task)
        if key is None:
            key = task_key(task)
            self._key_memo[task] = key
        return key

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (existing or not)."""
        return self.root / key[:2] / f"{key}.json"

    def _read(self, key: str) -> object | None:
        try:
            return json.loads(
                self.path_for(key).read_text(encoding="utf-8")
            )
        except (OSError, ValueError, UnicodeDecodeError):
            return None

    def load(self, task: ReplicateTask) -> SimulationMetrics | None:
        """Cached metrics for ``task``, or ``None`` (counted as a miss)."""
        metrics = _decode_metrics(self._read(self._key(task)), task)
        if metrics is None:
            self.misses += 1
            return None
        self.hits += 1
        return metrics

    def store(self, task: ReplicateTask, metrics: SimulationMetrics) -> None:
        """Atomically persist ``metrics`` under ``task``'s key."""
        path = self.path_for(self._key(task))
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": CACHE_FORMAT,
            "key": task_payload(task),
            # The same canonical serialisation the load path validates
            # with from_json (and the metrics stream writes).
            "metrics": metrics.to_json(),
        }
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8"
        )
        os.replace(tmp, path)

    @property
    def lookups(self) -> int:
        """Total load attempts so far."""
        return self.hits + self.misses


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaskProgress:
    """One progress tick: ``done`` of ``total`` tasks finished."""

    done: int
    total: int
    task: ReplicateTask
    cached: bool
    #: Where the result came from: ``"ran"``, ``"cache"``, or
    #: ``"stream"`` (already recorded in a metrics stream and skipped).
    source: str = ""


ProgressCallback = Callable[[TaskProgress], None]


#: Fault-injection knob for tests and CI: a float number of seconds to
#: sleep after every finished task.  The orchestrator's
#: ``--chaos-slow-shard`` sets it in one worker's environment to
#: simulate a slow machine (the scenario task stealing exists for);
#: process-pool children inherit it, so every simulation in that worker
#: is slowed uniformly.
CHAOS_TASK_SLEEP_ENV = "REPRO_CHAOS_TASK_SLEEP_S"


def _chaos_task_sleep() -> float:
    try:
        return max(0.0, float(os.environ.get(CHAOS_TASK_SLEEP_ENV, 0.0)))
    except (TypeError, ValueError):
        return 0.0


def _run_task_timed(
    task: ReplicateTask,
) -> tuple[SimulationMetrics, float, dict | None]:
    """Simulate one task: (metrics, wall seconds, phase profile or None).

    Timed inside the worker so the wall time measures the simulation,
    not pool queueing.  The phase profiler is created here (per task,
    from the ``REPRO_PROFILE_PHASES`` environment, which process-pool
    children inherit) so its snapshot pickles back with the result.
    """
    profiler = make_profiler()
    start = time.perf_counter()
    metrics = run_single(
        task.scenario,
        task.protocol,
        buffer_limit=task.buffer_limit,
        protocol_config=task.protocol_config,
        profiler=profiler,
    )
    delay = _chaos_task_sleep()
    if delay:
        time.sleep(delay)
    wall = time.perf_counter() - start
    profile = profiler.snapshot() if profiler.enabled else None
    return metrics, wall, profile


def _run_loop(
    source: Callable[[set[int]], tuple[list[int], int, bool]],
    tasks: Sequence[ReplicateTask],
    workers: int,
    cache: ResultCache | None,
    finish: Callable[
        [int, SimulationMetrics, bool, float, "dict | None"], None
    ],
    idle: Callable[[], None] | None = None,
) -> None:
    """Run the tasks ``source`` hands out: the engine's one task loop.

    Keys are indices into ``tasks``.  After every finished task the
    loop reads ``(pending keys, batch, closed)`` from ``source``, given
    the keys in flight, and takes keys off the front of ``pending`` (a
    fixed source returns the same list each time, so a key taken stays
    taken).  A cache hit finishes on the spot without taking a slot.
    At ``workers == 1`` one key runs inline; otherwise one process
    pool, made at the first miss, is topped up to ``batch`` keys in
    flight, so a slow key never idles the other slots.  With nothing
    pending or in flight, a closed source ends the loop and an open
    one calls ``idle`` before the next read.

    ``finish(key, metrics, cached, wall_time_s, phase_profile)`` runs
    once per key, after a fresh result is stored in ``cache``.
    """
    in_flight: dict[Future, int] = {}
    pool: ProcessPoolExecutor | None = None

    def ran(key: int, metrics: SimulationMetrics, wall: float,
            profile: dict | None) -> None:
        if cache is not None:
            cache.store(tasks[key], metrics)
        finish(key, metrics, False, wall, profile)

    try:
        while True:
            pending, batch, closed = source(set(in_flight.values()))
            busy = False
            while pending and len(in_flight) < batch:
                key = pending.pop(0)
                metrics = cache.load(tasks[key]) if cache is not None else None
                if metrics is not None:
                    finish(key, metrics, True, 0.0, None)
                elif workers == 1:
                    ran(key, *_run_task_timed(tasks[key]))
                    busy = True
                    break
                else:
                    if pool is None:
                        pool = ProcessPoolExecutor(
                            max_workers=min(workers, batch)
                        )
                    in_flight[pool.submit(_run_task_timed, tasks[key])] = key
            if in_flight:
                finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in finished:
                    ran(in_flight.pop(future), *future.result())
                busy = True
            if busy:
                continue
            if closed:
                return
            idle()
    finally:
        if pool is not None:
            # A clean exit has nothing in flight; on an error, drop the
            # queued keys and wait out the running ones, so no pool
            # child outlives the loop.
            pool.shutdown(wait=True, cancel_futures=True)


def execute_tasks(
    tasks: Sequence[ReplicateTask],
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: ProgressCallback | None = None,
) -> list[SimulationMetrics]:
    """Run every task, in input order, using cache and process pool.

    Each task is an independent simulation with a pre-derived seed, so
    the result list is identical whatever ``workers`` is; parallelism
    only changes wall-clock time.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    results: list[SimulationMetrics | None] = [None] * len(tasks)
    queue = list(range(len(tasks)))
    done = 0

    def finish(index: int, metrics: SimulationMetrics, cached: bool,
               wall: float, profile: dict | None) -> None:
        nonlocal done
        results[index] = metrics
        done += 1
        if progress is not None:
            progress(
                TaskProgress(
                    done,
                    len(tasks),
                    tasks[index],
                    cached,
                    source="cache" if cached else "ran",
                )
            )

    # A closed, fixed source: every task may be in flight at once (the
    # pool queues what it has no slot for); a lone task never pays for
    # a pool.
    _run_loop(
        lambda running: (queue, len(tasks), True),
        tasks,
        min(workers, len(tasks)),
        cache,
        finish,
    )
    return results


def run_replicate_specs(
    specs: Sequence[ReplicateSpec],
    workers: int = 1,
    cache_dir: str | Path | None = None,
    cache: ResultCache | None = None,
    progress: ProgressCallback | None = None,
) -> list[list[SimulationMetrics]]:
    """Execute a batch of grid cells; one metrics list per input spec.

    All cells' tasks are flattened into one pool so parallelism spans
    the whole sweep rather than one cell at a time.  This is the entry
    the figure/table/ablation drivers route their replicate loops
    through.
    """
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    tasks: list[ReplicateTask] = []
    bounds: list[tuple[int, int]] = []
    for spec in specs:
        start = len(tasks)
        tasks.extend(spec.tasks())
        bounds.append((start, len(tasks)))
    flat = execute_tasks(tasks, workers=workers, cache=cache, progress=progress)
    return [flat[start:stop] for start, stop in bounds]


# ---------------------------------------------------------------------------
# Declarative campaigns
# ---------------------------------------------------------------------------

_SCENARIO_FIELDS = frozenset(f.name for f in dataclasses.fields(Scenario))

#: Grid axes whose values are coerced into config objects at spec
#: build time (so caches key on the resolved configuration, and
#: equivalent spellings dedupe).
_AXIS_COERCERS: dict[str, Callable] = {
    "mobility": as_mobility_config,
    "adversary": as_adversary_config,
}


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: base scenario x field grid x protocol axis.

    ``grid`` is an ordered tuple of ``(scenario_field, values)`` pairs;
    the campaign runs the cartesian product of all value axes, each
    combination under every protocol variant, ``replicates`` times.
    Grid scenarios are named ``<name>/<field>=<value>,...`` for
    reporting.

    A ``mobility`` axis sweeps movement models: its values may be model
    names (``"gauss-markov"``), mappings, or
    :class:`~repro.mobility.registry.MobilityConfig` objects — all are
    coerced on construction so the cache keys on the resolved config.

    ``protocols`` is likewise an axis of *protocol variants*: names
    (``"glr"``), mappings, or
    :class:`~repro.experiments.protocols.ProtocolConfig` values with
    swept config fields (``ProtocolConfig.of("glr", custody=False)``).
    All are coerced and validated on construction, so a typo'd or
    out-of-range config parameter fails at spec load, not mid-campaign.
    Variants with parameters are labelled ``glr(custody=False)`` in
    results.
    """

    name: str
    base: Scenario = field(default_factory=Scenario)
    grid: tuple[tuple[str, tuple], ...] = ()
    protocols: tuple = ("glr",)
    replicates: int = 3
    buffer_limit: int | None = None

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if not self.protocols:
            raise ValueError("need at least one protocol")
        object.__setattr__(
            self,
            "protocols",
            tuple(as_protocol_config(p) for p in self.protocols),
        )
        if len(set(self.protocols)) != len(self.protocols):
            # Duplicate variants would produce identically labelled
            # cells that silently overwrite each other in the result
            # map ("glr" and ProtocolConfig.of("glr") are the same).
            raise ValueError("protocol axis has duplicate variants")
        # Coerce before validation so name strings / mappings dedupe
        # against equivalent config values.  A zero-fraction adversary
        # coerces to None — the honest cell — so a fraction sweep
        # naturally includes its own control.
        object.__setattr__(
            self,
            "grid",
            tuple(
                (fname, tuple(map(_AXIS_COERCERS[fname], values)))
                if fname in _AXIS_COERCERS
                else (fname, values)
                for fname, values in self.grid
            ),
        )
        for fname, values in self.grid:
            if fname == "name" or fname not in _SCENARIO_FIELDS:
                raise ValueError(f"unknown scenario grid field {fname!r}")
            if not values:
                raise ValueError(f"grid field {fname!r} has no values")
            if len(set(values)) != len(values):
                # Duplicate values would produce identically named cells
                # that silently overwrite each other in the result map.
                raise ValueError(f"grid field {fname!r} has duplicate values")

    def grid_points(
        self,
    ) -> Iterator[tuple[tuple[tuple[str, object], ...], Scenario]]:
        """(grid overrides, scenario) per grid point, in sweep order.

        The one place grid scenarios are named: ``<name>/<field>=<value>,...``
        over the overrides, which are ``(field, value)`` pairs in grid
        order (empty when there is no grid).
        """
        if not self.grid:
            yield (), self.base.but(name=self.name)
            return
        fields = [fname for fname, _ in self.grid]
        for combo in itertools.product(*(values for _, values in self.grid)):
            overrides = tuple(zip(fields, combo))
            # A coerced zero-fraction adversary is None (the honest
            # control cell); label it "none" so the cell name round-
            # trips through as_adversary_config.
            label = params_text(
                (k, "none" if v is None else v) for k, v in overrides
            )
            yield overrides, self.base.but(
                name=f"{self.name}/{label}", **dict(overrides)
            )

    def scenarios(self) -> list[Scenario]:
        """The scenario grid, in deterministic sweep order."""
        return [scenario for _, scenario in self.grid_points()]

    def cells(self) -> list[tuple[Scenario, ProtocolConfig]]:
        """Every (scenario, protocol variant) cell, in sweep order."""
        return [
            (scenario, config)
            for scenario in self.scenarios()
            for config in self.protocols
        ]

    def cell_label(
        self, scenario: Scenario, config: ProtocolConfig
    ) -> tuple[str, str]:
        """The reporting key of one cell: (scenario name, protocol label)."""
        return (scenario.name, str(config))

    def cell_specs(self) -> list[tuple[tuple[str, str], ReplicateSpec]]:
        """(cell label, :class:`ReplicateSpec`) pairs, in sweep order.

        The single expansion point: labels and specs come out of one
        loop, so consumers never have to keep two independently built
        lists index-aligned.
        """
        return [
            (
                self.cell_label(scenario, config),
                ReplicateSpec(
                    scenario=scenario,
                    protocol=config.protocol,
                    runs=self.replicates,
                    buffer_limit=self.buffer_limit,
                    # ReplicateSpec normalises a paramless config to
                    # None itself, keeping task identities equal
                    # however the cell is spelled.
                    protocol_config=config,
                ),
            )
            for scenario, config in self.cells()
        ]

    def specs(self) -> list[ReplicateSpec]:
        """One :class:`ReplicateSpec` per (scenario, protocol) cell."""
        return [cell_spec for _, cell_spec in self.cell_specs()]

    def total_tasks(self) -> int:
        """Number of simulation leaves the campaign expands to."""
        return len(self.scenarios()) * len(self.protocols) * self.replicates

    def to_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        base = dataclasses.asdict(self.base)
        region = base.pop("region")
        base["region"] = [region["width"], region["height"]]
        # An unset mobility or adversary is omitted so spec hashes — and
        # therefore existing stream headers — are unchanged from before
        # the field existed; a set one is serialised via its own JSON form.
        for axis in ("mobility", "adversary"):
            base.pop(axis)
            if getattr(self.base, axis) is not None:
                base[axis] = getattr(self.base, axis).to_json()
        return {
            "name": self.name,
            "base": base,
            # An ordered list of [field, values] pairs, not an object:
            # JSON consumers (the stream header encodes with sorted
            # keys) must not be able to reorder the sweep axes, which
            # would rename every grid cell.
            "grid": [
                [
                    fname,
                    [
                        v.to_json()
                        if isinstance(v, (MobilityConfig, AdversaryConfig))
                        else v
                        for v in values
                    ],
                ]
                for fname, values in self.grid
            ],
            "protocols": [
                p.to_json() if p.params else p.protocol
                for p in self.protocols
            ],
            "replicates": self.replicates,
            "buffer_limit": self.buffer_limit,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignSpec":
        """Build a spec from a JSON document.

        ``base`` holds :class:`Scenario` field overrides (``region`` as
        a ``[width, height]`` pair, ``mobility`` as a model name or
        ``{"model": ..., "params": {...}}`` mapping); ``grid`` is
        either a mapping of scenario fields to value lists (hand-written
        specs) or an ordered list of ``[field, values]`` pairs (the
        :meth:`to_dict` form) — a ``mobility`` axis takes the same
        name/mapping forms, and ``protocols`` entries may be names or
        ``{"protocol": ..., "params": {...}}`` mappings.
        """
        from repro.mobility.base import Region

        base_overrides = dict(data.get("base", {}))
        unknown = set(base_overrides) - _SCENARIO_FIELDS
        if unknown:
            raise ValueError(f"unknown scenario fields {sorted(unknown)}")
        if "region" in base_overrides:
            width, height = base_overrides["region"]
            base_overrides["region"] = Region(float(width), float(height))
        grid_doc = data.get("grid", {})
        grid_pairs = (
            grid_doc.items() if isinstance(grid_doc, Mapping) else grid_doc
        )
        grid = tuple(
            (fname, tuple(values)) for fname, values in grid_pairs
        )
        return cls(
            name=str(data.get("name", "campaign")),
            base=Scenario().but(**base_overrides),
            grid=grid,
            protocols=tuple(data.get("protocols", ("glr",))),
            replicates=int(data.get("replicates", 3)),
            buffer_limit=data.get("buffer_limit"),
        )


@dataclass
class CampaignResult:
    """Executed campaign: per-cell replicate metrics plus cache stats."""

    spec: CampaignSpec
    metrics: dict[tuple[str, str], list[SimulationMetrics]]
    cache_hits: int = 0
    cache_misses: int = 0
    cache_enabled: bool = False
    #: Tasks skipped because a metrics stream already recorded them.
    stream_hits: int = 0
    #: Undecodable stream lines skipped when this result was rebuilt
    #: from a stream (read-only paths never repair; non-zero means
    #: some tasks' records were unreadable and are missing here).
    stream_damaged: int = 0

    def summaries(self) -> dict[tuple[str, str], MetricSummary]:
        """90% CI summary per (scenario name, protocol) cell."""
        return summarize_cells(self.metrics)

    def cache_line(self) -> str:
        """Human-readable cache statistics for progress output."""
        stream = (
            f"; stream: {self.stream_hits} tasks resumed"
            if self.stream_hits
            else ""
        )
        if not self.cache_enabled:
            return f"cache: disabled{stream}"
        total = self.cache_hits + self.cache_misses
        rate = 100.0 * self.cache_hits / total if total else 0.0
        return (
            f"cache: {self.cache_hits} hits, {self.cache_misses} misses "
            f"({rate:.1f}% hit rate){stream}"
        )

    def render(self) -> str:
        """Paper-style summary table of every campaign cell.

        The ``runs`` column shows how many replicates each cell's
        statistics actually aggregate — on a shard run or a partial
        stream it is less than the spec's replicate count, so half the
        data can never silently read as the full result.
        """
        rows = []
        for (scenario_name, protocol), runs in self.metrics.items():
            rows.append(
                [
                    scenario_name,
                    protocol,
                    str(len(runs)),
                    fmt_ci(ci_of(runs, "delivery_ratio"), digits=3),
                    fmt_ci(ci_of(runs, "average_latency")),
                    fmt_ci(ci_of(runs, "average_hops"), digits=2),
                    fmt_ci(ci_of(runs, "average_peak_storage")),
                ]
            )
        return render_table(
            f"campaign {self.spec.name}: {self.spec.replicates} replicates",
            [
                "scenario",
                "protocol",
                "runs",
                "delivery_ratio",
                "latency_s",
                "hops",
                "avg_peak_storage",
            ],
            rows,
        )


def campaign_spec_hash(spec: CampaignSpec) -> str:
    """Content hash identifying a campaign spec (stream/shard identity).

    Two shard runs belong to the same campaign exactly when their spec
    hashes match; :func:`~repro.experiments.stream.merge_streams`
    refuses anything else.  The hash covers the full declarative spec
    plus :data:`CACHE_FORMAT`, so a simulator-semantics bump separates
    streams the same way it separates caches.
    """
    blob = json.dumps(
        {"format": CACHE_FORMAT, "spec": spec.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: One expanded campaign leaf: (cell label, task, content key).  The
#: key is derived once per task here and reused for shard selection,
#: stream resume, stream records, and the final stream rebuild —
#: task_key is a full canonical JSON dump + sha256 (plus a stat for
#: trace mobility), too expensive to recompute per use.
_CampaignEntry = tuple[tuple[str, str], ReplicateTask, str]


def _select_shard(
    entries: list[_CampaignEntry],
    shard_index: int | None,
    shard_count: int | None,
) -> list[_CampaignEntry]:
    if (shard_index is None) != (shard_count is None):
        raise ValueError(
            "shard_index and shard_count must be given together"
        )
    if shard_count is None:
        return entries
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )
    return [
        entry
        for entry in entries
        if stable_shard(entry[2], shard_count) == shard_index
    ]


#: Seconds an idle ``--tasks`` worker sleeps between assignment-file
#: reads.  The file is about a kilobyte and the heartbeat events an
#: idle poll emits are throttled, so polling often is cheap.  It must
#: sit well under the supervisor's poll interval: the last worker of a
#: run has to see its file close and exit within one supervisor tick,
#: or the whole run waits a tick longer.
_ASSIGNMENT_POLL_S = 0.02


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
    stream_path: str | Path | None = None,
    shard_index: int | None = None,
    shard_count: int | None = None,
    tasks_file: str | Path | None = None,
    wait_timeout: float | None = None,
    on_wait: Callable[[], None] | None = None,
) -> CampaignResult:
    """Execute a declarative campaign and aggregate its grid.

    With ``stream_path``, every finished task appends one JSONL record
    to the campaign's metrics stream, tasks already recorded there are
    skipped entirely (stream resume), and the returned result is built
    *from the stream* — the stream is the source of truth, not
    in-memory state.  The stream is the campaign's primary resume
    medium: a killed run relaunched with the same ``stream_path`` runs
    only the tasks its stream does not hold yet, no result cache
    required.  ``cache_dir`` is an opt-in *second* layer whose value is
    cross-campaign reuse — per-task entries keyed by content survive
    spec renames and feed other sweeps that share tasks — not
    within-campaign resume.  With ``shard_index``/``shard_count``, only
    this shard's deterministic subset of tasks runs (partitioned by
    content key via :func:`repro.seeding.stable_shard`); shard streams
    are merged with :func:`~repro.experiments.stream.merge_streams` and
    aggregated with :func:`campaign_result_from_stream`.
    :func:`repro.experiments.orchestrator.orchestrate_campaign` wraps
    the whole fan-out (launch shards, supervise, merge) in one call.

    With ``tasks_file``, the worker executes the *explicit task-key
    list* a scheduler assignment file holds instead of a hash-derived
    shard: at most the file's ``batch`` keys are in flight at once, and
    the file is re-read after every finished task, so leases the
    supervisor reclaims (work stealing) are dropped before the worker
    reaches them and leases it grants mid-run are picked up.  When the
    file has no pending keys but is not ``closed``, the worker waits
    (calling ``on_wait`` on each poll — the CLI logs a throttled
    heartbeat event there) for more leases; a ``closed`` file with
    nothing pending ends the run.  ``wait_timeout`` bounds that wait: a
    live supervisor freshens the assignment file's mtime every
    supervision tick, so a file that stays untouched for
    ``wait_timeout`` seconds while the worker is idle means the
    supervisor died without closing it — the worker raises
    :class:`~repro.experiments.scheduler.AssignmentIdleTimeout` instead
    of polling forever as an orphan (``None``: wait indefinitely).
    Requires ``stream_path`` and conflicts with
    ``shard_index``/``shard_count``.

    Args:
        spec: the validated campaign (grid x protocols x replicates).
        workers: process-pool size for replicate simulations (1 =
            in-process serial execution).
        cache_dir: opt-in cross-campaign per-task result cache.
        progress: callback invoked per finished task.
        stream_path: JSONL metrics stream to append to and resume from.
        shard_index / shard_count: run only this hash-partitioned
            shard of the task set (both or neither; needs
            ``stream_path``).
        tasks_file: scheduler assignment file naming the exact task
            keys to run (the orchestrator's worker mode).
        wait_timeout: idle seconds on an untouched, unclosed assignment
            file before giving up (``None``: wait forever).
        on_wait: callback invoked once per idle poll.

    Returns:
        The aggregated :class:`CampaignResult`.  With ``stream_path``
        it is rebuilt from the stream (the source of truth), so cached,
        resumed, and freshly-run tasks are indistinguishable in it.

    Raises:
        ValueError: ``workers`` below 1, or conflicting arguments
            (``tasks_file`` with shard args, shard args without
            ``stream_path``, or half a shard pair).
        StreamError: ``stream_path`` exists but is not this campaign's
            stream (bad header or mismatched spec hash).
        repro.experiments.scheduler.AssignmentIdleTimeout: the
            ``tasks_file`` supervisor went quiet past ``wait_timeout``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if tasks_file is not None:
        if shard_index is not None or shard_count is not None:
            raise ValueError(
                "tasks_file and shard_index/shard_count both fix the "
                "task subset; pass one or the other"
            )
        if stream_path is None:
            raise ValueError(
                "tasks_file campaigns need stream_path: the stream is "
                "how the scheduler sees recorded tasks"
            )
        if wait_timeout is not None and wait_timeout <= 0:
            raise ValueError("wait_timeout must be positive (or None)")
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    # Entry keys feed shard selection and the stream (resume map,
    # records, rebuild); when neither is in play, skip the derivation
    # entirely (the cache memoises its own).
    need_keys = stream_path is not None or shard_count is not None
    entries: list[_CampaignEntry] = [
        (label, task, task_key(task) if need_keys else "")
        for label, cell_spec in spec.cell_specs()
        for task in cell_spec.tasks()
    ]
    entries = _select_shard(entries, shard_index, shard_count)
    recorded: set[str] = set()
    if stream_path is not None:
        spec_hash = campaign_spec_hash(spec)
        info = init_stream(stream_path, spec_hash, spec.to_dict())
        recorded = {record["key"] for record in info.records}

    # The task loop's keys are indices into entries.
    results: list[SimulationMetrics | None] = [None] * len(entries)
    #: Entries a progress event went out for (skipped or finished).
    counted: set[int] = set()
    #: What the source hands out now: every entry, or the leases.
    leased: Sequence[int] = range(len(entries))
    stream_hits = 0

    def tick(index: int, cached: bool, source: str) -> None:
        counted.add(index)
        if progress is not None:
            # A lease file drops done keys on every rewrite, so the
            # honest denominator is everything counted so far plus
            # what is leased now, not the file's key count.
            progress(
                TaskProgress(
                    len(counted),
                    len(counted.union(leased)),
                    entries[index][1],
                    cached=cached,
                    source=source,
                )
            )

    def unrecorded(indices: Sequence[int]) -> list[int]:
        """``indices`` minus the stream's records, skipped visibly."""
        nonlocal stream_hits
        pending = []
        for index in indices:
            if entries[index][2] not in recorded:
                pending.append(index)
            elif index not in counted:
                stream_hits += 1
                tick(index, cached=True, source="stream")
        return pending

    def finish(index: int, metrics: SimulationMetrics, cached: bool,
               wall: float, profile: dict | None) -> None:
        results[index] = metrics
        _, task, key = entries[index]
        if stream_path is not None:
            append_record(
                stream_path,
                make_task_record(
                    key=key,
                    scenario=task.scenario.name,
                    protocol=task.protocol_label,
                    replicate=task.replicate,
                    seed=task.scenario.seed,
                    metrics_json=metrics.to_json(),
                    cached=cached,
                    wall_time_s=wall,
                    phase_profile=profile,
                ),
            )
            recorded.add(key)
        tick(index, cached, "cache" if cached else "ran")

    tasks = [task for _, task, _ in entries]
    if tasks_file is None:
        # A closed, fixed source, exactly as in execute_tasks.
        queue = unrecorded(leased)
        _run_loop(
            lambda running: (queue, len(tasks), True),
            tasks,
            min(workers, len(queue)),
            cache,
            finish,
        )
    else:
        # The lease source: re-read after every finished task, so keys
        # the supervisor reclaims (work stealing) drop out before they
        # start and leases granted mid-run join.  The in-flight keys
        # stay inside the keep window a steal never touches.
        index_of = {key: index for index, (_, _, key) in enumerate(entries)}
        doc = None
        # Supervisor-liveness clock: a rewrite (version), a bare mtime
        # freshen (the supervisor touches every assignment file each
        # tick) or a finished task resets it.
        idle_since = 0.0
        last_beacon: tuple[int, int, int] | None = None

        def read(running: set[int]) -> tuple[list[int], int, bool]:
            nonlocal doc, leased
            doc = read_assignment(tasks_file)
            if doc.spec_hash != spec_hash:
                raise SchedulerError(
                    f"assignment {tasks_file} belongs to spec hash "
                    f"{doc.spec_hash[:12]}..., this campaign is "
                    f"{spec_hash[:12]}...; refusing to mix campaigns"
                )
            unknown = [key for key in doc.keys if key not in index_of]
            if unknown:
                raise SchedulerError(
                    f"assignment {tasks_file} lists {len(unknown)} task "
                    f"key(s) this campaign does not expand to "
                    f"(first: {unknown[0][:12]}...)"
                )
            leased = [index_of[key] for key in doc.keys]
            pending = [i for i in unrecorded(leased) if i not in running]
            return pending, doc.batch, doc.closed

        def idle() -> None:
            nonlocal idle_since, last_beacon
            if wait_timeout is not None:
                try:
                    mtime = os.stat(tasks_file).st_mtime_ns
                except OSError:
                    mtime = 0
                beacon = (mtime, doc.version, len(counted))
                now = time.monotonic()
                if beacon != last_beacon:
                    last_beacon = beacon
                    idle_since = now
                elif now - idle_since > wait_timeout:
                    raise AssignmentIdleTimeout(
                        f"assignment {tasks_file} has no pending tasks, "
                        f"is not closed, and went untouched for "
                        f"{now - idle_since:.0f}s (> wait_timeout "
                        f"{wait_timeout:.0f}s); assuming the supervisor "
                        f"died without closing it"
                    )
            if on_wait is not None:
                on_wait()
            time.sleep(_ASSIGNMENT_POLL_S)

        _run_loop(read, tasks, workers, cache, finish, idle)

    metrics: dict[tuple[str, str], list[SimulationMetrics]] = {}
    if stream_path is not None:
        # The stream is the source of truth: reload it so the result is
        # exactly what a later `campaign aggregate` would see.  No
        # repair here — our own records are fsync'd and complete, and
        # deleting someone else's in-flight line is the resume path's
        # call, not ours.  A --tasks worker's stream holds only its
        # leases, and may hold keys later stolen *away* from it (still
        # valid records of this campaign).
        by_key = {
            record["key"]: record
            for record in load_stream(
                stream_path, spec_hash, quarantine=False
            ).records
        }
        for label, _, key in entries:
            if key in by_key:
                metrics.setdefault(label, []).append(
                    SimulationMetrics.from_json(by_key[key]["metrics"])
                )
    else:
        for (label, _, _), run_metrics in zip(entries, results):
            metrics.setdefault(label, []).append(run_metrics)

    return CampaignResult(
        spec=spec,
        metrics=metrics,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
        cache_enabled=cache is not None,
        stream_hits=stream_hits,
    )


def campaign_result_from_records(
    spec: CampaignSpec,
    records: Sequence[dict],
    stream_damaged: int = 0,
    source: str = "stream",
) -> CampaignResult:
    """Aggregate task records (stream lines) into a :class:`CampaignResult`.

    The shared rebuild step behind :func:`campaign_result_from_stream`
    (one finished stream) and the live watcher (an in-memory union of
    *growing* shard streams re-aggregated every tick).  Cells are
    ordered exactly as the live campaign orders them, so a complete
    record set renders byte-identically to the run that produced it;
    cells with no records yet are simply absent (the ``runs`` column
    makes partial coverage visible).  ``source`` names where the
    records came from, for error messages.
    """
    by_cell: dict[tuple[str, str], list[dict]] = {}
    for record in records:
        cell = (record["scenario"], record["protocol"])
        by_cell.setdefault(cell, []).append(record)
    known_cells = [
        spec.cell_label(scenario, config)
        for scenario, config in spec.cells()
    ]
    metrics: dict[tuple[str, str], list[SimulationMetrics]] = {}
    for cell in known_cells:
        cell_records = by_cell.pop(cell, None)
        if not cell_records:
            continue  # a shard/partial stream covers only part of the grid
        cell_records.sort(key=lambda r: r["replicate"])
        replicates = [r["replicate"] for r in cell_records]
        if len(set(replicates)) != len(replicates):
            # Two records for one (cell, replicate) under different
            # task keys means the stream holds multiple *generations*
            # of the campaign (e.g. a trace file edited in place, keys
            # rehashed, tasks rerun into the same stream).  There is no
            # way to know which generation is current from the stream
            # alone; aggregating both would silently skew the CIs.
            raise ValueError(
                f"{source} holds multiple records for cell "
                f"{cell} at the same replicate index — superseded task "
                f"generations; rerun the campaign with a fresh stream"
            )
        metrics[cell] = [
            SimulationMetrics.from_json(r["metrics"]) for r in cell_records
        ]
    if by_cell:
        raise ValueError(
            f"{source} has records for cells the spec does "
            f"not define: {sorted(by_cell)[:3]}"
        )
    return CampaignResult(
        spec=spec,
        metrics=metrics,
        stream_hits=len(records),
        stream_damaged=stream_damaged,
    )


def campaign_result_from_stream(
    stream_path: str | Path,
) -> CampaignResult:
    """Rebuild a campaign's aggregate purely from its metrics stream.

    The stream header carries the full spec document, so this works on
    a different machine than the one that ran the campaign — the
    decoupling sharded sweeps rely on: shards stream, one place merges
    and aggregates.  Cells are ordered exactly as the live campaign
    orders them, so a complete stream renders byte-identically to the
    run that produced it.
    """
    # Read-only: never repair a stream another process may be writing.
    info = load_stream(stream_path, quarantine=False)
    spec = CampaignSpec.from_dict(info.header["spec"])
    if campaign_spec_hash(spec) != info.spec_hash:
        raise ValueError(
            f"stream {stream_path} header is inconsistent: its spec "
            f"document does not hash to its spec_hash"
        )
    return campaign_result_from_records(
        spec,
        info.records,
        stream_damaged=info.quarantined,
        source=f"stream {stream_path}",
    )


def merge_caches(
    out_dir: str | Path, in_dirs: Sequence[str | Path]
) -> int:
    """Union shard result caches into ``out_dir``; returns entries copied.

    Entries are content-addressed, so a union is just copying files the
    target does not have yet; existing entries win (they are identical
    by construction when keys collide).
    """
    copied = 0
    out_root = Path(out_dir)
    for in_dir in in_dirs:
        root = Path(in_dir)
        if not root.is_dir():
            raise ValueError(f"cache dir {root} does not exist")
        for entry in sorted(root.glob("*/*.json")):
            target = out_root / entry.parent.name / entry.name
            if target.exists():
                continue
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
            tmp.write_bytes(entry.read_bytes())
            os.replace(tmp, target)
            copied += 1
    return copied
