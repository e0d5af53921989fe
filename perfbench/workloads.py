"""The benchmark's workloads, how one unit of each runs, and its checks.

Every workload is a :class:`~repro.experiments.campaign.CampaignSpec`
built from the workload seed; scenarios never name an engine.  A
*unit* is what the timing loop repeats:

- ``glr-table1`` / ``epidemic-n400``: one simulation task — replicate
  ``i`` of the spec's single cell, built with ``build_world`` (set-up)
  and run to the horizon (run phase);
- ``sweep-light``: the whole streamed ``run_campaign`` sweep, then its
  read side (``campaign_result_from_stream`` and ``ResultStore``
  queries over the finished stream).

Every task's canonical metrics payload is checked for accounting
(messages created equal the messages scheduled inside the horizon, no
more deliveries than creations) and, when the seed has pinned digests
in ``goldens.json``, against its pinned sha256.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.analysis.store import ResultStore
from repro.experiments import campaign, runner, stream
from repro.experiments.campaign import CampaignSpec, ReplicateTask
from repro.experiments.scenarios import Scenario
from repro.mobility.base import Region

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

#: Replicates in a single-task workload's spec: the most tasks one run
#: can execute (a unit is one replicate).
MAX_TASKS = 64

#: Set-up samples per sweep unit (the sweep's set-up is short, so it is
#: sampled several times and the median reported).
SETUP_REPEATS = 10

#: Read-side samples per sweep unit, and per single-task run.
READ_REPEATS = 15

#: Task records a single-task run streams for its read side: a fixed
#: count, so the read side's size does not depend on how many tasks
#: the run had time for.
READ_TASKS = 6

#: N=400 at the paper's N=50 node density: eight times the area.
_N400_SCALE = math.sqrt(8)

#: The benchmark's own bookkeeping reads go through this reference, taken
#: before any tracer patch, so they never count as traced stream work.
_load_stream = stream.load_stream


def _no_span(name: str):
    return contextlib.nullcontext()


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a campaign spec template plus its unit."""

    name: str
    base: Scenario
    protocols: tuple[str, ...]
    replicates: int = MAX_TASKS
    grid: tuple = ()
    #: True: one unit is the whole streamed sweep; False: one task.
    sweep: bool = False
    #: The variant the self-test and the pre-timing canary run.
    tiny: "Workload | None" = None

    def spec(self, seed: int) -> CampaignSpec:
        return CampaignSpec(
            name=f"{self.name}/seed={seed}",
            base=self.base.with_seed(seed),
            grid=self.grid,
            protocols=self.protocols,
            replicates=self.replicates,
        )


def _with_tiny(workload: Workload, **tiny_changes) -> Workload:
    return replace(
        workload, tiny=replace(workload, name=workload.name + "~tiny",
                               **tiny_changes)
    )


GLR_TABLE1 = _with_tiny(
    Workload(
        name="glr-table1",
        base=Scenario(name="glr-table1", sim_time=40.0),
        protocols=("glr",),
    ),
    base=Scenario(name="glr-table1", sim_time=10.0),
)

EPIDEMIC_N400 = _with_tiny(
    Workload(
        name="epidemic-n400",
        base=Scenario(
            name="epidemic-n400",
            n_nodes=400,
            region=Region(1500.0 * _N400_SCALE, 300.0 * _N400_SCALE),
            sim_time=12.0,
        ),
        protocols=("epidemic",),
    ),
    base=Scenario(
        name="epidemic-n400",
        n_nodes=400,
        region=Region(1500.0 * _N400_SCALE, 300.0 * _N400_SCALE),
        sim_time=3.0,
    ),
)

SWEEP_LIGHT = _with_tiny(
    Workload(
        name="sweep-light",
        base=Scenario(name="sweep-light", sim_time=90.0),
        protocols=("one_hop", "spray_and_wait"),
        grid=(("radius", (60.0, 100.0, 150.0, 200.0)),),
        replicates=2,
        sweep=True,
    ),
    base=Scenario(name="sweep-light", sim_time=10.0),
    grid=(("radius", (100.0, 150.0)),),
    replicates=2,
)

WORKLOADS = {w.name: w for w in (GLR_TABLE1, EPIDEMIC_N400, SWEEP_LIGHT)}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def canonical_payload(metrics) -> dict:
    """The payload every check and digest reads: ``to_json()`` output
    passed through JSON, exactly as a stream record stores it."""
    return json.loads(json.dumps(metrics.to_json()))


def payload_digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def scheduled_in_horizon(scenario: Scenario) -> int:
    """Messages the workload generator schedules at or before the
    horizon (same arithmetic as the generator, independently coded)."""
    return sum(
        1
        for i in range(scenario.message_count)
        if scenario.message_start + i * scenario.message_interval
        <= scenario.sim_time
    )


def check_payload(
    payload: dict, scenario: Scenario, pinned: str | None = None
) -> list[str]:
    """Problems with one task's payload (empty when it is correct)."""
    problems = []
    created = payload["messages_created"]
    delivered = payload["messages_delivered"]
    expected = scheduled_in_horizon(scenario)
    if created != expected:
        problems.append(
            f"messages_created {created} != {expected} scheduled "
            f"inside the horizon"
        )
    if delivered > created:
        problems.append(
            f"messages_delivered {delivered} > messages_created {created}"
        )
    if len(payload["latencies"]) != delivered:
        problems.append("latency count differs from messages_delivered")
    if pinned is not None and payload_digest(payload) != pinned:
        problems.append("payload digest differs from the pinned digest")
    return problems


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def pinned_digests(goldens: dict, workload: Workload, seed: int) -> list:
    """Pinned digests in task order (empty when the seed is unpinned)."""
    return goldens["digests"].get(workload.name, {}).get(str(seed), [])


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


@dataclass
class TaskResult:
    """One simulation task of a unit."""

    task: ReplicateTask
    index: int  # position in the spec's task expansion
    wall_s: float
    payload: dict
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return payload_digest(self.payload)


@dataclass
class UnitResult:
    """One timed unit: a task, or a whole sweep with its read side."""

    wall_s: float
    setup_s: list[float]
    run_s: float  # denominator of events_per_s
    tasks: list[TaskResult]
    read_s: list[float] = field(default_factory=list)
    stream_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def events(self) -> int:
        return sum(t.payload["events_processed"] for t in self.tasks)


def spec_tasks(spec: CampaignSpec) -> list[ReplicateTask]:
    return [task for cell in spec.specs() for task in cell.tasks()]


def run_task(task: ReplicateTask, index: int) -> UnitResult:
    """Build and run one task; set-up is ``build_world``."""
    start = time.perf_counter()
    world = runner.build_world(task.scenario, task.protocol)
    built = time.perf_counter()
    metrics = world.run(until=task.scenario.sim_time, protocol_name=task.protocol)
    end = time.perf_counter()
    result = TaskResult(task, index, end - start, canonical_payload(metrics))
    return UnitResult(
        wall_s=end - start,
        setup_s=[built - start],
        run_s=end - built,
        tasks=[result],
    )


def sweep_setup(workload: Workload, seed: int, path: Path) -> float:
    """Spec expansion plus stream init: the sweep's time before its
    first event fires."""
    start = time.perf_counter()
    spec = workload.spec(seed)
    for task in spec_tasks(spec):
        campaign.task_key(task)
    stream.init_stream(path, campaign.campaign_spec_hash(spec), spec.to_dict())
    return time.perf_counter() - start


def read_side(spec: CampaignSpec, path: Path):
    """Stream load, aggregation and query over a finished stream."""
    rebuilt = campaign.campaign_result_from_stream(path)
    store = ResultStore.open(path)
    queried = {
        config.protocol: store.select(protocol=config.protocol).metrics_by_cell()
        for config in spec.protocols
    }
    return rebuilt, queried


def check_read_side(rebuilt, queried, tasks: list[TaskResult]) -> list[str]:
    """The stream round trip must give back every task's payload."""
    expected = sorted(t.digest for t in tasks)
    rebuilt_digests = sorted(
        payload_digest(canonical_payload(m))
        for runs in rebuilt.metrics.values()
        for m in runs
    )
    queried_digests = sorted(
        payload_digest(canonical_payload(m))
        for cells in queried.values()
        for runs in cells.values()
        for m in runs
    )
    problems = []
    if rebuilt_digests != expected:
        problems.append("campaign_result_from_stream lost or changed tasks")
    if queried_digests != expected:
        problems.append("ResultStore.select lost or changed tasks")
    return problems


def timed_reads(spec: CampaignSpec, path: Path, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        read_side(spec, path)
        times.append(time.perf_counter() - start)
    return times


def run_sweep(
    workload: Workload, seed: int, workdir: Path, unit: int, span=None
) -> UnitResult:
    """Set up, run and read back one streamed sweep.

    Untraced, the set-up and the read side are also sampled on their
    own, several times.  Traced (``span`` is the tracer's), only the
    sweep runs, with the campaign and its read side bracketed so the
    time between tasks is charged to the campaign layer.
    """
    traced = span is not None
    span = span or _no_span
    setups = []
    for repeat in range(0 if traced else SETUP_REPEATS):
        probe = workdir / f"setup-{unit}-{repeat}.jsonl"
        setups.append(sweep_setup(workload, seed, probe))
        probe.unlink()
    spec = workload.spec(seed)
    path = workdir / f"sweep-{unit}.jsonl"
    start = time.perf_counter()
    with span("campaign"):
        campaign.run_campaign(spec, workers=1, stream_path=path)
    ran = time.perf_counter()
    with span("analysis"):
        rebuilt, queried = read_side(spec, path)
    end = time.perf_counter()
    reads = [end - ran]
    if not traced:
        reads += timed_reads(spec, path, READ_REPEATS - 1)

    tasks = spec_tasks(spec)
    index_of = {campaign.task_key(task): i for i, task in enumerate(tasks)}
    info = _load_stream(path, quarantine=False)
    results = sorted(
        (
            TaskResult(
                task=tasks[index_of[record["key"]]],
                index=index_of[record["key"]],
                wall_s=record["wall_time_s"],
                payload=record["metrics"],
            )
            for record in info.records
        ),
        key=lambda r: r.index,
    )
    problems = check_read_side(rebuilt, queried, results)
    if len(results) != len(tasks):
        problems.append(
            f"stream holds {len(results)} of {len(tasks)} sweep tasks"
        )
    size = path.stat().st_size
    path.unlink()
    return UnitResult(
        wall_s=end - start,
        setup_s=setups,
        run_s=sum(r.wall_s for r in results),
        tasks=results,
        read_s=reads,
        stream_bytes=size,
        problems=problems,
    )


def single_task_read_side(
    workload: Workload, seed: int, units: list[UnitResult], workdir: Path
) -> tuple[list[float], list[str]]:
    """Stream the run's first task records, then sample the read side.

    Returns (read-side seconds per sample, problems).
    """
    spec = workload.spec(seed)
    path = workdir / "tasks.jsonl"
    stream.init_stream(path, campaign.campaign_spec_hash(spec), spec.to_dict())
    results = [t for unit in units for t in unit.tasks][:READ_TASKS]
    for result in results:
        stream.append_record(
            path,
            stream.make_task_record(
                key=campaign.task_key(result.task),
                scenario=result.task.scenario.name,
                protocol=result.task.protocol_label,
                replicate=result.task.replicate,
                seed=result.task.scenario.seed,
                metrics_json=result.payload,
                cached=False,
                wall_time_s=result.wall_s,
            ),
        )
    rebuilt, queried = read_side(spec, path)
    problems = check_read_side(rebuilt, queried, results)
    times = timed_reads(spec, path, READ_REPEATS)
    path.unlink()
    return times, problems


def iter_units(workload: Workload, seed: int, workdir: Path, span=None):
    """The workload's units in order: ``unit(i)`` runs unit ``i``.

    Passing a tracer's ``span`` marks a traced run (see
    :func:`run_sweep`).
    """
    if workload.sweep:
        return lambda i: run_sweep(workload, seed, workdir, i, span)
    tasks = spec_tasks(workload.spec(seed))
    return lambda i: run_task(tasks[i], i)


def work_dir(root: Path) -> Path:
    path = root / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
