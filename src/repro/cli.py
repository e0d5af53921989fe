"""Command-line interface: ``repro`` / ``glr-repro`` / ``python -m repro.cli``.

Subcommands:

- ``run`` — one simulation with explicit parameters, printing metrics.
- ``experiment`` — regenerate one of the paper's figures/tables (or an
  ablation) at bench, spot, or paper effort.
- ``campaign`` — run a declarative scenario-grid x protocol-config x
  replicate sweep through the parallel campaign engine, with an
  append-only JSONL metrics stream as the primary resume medium (an
  on-disk result cache is an opt-in second layer), so interrupted or
  repeated campaigns resume instead of re-simulating.
  ``--shard-index/--shard-count`` runs one deterministic slice of a
  campaign (multi-machine sweeps); ``--tasks FILE`` runs the explicit
  task-key list in a scheduler assignment file, re-read between
  batches; ``campaign orchestrate`` launches and supervises all shards
  as local worker subprocesses (requeuing a dead worker's remaining
  tasks; ``--scheduler stealing`` additionally moves unstarted leases
  from lagging shards onto idle workers); ``campaign watch`` tails the
  growing streams and re-renders the partial aggregate live;
  ``campaign merge`` unions shard streams; ``campaign aggregate``
  renders the summary table from a stream alone; ``campaign status``
  is a one-shot health report of a run directory (per-shard progress,
  heartbeat staleness, supervision counts — from files alone);
  ``campaign events`` prints the run's structured event log.
- ``report`` — render a self-contained trade-off report (Pareto
  frontiers, bootstrap-CI rankings, dominance/regret, per-axis curves)
  from a run directory or merged stream, as markdown or single-file
  HTML.
- ``list`` — enumerate available experiments and protocols.

Examples::

    repro run --protocol glr --radius 100 --messages 200 --sim-time 600
    repro experiment fig4 --effort bench --workers 4
    repro experiment fig6 --mobility gauss-markov
    repro campaign --radii 50,100 --protocols glr,epidemic \\
        --replicates 3 --workers 4 --stream metrics.jsonl
    repro campaign --mobility rwp,gauss-markov \\
        --protocol-param check_interval=0.9,1.8 \\
        --protocol-param custody=true,false --workers 4
    repro campaign --mobility rpgm --mobility-param n_groups=2,4 \\
        --protocols glr --replicates 3
    repro campaign --protocols glr,epidemic --adversary none \\
        --adversary blackhole:0.1 --adversary blackhole:0.3
    repro campaign --suite mobility-x-protocol --effort bench
    repro campaign orchestrate --radii 50,100 --shards 2 \\
        --workers-per-shard 2 --dir RUNDIR
    repro campaign orchestrate --radii 50,100 --shards 4 \\
        --scheduler stealing --dir RUNDIR
    repro campaign orchestrate --radii 50,100 \\
        --hosts user@h1,user@h2 --dir RUNDIR
    repro campaign watch --dir RUNDIR
    repro campaign status RUNDIR
    repro campaign events RUNDIR --type requeue
    repro campaign --radii 50,100 --stream shard0.jsonl \\
        --shard-index 0 --shard-count 2 --cache-dir CACHE
    repro campaign merge --out merged.jsonl shard0.jsonl shard1.jsonl
    repro campaign aggregate --stream merged.jsonl
    repro report RUNDIR
    repro report merged.jsonl --format html --out report.html
    repro report RUNDIR --protocol glr --adversary blackhole
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Callable

from repro.experiments import ablations, figures, tables
from repro.experiments.campaign import (
    CampaignSpec,
    TaskProgress,
    campaign_result_from_stream,
    merge_caches,
    run_campaign,
)
from repro.experiments.layout import RunLayout
from repro.experiments.orchestrator import (
    OrchestratorError,
    orchestrate_campaign,
    render_watch,
    watch_view,
)
from repro.experiments.protocols import ProtocolConfig
from repro.experiments.scheduler import (
    AssignmentIdleTimeout,
    SchedulerError,
    read_assignment,
)
from repro.experiments.transport import parse_hosts
from repro.experiments.stream import (
    StreamError,
    merge_streams,
    stream_task_count,
)
from repro.telemetry.events import (
    EVENT_TYPES,
    HEARTBEAT_EVERY_S,
    EventLog,
    filter_events,
    load_events,
    render_event,
)
from repro.experiments.common import (
    BENCH_EFFORT,
    PAPER_EFFORT,
    SPOT_EFFORT,
    Effort,
)
from repro.experiments.runner import available_protocols, run_single
from repro.experiments.scenarios import Scenario
from repro.experiments.suites import (
    available_suites,
    build_suite,
    suite_description,
)
from repro.mobility.registry import (
    MobilityConfig,
    as_mobility_config,
    available_models,
)
from repro.sim.adversary import (
    as_adversary_config,
    available_adversary_modes,
)


def _fig1_driver(
    effort: Effort, seed: int, workers: int = 1, cache_dir=None, mobility=None
):
    # Figure 1 is a static-topology experiment; effort maps to run count
    # and there is nothing to parallelise, cache, or move.
    if mobility is not None:
        raise ValueError("fig1 is a static-topology experiment; --mobility "
                         "does not apply")
    return figures.fig1_topology(runs=effort.runs * 5, seed=seed)


#: Experiment name -> driver accepting (effort=..., seed=...).
EXPERIMENTS: dict[str, Callable] = {
    "fig1": _fig1_driver,
    "fig3": figures.fig3_check_interval,
    "fig4": figures.fig4_latency_vs_load,
    "fig5": figures.fig5_latency_vs_load,
    "fig6": figures.fig6_latency_vs_radius,
    "fig7": figures.fig7_delivery_vs_storage,
    "table2": tables.table2_location,
    "table3": tables.table3_custody,
    "table4": tables.table4_storage_vs_load,
    "table5": tables.table5_storage_vs_radius,
    "table6": tables.table6_hops,
    "ablation-copies": ablations.ablation_copies,
    "ablation-spanner": ablations.ablation_spanner,
    "ablation-face": ablations.ablation_face_routing,
    "ablation-custody-timeout": ablations.ablation_custody_timeout,
    "ablation-protocols": ablations.ablation_protocols,
}

EFFORTS: dict[str, Effort] = {
    "bench": BENCH_EFFORT,
    "spot": SPOT_EFFORT,
    "paper": PAPER_EFFORT,
}


def _adversary_argument(text: str) -> str:
    """``--adversary`` argparse type: validate the spec at parse time.

    A typo'd mode or fraction should die in argparse before anything
    runs.  The raw string is kept (not the parsed config) so argparse
    can print it in error messages; Scenario/CampaignSpec re-coerce.
    """
    try:
        as_adversary_config(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _hosts_argument(text: str) -> list[str]:
    """``--hosts`` argparse type: split and *validate* at parse time.

    A typo'd fleet spec should die in argparse (usage + exit 2) before
    a single simulation starts, not when the supervisor first tries to
    push the spec out.  The parsed transports are thrown away here —
    the orchestrator re-parses — because argparse values must survive
    being printed in error messages.
    """
    specs = [part.strip() for part in text.split(",") if part.strip()]
    if not specs:
        raise argparse.ArgumentTypeError(
            "needs at least one host spec (e.g. user@h1,user@h2)"
        )
    try:
        parse_hosts(specs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return specs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glr-repro",
        description="Reproduction of the GLR DTN routing paper (ICDCS 2009).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument("--protocol", default="glr", choices=available_protocols())
    run_p.add_argument("--radius", type=float, default=100.0)
    run_p.add_argument("--messages", type=int, default=200)
    run_p.add_argument("--sim-time", type=float, default=600.0)
    run_p.add_argument("--nodes", type=int, default=50)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--storage-limit", type=int, default=None)
    run_p.add_argument(
        "--adversary",
        type=_adversary_argument,
        default=None,
        metavar="MODE:FRACTION[:k=v,...]",
        help="compromise a seed-chosen node fraction with this Byzantine "
        f"behaviour (modes: {','.join(available_adversary_modes())}; "
        "'none' or fraction 0 runs honest)",
    )

    exp_p = sub.add_parser("experiment", help="regenerate a figure/table")
    exp_p.add_argument("name", choices=sorted(EXPERIMENTS))
    exp_p.add_argument("--effort", default="bench", choices=sorted(EFFORTS))
    exp_p.add_argument("--seed", type=int, default=1)
    exp_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="replicate simulations to run in parallel (default: serial)",
    )
    exp_p.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache; reruns skip finished simulations",
    )
    exp_p.add_argument(
        "--mobility",
        default=None,
        help="run the experiment under a registry mobility model "
        "(e.g. gauss-markov, rpgm, manhattan) instead of the paper's RWP",
    )

    camp_p = sub.add_parser(
        "campaign",
        help="run a scenario-grid sweep through the campaign engine",
        # Prefix abbreviation would make `events --shard` ambiguous
        # against this parser's --shard-index/--shard-count during
        # argparse's pre-scan, even though --shard belongs to the
        # subcommand; exact option names only.
        allow_abbrev=False,
    )
    camp_sub = camp_p.add_subparsers(
        dest="campaign_action",
        metavar="{orchestrate,watch,status,events,merge,aggregate}",
    )
    orch_p = camp_sub.add_parser(
        "orchestrate",
        help="launch and supervise all shards of a campaign as local "
        "worker subprocesses, then merge and aggregate",
    )
    _add_campaign_shape_args(orch_p)
    orch_p.add_argument(
        "--shards",
        type=int,
        default=None,
        help="number of local shard workers the campaign fans out over "
        "(exactly one of --shards / --hosts)",
    )
    orch_p.add_argument(
        "--hosts",
        type=_hosts_argument,
        default=None,
        metavar="SPEC[,SPEC...]",
        help="distribute over these hosts instead of local shards: "
        "'user@h1' / 'h1:/data/run' (SSH), 'store:/shared/h1' "
        "(directory-backed object store pseudo-host), 'local:/path' "
        "(shared-filesystem root); specs are validated here at parse "
        "time, and hosts mode always runs the stealing scheduler",
    )
    orch_p.add_argument(
        "--workers-per-shard",
        type=int,
        default=1,
        help="process-pool size inside each shard worker (default: 1)",
    )
    orch_p.add_argument(
        "--dir",
        default=None,
        help="run directory for spec/streams/heartbeats/logs and the "
        "merged stream (default: orchestrated-<name>; rerunning with "
        "the same dir resumes from its shard streams)",
    )
    orch_p.add_argument(
        "--cache-dir",
        default=None,
        help="opt-in per-task result cache shared by the shard workers "
        "(streams already make orchestrated runs resumable)",
    )
    orch_p.add_argument(
        "--scheduler",
        default=None,
        choices=("static", "stealing"),
        help="task scheduling policy: 'static' fixes each worker's "
        "shard at launch; 'stealing' rebalances unstarted leases from "
        "lagging workers onto idle ones via per-worker assignment "
        "files (default: static; --hosts forces stealing)",
    )
    orch_p.add_argument(
        "--steal-threshold",
        type=int,
        default=2,
        help="minimum unstarted leases (beyond the in-flight window) a "
        "lagging worker must hold before the stealing scheduler moves "
        "any (default: 2)",
    )
    orch_p.add_argument(
        "--lease-batch",
        type=int,
        default=None,
        help="task keys a stealing worker takes per assignment-file "
        "re-read — also the keep window a steal never touches "
        "(default: --workers-per-shard)",
    )
    orch_p.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="launches per shard before the campaign aborts (default: 3)",
    )
    orch_p.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        help="cap on simultaneously running shard workers "
        "(default: all shards at once)",
    )
    orch_p.add_argument(
        "--stall-timeout",
        type=float,
        default=600.0,
        help="seconds without a heartbeat touch before a worker is "
        "declared stalled, killed, and its shard requeued "
        "(workers touch per finished task; default: 600)",
    )
    orch_p.add_argument(
        "--poll-interval",
        type=float,
        default=0.3,
        help="supervision poll interval in seconds (default: 0.3)",
    )
    orch_p.add_argument(
        "--chaos-kill-shard",
        type=int,
        default=None,
        metavar="INDEX",
        help="fault injection (tests/CI): SIGKILL this shard's first "
        "worker mid-run and let supervision requeue it",
    )
    orch_p.add_argument(
        "--chaos-kill-after",
        type=int,
        default=1,
        metavar="RECORDS",
        help="fire --chaos-kill-shard once the worker's stream holds "
        "this many records (default: 1; 0 kills at launch, "
        "deterministically)",
    )
    orch_p.add_argument(
        "--chaos-slow-shard",
        type=int,
        default=None,
        metavar="INDEX",
        help="fault injection (tests/CI): run this shard's workers "
        "under an injected per-task sleep — a simulated slow machine "
        "the stealing scheduler rebalances around",
    )
    orch_p.add_argument(
        "--chaos-slow-s",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="per-task sleep --chaos-slow-shard injects (default: 0.25)",
    )
    orch_p.add_argument(
        "--chaos-kill-host",
        type=int,
        default=None,
        metavar="INDEX",
        help="fault injection (tests/CI, --hosts mode): SIGKILL this "
        "host's worker once its stream holds --chaos-kill-after "
        "records and declare the host vanished — its leases reclaim "
        "onto the surviving hosts",
    )
    orch_p.add_argument(
        "--quiet", action="store_true", help="suppress supervision events"
    )
    watch_p = camp_sub.add_parser(
        "watch",
        help="tail live campaign streams and re-render the partial "
        "aggregate (read-only; never repairs a stream)",
    )
    watch_p.add_argument(
        "streams", nargs="*", help="stream files to watch"
    )
    watch_p.add_argument(
        "--dir",
        default=None,
        help="watch every shard*.jsonl in an orchestrator run directory "
        "(instead of naming streams)",
    )
    watch_p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between re-renders (default: 2)",
    )
    watch_p.add_argument(
        "--once",
        action="store_true",
        help="render one snapshot and exit (scripting/CI)",
    )
    watch_p.add_argument(
        "--stall-timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="heartbeat age that earns a shard the stall warning marker "
        "in the health panel (--dir only; default: 600)",
    )
    status_p = camp_sub.add_parser(
        "status",
        help="one-shot health report of an orchestrated run directory, "
        "rebuilt from its files alone (works mid-run and after)",
    )
    status_p.add_argument("dir", help="orchestrator run directory")
    status_p.add_argument(
        "--stall-timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="heartbeat age that earns a shard the stall warning marker "
        "(default: 600)",
    )
    status_p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON document instead of text",
    )
    events_p = camp_sub.add_parser(
        "events",
        help="print a run directory's structured event log "
        "(read-only; never repairs the file)",
    )
    events_p.add_argument("dir", help="orchestrator run directory")
    events_p.add_argument(
        "--type",
        default=None,
        choices=sorted(EVENT_TYPES),
        help="only events of this type",
    )
    events_p.add_argument(
        "--shard",
        type=int,
        default=None,
        help="only events about this shard",
    )
    events_p.add_argument(
        "--since",
        type=float,
        default=None,
        metavar="SECONDS",
        help="only events from the last SECONDS seconds (wall clock)",
    )
    events_p.add_argument(
        "--json",
        action="store_true",
        help="raw JSON records, one per line, instead of rendered text",
    )
    merge_p = camp_sub.add_parser(
        "merge",
        help="union shard metrics streams (and optionally caches)",
    )
    merge_p.add_argument(
        "--out", required=True, help="merged stream to write"
    )
    merge_p.add_argument(
        "streams", nargs="+", help="shard stream files to merge"
    )
    merge_p.add_argument(
        "--caches",
        default=None,
        help="comma-separated shard cache dirs to union (with --cache-out)",
    )
    merge_p.add_argument(
        "--cache-out",
        default=None,
        help="cache dir the union of --caches is written into",
    )
    agg_p = camp_sub.add_parser(
        "aggregate",
        help="render the campaign summary table from a metrics stream",
    )
    agg_p.add_argument(
        "--stream", required=True, help="metrics stream to aggregate"
    )
    _add_campaign_shape_args(camp_p)
    camp_p.add_argument("--workers", type=int, default=1)
    camp_p.add_argument("--cache-dir", default=None)
    camp_p.add_argument(
        "--stream",
        default=None,
        help="append per-task metrics to this JSONL stream; tasks "
        "already recorded there are skipped on resume",
    )
    camp_p.add_argument(
        "--shard-index",
        type=int,
        default=None,
        help="run only this shard of the campaign (0-based; "
        "requires --shard-count and --stream)",
    )
    camp_p.add_argument(
        "--shard-count",
        type=int,
        default=None,
        help="total number of shards the campaign is split into",
    )
    camp_p.add_argument(
        "--tasks",
        default=None,
        metavar="FILE",
        help="execute the explicit task-key list in this scheduler "
        "assignment file, re-reading it between batches (the stealing "
        "orchestrator's worker mode; requires --stream, conflicts "
        "with --shard-index/--shard-count)",
    )
    camp_p.add_argument(
        "--wait-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --tasks (required): exit (code 4) after idling this "
        "long on an assignment file nobody touches or closes — a live "
        "supervisor freshens the file every tick, so a quiet file "
        "means it died; 0 waits forever (default: 600)",
    )
    camp_p.add_argument(
        "--heartbeat",
        default=None,
        metavar="FILE",
        help="touch this file at start and after every finished task "
        "(the orchestrator's worker-liveness probe)",
    )
    camp_p.add_argument(
        "--events",
        default=None,
        metavar="FILE",
        help="append this worker's reasoned heartbeat events (task-done "
        "vs idle-wait) to this event log; the orchestrator passes the "
        "run dir's shard<i>.events and merges them at collection",
    )
    camp_p.add_argument(
        "--quiet", action="store_true", help="suppress per-task progress"
    )

    report_p = sub.add_parser(
        "report",
        help="render a self-contained trade-off report (Pareto "
        "frontiers, bootstrap-CI rankings, regret, per-axis curves) "
        "from a run directory or metrics stream",
    )
    report_p.add_argument(
        "path",
        help="orchestrator run directory, or a (merged or shard) "
        "metrics stream file",
    )
    report_p.add_argument(
        "--format",
        default="markdown",
        choices=("markdown", "html"),
        help="output format (default: markdown; html is a single "
        "self-contained page)",
    )
    report_p.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the report here instead of stdout",
    )
    report_p.add_argument(
        "--scenario",
        default=None,
        help="only cells whose scenario name equals or contains this "
        "(e.g. 'radius=100')",
    )
    report_p.add_argument(
        "--protocol",
        default=None,
        help="only this protocol (registry name/alias, or an exact "
        "variant label like 'glr(custody=False)')",
    )
    report_p.add_argument(
        "--mobility",
        default=None,
        help="only cells under this mobility model "
        "(random_waypoint for the paper's default)",
    )
    report_p.add_argument(
        "--adversary",
        default=None,
        metavar="MODE[:FRACTION]",
        help="only cells under this adversary ('none' for honest "
        "cells; a bare mode matches every fraction)",
    )
    report_p.add_argument(
        "--resamples",
        type=int,
        default=1000,
        help="bootstrap resamples behind the ranking intervals "
        "(default: 1000; seeded, so reports are deterministic)",
    )

    sub.add_parser("list", help="list experiments and protocols")
    return parser


def _add_campaign_shape_args(parser: argparse.ArgumentParser) -> None:
    """The flags that define *what* a campaign runs (shared by
    ``campaign`` and ``campaign orchestrate``)."""
    parser.add_argument(
        "--spec",
        default=None,
        help="JSON campaign spec file (grid/shape flags conflict with it; "
        "--seed/--replicates override its values)",
    )
    parser.add_argument(
        "--suite",
        default=None,
        choices=available_suites(),
        help="run a named cross-mobility suite (--effort scales it; "
        "grid/shape flags conflict with it)",
    )
    parser.add_argument(
        "--effort",
        default=None,
        choices=sorted(EFFORTS),
        help="simulation effort for --suite campaigns (default: bench; "
        "grid campaigns take --messages/--sim-time instead)",
    )
    parser.add_argument("--name", default=None)
    parser.add_argument(
        "--protocols",
        default=None,
        help="comma-separated protocol list (default: glr)",
    )
    parser.add_argument(
        "--replicates",
        type=int,
        default=None,
        help="replicates per cell (default: 3; overrides a --spec file)",
    )
    parser.add_argument(
        "--radii",
        default=None,
        help="comma-separated radius grid in metres",
    )
    parser.add_argument(
        "--node-counts",
        default=None,
        help="comma-separated node-count grid",
    )
    parser.add_argument(
        "--mobility",
        default=None,
        help="comma-separated mobility-model grid "
        f"(registry models: {','.join(available_models())})",
    )
    parser.add_argument(
        "--protocol-param",
        action="append",
        default=None,
        metavar="NAME=V1,V2,...",
        help="sweep a protocol-config field over the listed values "
        "(repeatable; the cartesian product of all --protocol-param "
        "axes is applied to every --protocols entry)",
    )
    parser.add_argument(
        "--mobility-param",
        action="append",
        default=None,
        metavar="NAME=V1,V2,...",
        help="sweep a mobility-model parameter over the listed values "
        "(repeatable; the cartesian product of all --mobility-param "
        "axes is applied to every --mobility model; names/values are "
        "validated against the registry before anything runs)",
    )
    parser.add_argument(
        "--adversary",
        action="append",
        type=_adversary_argument,
        default=None,
        metavar="MODE:FRACTION[:k=v,...]",
        help="adversary axis: each occurrence is one grid value "
        f"(modes: {','.join(available_adversary_modes())}; 'none' is "
        "the honest cell); a single occurrence sets the base scenario "
        "instead of adding a grid axis — repeatable rather than "
        "comma-separated because parameterised specs like "
        "selective_drop:0.2:drop_rate=0.8 contain commas",
    )
    parser.add_argument("--messages", type=int, default=None)
    parser.add_argument("--sim-time", type=float, default=None)
    parser.add_argument("--storage-limit", type=int, default=None)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base scenario seed (default: 1; overrides a --spec file)",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = Scenario(
        name="cli-run",
        n_nodes=args.nodes,
        active_nodes=min(45, args.nodes),
        radius=args.radius,
        message_count=args.messages,
        sim_time=args.sim_time,
        seed=args.seed,
        adversary=args.adversary,
    )
    metrics = run_single(
        scenario, args.protocol, buffer_limit=args.storage_limit
    )
    latency = (
        f"{metrics.average_latency:.2f}s"
        if metrics.average_latency is not None
        else "n/a"
    )
    hops = (
        f"{metrics.average_hops:.2f}"
        if metrics.average_hops is not None
        else "n/a"
    )
    print(f"protocol            {metrics.protocol}")
    print(f"messages created    {metrics.messages_created}")
    print(f"messages delivered  {metrics.messages_delivered}")
    print(f"delivery ratio      {metrics.delivery_ratio:.3f}")
    print(f"average latency     {latency}")
    print(f"average hops        {hops}")
    print(f"max peak storage    {metrics.max_peak_storage}")
    print(f"avg peak storage    {metrics.average_peak_storage:.2f}")
    print(f"frames sent         {metrics.frames_sent}")
    print(f"collision losses    {metrics.frames_lost_collision}")
    print(f"queue drops         {metrics.frames_dropped_queue}")
    print(f"events processed    {metrics.events_processed}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    driver = EXPERIMENTS[args.name]
    effort = EFFORTS[args.effort]
    result = driver(
        effort=effort,
        seed=args.seed,
        workers=args.workers,
        cache_dir=args.cache_dir,
        mobility=args.mobility,
    )
    print(result.render())
    return 0


def _csv(text: str, convert: Callable) -> tuple:
    return tuple(
        convert(part.strip()) for part in text.split(",") if part.strip()
    )


def _param_value(text: str) -> bool | int | float | str:
    """A protocol-param value: bool, int, float, or bare string."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text.strip()


def _param_axes(flag: str, entries: list[str]) -> list[tuple[str, tuple]]:
    """Parse repeatable ``name=v1,v2`` sweep-axis flags (shared by
    ``--protocol-param`` and ``--mobility-param``)."""
    axes: list[tuple[str, tuple]] = []
    for entry in entries:
        name, sep, values_text = entry.partition("=")
        name = name.strip()
        values = _csv(values_text, _param_value)
        if not sep or not name or not values:
            raise ValueError(
                f"{flag} needs the form name=v1,v2,..., got {entry!r}"
            )
        if len(set(values)) != len(values):
            raise ValueError(f"{flag} {name} has duplicate values")
        if any(name == seen for seen, _ in axes):
            raise ValueError(f"{flag} {name} given twice")
        axes.append((name, values))
    return axes


def _param_combos(axes: list[tuple[str, tuple]]) -> list[dict]:
    """Every parameter assignment in the cartesian product of ``axes``."""
    names = [name for name, _ in axes]
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(values for _, values in axes))
    ]


def _expand_protocol_params(
    protocols: tuple[str, ...], entries: list[str]
) -> tuple[ProtocolConfig, ...]:
    """The protocol axis: every protocol x every param combination.

    Each ``--protocol-param name=v1,v2`` entry is one sweep axis; the
    cartesian product of all axes is applied to every listed protocol.
    Validation (unknown field, bad value, protocol that takes no
    parameters) happens inside :class:`ProtocolConfig` at build time.
    """
    combos = _param_combos(_param_axes("--protocol-param", entries))
    return tuple(
        ProtocolConfig.of(protocol, **params)
        for protocol in protocols
        for params in combos
    )


def _expand_mobility_params(
    models: tuple[str, ...], entries: list[str]
) -> tuple[MobilityConfig, ...]:
    """The mobility axis: every model x every param combination.

    Mirrors :func:`_expand_protocol_params` for movement models, so
    mobility parameter grids no longer require a JSON spec.  Each
    config passes through :func:`repro.mobility.registry
    .as_mobility_config` here, at parse time — an unknown model, a
    typo'd parameter name, or a missing required parameter fails with
    the registry's error before any simulation starts.
    """
    combos = _param_combos(_param_axes("--mobility-param", entries))
    return tuple(
        as_mobility_config(MobilityConfig.of(model, **params))
        for model in models
        for params in combos
    )


def _reject_conflicting_shape_flags(
    args: argparse.Namespace, source: str, composing: str
) -> None:
    """Error out when grid/shape flags are combined with --spec/--suite.

    Both alternatives fix the campaign shape themselves; silently
    ignoring explicit flags would run simulations the user did not ask
    for.
    """
    conflicting = [
        flag
        for flag, value in (
            ("--name", args.name),
            ("--protocols", args.protocols),
            ("--radii", args.radii),
            ("--node-counts", args.node_counts),
            ("--mobility", args.mobility),
            ("--protocol-param", args.protocol_param),
            ("--mobility-param", args.mobility_param),
            ("--adversary", args.adversary),
            ("--messages", args.messages),
            ("--sim-time", args.sim_time),
            ("--storage-limit", args.storage_limit),
        )
        if value is not None
    ]
    if conflicting:
        raise ValueError(
            f"{source} defines the campaign shape; drop {conflicting} "
            f"(only {composing} compose with it)"
        )


def _campaign_spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    if args.spec is not None and args.suite is not None:
        raise ValueError("--spec and --suite both define the campaign; "
                         "pass one or the other")
    if args.spec is not None:
        if args.effort is not None:
            raise ValueError(
                "--effort only applies to --suite campaigns; a JSON spec "
                "sets sim_time/message_count in its base"
            )
        _reject_conflicting_shape_flags(
            args,
            "--spec",
            "--seed/--replicates/--workers/--cache-dir/--stream/--shard-*",
        )
        spec = CampaignSpec.from_dict(
            json.loads(Path(args.spec).read_text(encoding="utf-8"))
        )
        if args.replicates is not None:
            spec = dataclasses.replace(spec, replicates=args.replicates)
        if args.seed is not None:
            spec = dataclasses.replace(
                spec, base=spec.base.with_seed(args.seed)
            )
        return spec
    seed = args.seed if args.seed is not None else 1
    replicates = args.replicates if args.replicates is not None else 3
    if args.suite is not None:
        _reject_conflicting_shape_flags(
            args,
            "--suite",
            "--seed/--replicates/--effort/--workers/--cache-dir"
            "/--stream/--shard-*",
        )
        return build_suite(
            args.suite,
            seed=seed,
            replicates=replicates,
            effort=EFFORTS[args.effort if args.effort is not None else "bench"],
        )
    if args.effort is not None:
        raise ValueError(
            "--effort only applies to --suite campaigns; grid campaigns "
            "take --messages/--sim-time directly"
        )
    name = args.name if args.name is not None else "campaign"
    protocols: tuple = (
        _csv(args.protocols, str) if args.protocols else ("glr",)
    )
    if args.protocol_param:
        protocols = _expand_protocol_params(protocols, args.protocol_param)
    overrides: dict = {"seed": seed}
    if args.messages is not None:
        overrides["message_count"] = args.messages
    if args.sim_time is not None:
        overrides["sim_time"] = args.sim_time
    grid: list[tuple[str, tuple]] = []
    if args.radii:
        grid.append(("radius", _csv(args.radii, float)))
    if args.node_counts:
        counts = _csv(args.node_counts, int)
        if not counts:
            raise ValueError("--node-counts has no values")
        grid.append(("n_nodes", counts))
        # Keep the active source/destination set valid across the grid.
        overrides["active_nodes"] = min(45, min(counts))
    if args.mobility:
        models = _csv(args.mobility, str)
        if args.mobility_param:
            grid.append(
                ("mobility",
                 _expand_mobility_params(models, args.mobility_param))
            )
        else:
            grid.append(("mobility", models))
    elif args.mobility_param:
        raise ValueError(
            "--mobility-param needs --mobility to name the model(s) it "
            "parameterises"
        )
    if args.adversary:
        if len(args.adversary) == 1:
            # One spec compromises the base scenario itself — no axis,
            # so an honest spec ('none' or fraction 0) keys every task
            # identically to a campaign with no --adversary at all
            # (the diff-clean property the CI smoke job checks).
            overrides["adversary"] = args.adversary[0]
        else:
            if len(set(args.adversary)) != len(args.adversary):
                raise ValueError("--adversary has duplicate values")
            grid.append(("adversary", tuple(args.adversary)))
    return CampaignSpec(
        name=name,
        base=Scenario(name=name, **overrides),
        grid=tuple(grid),
        protocols=protocols,
        replicates=replicates,
        buffer_limit=args.storage_limit,
    )


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    if (args.caches is None) != (args.cache_out is None):
        raise ValueError("--caches and --cache-out must be given together")
    info = merge_streams(args.out, args.streams)
    print(
        f"merged {len(args.streams)} streams -> {args.out}: "
        f"{len(info.records)} task records "
        f"(spec hash {info.spec_hash[:12]})"
    )
    if info.quarantined:
        print(
            f"warning: skipped {info.quarantined} undecodable stream "
            f"line(s) — those tasks are missing from the merge; re-run "
            f"the affected shard with its stream to recompute them",
            file=sys.stderr,
        )
    if args.caches is not None:
        copied = merge_caches(args.cache_out, _csv(args.caches, str))
        print(f"cache union -> {args.cache_out}: {copied} entries copied")
    return 0


def _cmd_campaign_aggregate(args: argparse.Namespace) -> int:
    result = campaign_result_from_stream(args.stream)
    print(result.render())
    if result.stream_damaged:
        print(
            f"warning: {result.stream_damaged} undecodable stream "
            f"line(s) skipped — the runs column shows what each cell "
            f"actually aggregates",
            file=sys.stderr,
        )
    return 0


def _cmd_campaign_orchestrate(args: argparse.Namespace) -> int:
    # Cross-flag validation first, before the (possibly expensive)
    # spec expansion: --hosts is a different execution mode and the
    # single-machine-only knobs must conflict loudly, not silently
    # misbehave on a fleet.
    if (args.shards is None) == (args.hosts is None):
        raise ValueError("pass exactly one of --shards or --hosts")
    scheduler = args.scheduler or "static"
    if args.hosts is not None:
        if args.scheduler == "static":
            raise ValueError(
                "--scheduler static conflicts with --hosts: a static "
                "partition cannot rebalance around a vanished host "
                "(hosts mode always runs the stealing scheduler)"
            )
        scheduler = "stealing"
        if args.chaos_kill_shard is not None:
            raise ValueError(
                "--chaos-kill-shard is single-machine only and "
                "conflicts with --hosts; use --chaos-kill-host"
            )
        if args.chaos_slow_shard is not None:
            raise ValueError(
                "--chaos-slow-shard is single-machine only and "
                "conflicts with --hosts"
            )
        if args.chaos_kill_host is not None and not (
            0 <= args.chaos_kill_host < len(args.hosts)
        ):
            raise ValueError(
                f"--chaos-kill-host must name one of the "
                f"{len(args.hosts)} --hosts slots"
            )
    elif args.chaos_kill_host is not None:
        raise ValueError("--chaos-kill-host needs --hosts")
    spec = _campaign_spec_from_args(args)
    run_dir = Path(args.dir) if args.dir else Path(f"orchestrated-{spec.name}")
    total = spec.total_tasks()
    if args.hosts is not None:
        fanout = f"{len(args.hosts)} host(s) ({', '.join(args.hosts)})"
    else:
        fanout = f"{args.shards} shard worker(s)"
    print(
        f"orchestrating campaign {spec.name}: {total} simulations over "
        f"{fanout} x {args.workers_per_shard} "
        f"process(es) each -> {run_dir}"
    )

    def on_event(message: str) -> None:
        print(f"orchestrator: {message}", flush=True)

    outcome = orchestrate_campaign(
        spec,
        shards=args.shards,
        run_dir=run_dir,
        workers_per_shard=args.workers_per_shard,
        cache_dir=args.cache_dir,
        poll_interval=args.poll_interval,
        stall_timeout=args.stall_timeout,
        max_attempts=args.max_attempts,
        max_concurrent=args.max_concurrent,
        on_event=None if args.quiet else on_event,
        scheduler=scheduler,
        lease_batch=args.lease_batch,
        steal_threshold=args.steal_threshold,
        chaos_kill_shard=args.chaos_kill_shard,
        chaos_kill_after=args.chaos_kill_after,
        chaos_slow_shard=args.chaos_slow_shard,
        chaos_slow_s=args.chaos_slow_s,
        hosts=args.hosts,
        chaos_kill_host=args.chaos_kill_host,
    )
    print()
    print(outcome.result.render())
    attempts = sum(status.attempts for status in outcome.shards)
    steals = (
        f", {outcome.steals} lease(s) stolen"
        if outcome.scheduler == "stealing"
        else ""
    )
    hosts_note = (
        f" across {len(outcome.hosts)} host(s)" if outcome.hosts else ""
    )
    print(
        f"orchestrated ({outcome.scheduler} scheduler{hosts_note}): "
        f"{len(outcome.shards)} "
        f"shard(s), {attempts} worker launch(es), {outcome.requeues} "
        f"requeue(s){steals}; merged stream: {outcome.merged_stream}"
    )
    return 0


def _shard_indices(layout: RunLayout) -> list[int]:
    """Every shard slot with any artifact in the run dir.

    Streams alone under-count (a worker killed before its first record
    has only a heartbeat/log), so the union over every ``shard<i>.*``
    artifact is what status and the watch health panel iterate.
    """
    indices: set[int] = set()
    for path in layout.root.glob("shard*"):
        rest = path.name[len("shard"):]
        digits = rest[: len(rest) - len(rest.lstrip("0123456789"))]
        if digits:
            indices.add(int(digits))
    return sorted(indices)


def _heartbeat_age(path: Path, now: float) -> float | None:
    try:
        return max(0.0, now - path.stat().st_mtime)
    except OSError:
        return None


def _heartbeat_text(age: float | None, stall_timeout: float) -> str:
    if age is None:
        return "no heartbeat yet"
    text = f"last beat {age:.0f}s ago"
    if stall_timeout and age > stall_timeout:
        text += " ⚠ stalled?"
    return text


def _render_health(
    layout: RunLayout, stall_timeout: float
) -> str:
    """The per-shard liveness panel shared by watch and status."""
    now = time.time()
    lines = []
    for index in _shard_indices(layout):
        stream = layout.stream(index)
        recorded = (
            stream_task_count(stream)
            if stream.exists() and stream.stat().st_size > 0
            else 0
        )
        age = _heartbeat_age(layout.heartbeat(index), now)
        lines.append(
            f"shard {index}: {recorded} task record(s), "
            f"{_heartbeat_text(age, stall_timeout)}"
        )
    return "\n".join(lines)


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    """Health report of a run dir, rebuilt from its files alone."""
    layout = RunLayout(args.dir)
    if not layout.root.is_dir():
        raise ValueError(f"no run directory at {layout.root}")
    now = time.time()
    indices = _shard_indices(layout)

    # The event log is optional input (a pre-telemetry run dir, or a
    # run that has not started): everything stream/heartbeat-derived
    # still renders without it.
    events: list[dict] = []
    origin = None
    quarantined = 0
    if layout.events.exists():
        info = load_events(layout.events, quarantine=False)
        events, origin, quarantined = (
            info.records, info.origin, info.quarantined
        )
    by_type: dict[str, int] = {}
    for record in events:
        by_type[record["type"]] = by_type.get(record["type"], 0) + 1
    summaries = {
        record["shard"]: record
        for record in events
        if record["type"] == "shard_summary"
    }
    hosts_joined = {
        record["shard"]: record["host"]
        for record in events
        if record["type"] == "host_join"
    }
    hosts_lost = {
        record["shard"] for record in events
        if record["type"] == "host_lost"
    }
    finished = by_type.get("run_end", 0) > 0

    streams = [
        path for path in layout.shard_streams()
        if path.stat().st_size > 0
    ]
    done = total = complete_cells = total_cells = None
    coverage_note = "no task records yet"
    if streams:
        try:
            view = watch_view(streams)
            done, total = view.done, view.total
            complete_cells = view.complete_cells
            total_cells = view.total_cells
            coverage_note = (
                f"{done}/{total} tasks recorded, "
                f"{complete_cells}/{total_cells} cells complete"
            )
        except (StreamError, ValueError) as exc:
            coverage_note = f"streams unreadable this tick: {exc}"

    shard_rows = []
    for index in indices:
        stream = layout.stream(index)
        recorded = (
            stream_task_count(stream)
            if stream.exists() and stream.stat().st_size > 0
            else 0
        )
        age = _heartbeat_age(layout.heartbeat(index), now)
        summary = summaries.get(index)
        state = (
            summary["payload"].get("state")
            if summary is not None else None
        )
        if index in hosts_lost:
            state = "lost"
        leases = None
        closed = None
        assignment = layout.assignment(index)
        if assignment.exists():
            try:
                lease = read_assignment(assignment)
                leases, closed = len(lease.keys), lease.closed
            except SchedulerError:
                pass
        counts = {
            kind: sum(
                1 for record in events
                if record["type"] == kind and record["shard"] == index
            )
            for kind in ("requeue", "steal", "stall", "chaos")
        }
        shard_rows.append(
            {
                "shard": index,
                "host": hosts_joined.get(index),
                "state": state,
                "recorded": recorded,
                "heartbeat_age_s": age,
                "leases": leases,
                "assignment_closed": closed,
                **counts,
            }
        )

    if args.json:
        print(
            json.dumps(
                {
                    "run_dir": str(layout.root),
                    "finished": finished,
                    "tasks_done": done,
                    "tasks_total": total,
                    "cells_complete": complete_cells,
                    "cells_total": total_cells,
                    "events": len(events),
                    "events_origin": origin,
                    "events_quarantined": quarantined,
                    "event_counts": by_type,
                    "shards": shard_rows,
                },
                sort_keys=True,
            )
        )
        return 0

    print(f"campaign status: {layout.root}")
    print(f"  {coverage_note}")
    if events:
        line = f"  event log: {len(events)} event(s) (origin {origin})"
        if quarantined:
            line += f", {quarantined} undecodable line(s) skipped"
        if finished:
            line += "; run complete (run_end recorded)"
        print(line)
        interesting = (
            "launch", "exit", "stall", "requeue", "steal", "reclaim",
            "chaos", "host_join", "host_lost",
        )
        counts = ", ".join(
            f"{kind}={by_type[kind]}"
            for kind in interesting if by_type.get(kind)
        )
        if counts:
            print(f"  supervision: {counts}")
    else:
        print("  event log: none yet")
    if hosts_joined:
        live = [
            host for shard, host in sorted(hosts_joined.items())
            if shard not in hosts_lost
        ]
        print(f"  hosts: {len(live)} live, {len(hosts_lost)} lost")
    for row in shard_rows:
        bits = []
        if row["state"]:
            bits.append(row["state"])
        bits.append(f"{row['recorded']} task record(s)")
        bits.append(
            _heartbeat_text(row["heartbeat_age_s"], args.stall_timeout)
        )
        if row["leases"] is not None:
            closed = " [closed]" if row["assignment_closed"] else ""
            bits.append(f"{row['leases']} leased key(s){closed}")
        for kind in ("requeue", "steal", "stall", "chaos"):
            if row[kind]:
                bits.append(f"{row[kind]} {kind}(s)")
        host = f" ({row['host']})" if row["host"] else ""
        print(f"  shard {row['shard']}{host}: " + ", ".join(bits))
    return 0


def _cmd_campaign_events(args: argparse.Namespace) -> int:
    layout = RunLayout(args.dir)
    # Read-only: a live supervisor may be mid-append on the last line,
    # so the reader must never trigger quarantine repair.
    info = load_events(layout.events, quarantine=False)
    since_wall = (
        time.time() - args.since if args.since is not None else None
    )
    records = filter_events(
        info.records,
        type=args.type,
        shard=args.shard,
        since_wall=since_wall,
    )
    for record in records:
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            print(render_event(record))
    return 0


def _cmd_campaign_watch(args: argparse.Namespace) -> int:
    if bool(args.streams) == bool(args.dir):
        raise ValueError(
            "watch takes stream paths or --dir RUNDIR (one or the other)"
        )

    def stream_paths() -> list[Path]:
        if args.dir:
            # The layout knows the shard-stream naming, including the
            # supervisor-side mirrors of a multi-host run — watching a
            # distributed campaign's dir needs nothing special.
            return RunLayout(args.dir).shard_streams()
        return [Path(stream) for stream in args.streams]

    while True:
        ready = [
            path
            for path in stream_paths()
            if path.exists() and path.stat().st_size > 0
        ]
        if not ready:
            if args.once:
                raise ValueError(
                    "no campaign streams to watch yet "
                    f"({args.dir or ', '.join(args.streams)})"
                )
            print("watch: waiting for campaign streams...", flush=True)
            time.sleep(args.interval)
            continue
        try:
            view = watch_view(ready)
        except StreamError as exc:
            if args.once:
                raise
            # Transient on live streams (e.g. a header mid-append);
            # report and try again rather than killing the dashboard.
            print(f"watch: {exc}", flush=True)
            time.sleep(args.interval)
            continue
        print(render_watch(view), flush=True)
        if args.dir:
            # The liveness panel needs the run dir's heartbeat files,
            # so it only renders in --dir mode (bare stream paths
            # carry no heartbeat to read).
            health = _render_health(
                RunLayout(args.dir), args.stall_timeout
            )
            if health:
                print(health, flush=True)
        if args.once or view.finished:
            return 0
        print(flush=True)
        time.sleep(args.interval)


def _cmd_campaign(args: argparse.Namespace) -> int:
    action = getattr(args, "campaign_action", None)
    if action == "orchestrate":
        return _cmd_campaign_orchestrate(args)
    if action == "watch":
        return _cmd_campaign_watch(args)
    if action == "status":
        return _cmd_campaign_status(args)
    if action == "events":
        return _cmd_campaign_events(args)
    if action == "merge":
        return _cmd_campaign_merge(args)
    if action == "aggregate":
        return _cmd_campaign_aggregate(args)

    if (args.shard_index is None) != (args.shard_count is None):
        raise ValueError(
            "--shard-index and --shard-count must be given together"
        )
    if args.shard_index is not None and args.stream is None:
        raise ValueError(
            "sharded campaigns need --stream: the shard's metrics "
            "stream is what `repro campaign merge` unions"
        )
    if args.tasks is not None and args.shard_index is not None:
        raise ValueError(
            "--tasks and --shard-index/--shard-count both fix the task "
            "subset; pass one or the other"
        )
    if args.tasks is not None and args.stream is None:
        raise ValueError(
            "--tasks campaigns need --stream: the stream is how the "
            "scheduler sees recorded tasks"
        )
    if args.wait_timeout is not None:
        if args.tasks is None:
            raise ValueError(
                "--wait-timeout only bounds the --tasks worker's idle "
                "wait; pass it with --tasks"
            )
        if args.wait_timeout < 0:
            raise ValueError(
                "--wait-timeout must be >= 0 (0 waits forever)"
            )
    wait_timeout = 600.0 if args.wait_timeout is None else args.wait_timeout
    spec = _campaign_spec_from_args(args)
    n_scenarios = len(spec.scenarios())
    total = n_scenarios * len(spec.protocols) * spec.replicates
    if args.tasks is not None:
        shard = "; this worker runs its leased subset of them"
    elif args.shard_index is not None:
        shard = (
            f"; shard {args.shard_index + 1}/{args.shard_count} runs "
            f"its subset of them"
        )
    else:
        shard = ""
    print(
        f"campaign {spec.name}: {n_scenarios} scenarios x "
        f"{len(spec.protocols)} protocols x {spec.replicates} replicates "
        f"= {total} simulations ({args.workers} workers{shard})"
    )

    heartbeat = Path(args.heartbeat) if args.heartbeat else None
    if heartbeat is not None:
        heartbeat.parent.mkdir(parents=True, exist_ok=True)
        heartbeat.touch()

    events_log: EventLog | None = None
    shard_no = args.shard_index
    if args.events:
        events_path = Path(args.events)
        if shard_no is None and events_path.stem.startswith("shard"):
            # Stealing workers carry no --shard-index; the orchestrator
            # names their event file shard<i>.events, so the slot index
            # is recoverable from the path for event identity.
            digits = events_path.stem[len("shard"):]
            if digits.isdigit():
                shard_no = int(digits)
        events_log = EventLog(events_path, origin=events_path.stem)

    def beat(reason: str) -> None:
        # The heartbeat *file* is the supervisor's liveness probe; the
        # event is the durable, reasoned record of the same touch —
        # task-done vs idle-wait tells a post-mortem whether the worker
        # was computing or starved for leases.
        if events_log is not None:
            events_log.emit_throttled(
                f"hb:{reason}",
                HEARTBEAT_EVERY_S,
                "heartbeat",
                shard=shard_no,
                reason=reason,
            )

    def progress(event: TaskProgress) -> None:
        if heartbeat is not None:
            heartbeat.touch()
        beat("task-done")
        if args.quiet:
            return
        source = event.source or ("cache" if event.cached else "ran")
        print(
            f"[{event.done}/{event.total}] {event.task.scenario.name} "
            f"{event.task.protocol_label} #{event.task.replicate} "
            f"({source})"
        )

    def on_wait() -> None:
        # An idle stealing worker polling for leases must still look
        # alive, or the supervisor's stall detector would kill it.
        if heartbeat is not None:
            heartbeat.touch()
        beat("idle-wait")

    want_callbacks = heartbeat is not None or events_log is not None
    result = run_campaign(
        spec,
        workers=args.workers,
        cache_dir=args.cache_dir,
        progress=None if args.quiet and not want_callbacks else progress,
        stream_path=args.stream,
        shard_index=args.shard_index,
        shard_count=args.shard_count,
        tasks_file=args.tasks,
        wait_timeout=wait_timeout if wait_timeout else None,
        on_wait=on_wait if want_callbacks else None,
    )
    print()
    print(result.render())
    print(result.cache_line())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a trade-off report from a run dir or metrics stream."""
    # Imported here, not at module top: the analysis stack imports the
    # campaign engine, and most CLI invocations never need it.
    from repro.analysis.report import generate_report
    from repro.analysis.store import ResultStore

    if args.resamples < 1:
        raise ValueError("--resamples must be >= 1")
    store = ResultStore.open(args.path)
    query = store.select(
        scenario=args.scenario,
        protocol=args.protocol,
        mobility=args.mobility,
        adversary=args.adversary,
    )
    if not query.cells:
        raise ValueError(
            "the filters match no cells of this campaign; "
            f"scenarios: {store.scenarios()[:5]}..., "
            f"protocols: {store.protocols()}"
        )
    document = generate_report(
        store,
        fmt=args.format,
        resamples=args.resamples,
        query=query,
    )
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(document, encoding="utf-8")
        print(f"report ({args.format}) -> {out}")
    else:
        print(document, end="")

    target = Path(args.path)
    if target.is_dir():
        # A run dir carries the campaign's event log; the report is a
        # supervision-grade fact (what was served, from which records),
        # so it joins the same durable history.
        EventLog(RunLayout(target).events, origin="report").emit(
            "report",
            msg=f"trade-off report ({args.format})",
            format=args.format,
            out=str(args.out) if args.out else None,
            cells=len(query.cells),
            records=len(query.records()),
        )
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    print("protocols:")
    for name in available_protocols():
        print(f"  {name}")
    print("mobility models:")
    for name in available_models():
        print(f"  {name}")
    print("adversary modes:")
    for name in available_adversary_modes():
        print(f"  {name}")
    print("suites:")
    for name in available_suites():
        print(f"  {name}: {suite_description(name)}")
    print("efforts:")
    for name, effort in EFFORTS.items():
        print(
            f"  {name}: runs={effort.runs} sim_time={effort.sim_time:.0f}s "
            f"messages={effort.message_count}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "list":
            return _cmd_list(args)
    except BrokenPipeError:
        # Downstream closed the pipe (| head, | less): exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141
    except OrchestratorError as exc:
        # A shard kept failing: operational, not bad input — the run
        # dir keeps the shard streams, so a rerun resumes.
        print(f"orchestrator error: {exc}", file=sys.stderr)
        return 3
    except AssignmentIdleTimeout as exc:
        # Orphaned --tasks worker: the supervisor died without closing
        # the assignment file.  Distinct code so wrappers can tell
        # "supervisor gone" from bad input; the stream keeps every
        # finished task, so a relaunched supervisor resumes cleanly.
        print(f"scheduler error: {exc}", file=sys.stderr)
        return 4
    except SchedulerError as exc:
        # A worker handed a bad/mismatched assignment file: the
        # supervisor (or operator) pointed it at the wrong campaign.
        print(f"scheduler error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # Bad user input (unknown protocol, malformed spec/grid, missing
        # file); json.JSONDecodeError is a ValueError subclass.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        hint = ""
        action = getattr(args, "campaign_action", None)
        if action == "orchestrate":
            hint = " — rerun with the same --dir to resume"
        elif action is None:
            # Only actual simulation runs are resumable; merge/
            # aggregate/watch also carry --stream but are read paths.
            if getattr(args, "stream", None):
                hint = " — rerun with the same --stream to resume"
            elif getattr(args, "cache_dir", None):
                hint = " — rerun with the same --cache-dir to resume"
        print(f"\ninterrupted{hint}", file=sys.stderr)
        return 130
    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":
    sys.exit(main())
