"""Telemetry end to end: an orchestrated run narrating itself.

Demonstrates the observability fabric around the campaign engine:

1. run a chaos-injected orchestrated campaign (shard 0's first worker
   is SIGKILLed at launch) with the phase profiler on;
2. read back the run's merged ``events.jsonl`` — the structured,
   append-only supervision history the supervisor and every shard
   worker co-wrote — and validate it against the event schema;
3. query it the way ``repro campaign events --type requeue`` would,
   proving the injected fault and its recovery are durable records,
   not just scrollback;
4. aggregate the per-task ``phase_profile`` blocks from the merged
   metric stream into a per-cell phase breakdown (where does the wall
   time actually go: mobility, UDG rebuild, MAC, protocol, delivery?).

Run:
    python examples/telemetry_campaign.py
"""

import os
import tempfile
from pathlib import Path

from repro.experiments import CampaignSpec, Scenario
from repro.experiments.orchestrator import orchestrate_campaign
from repro.experiments.stream import load_stream
from repro.telemetry.events import (
    filter_events,
    load_events,
    render_event,
    unknown_event_types,
)
from repro.telemetry.profile import (
    PHASES,
    PROFILE_ENV,
    aggregate_phase_profiles,
)


def main() -> None:
    spec = CampaignSpec(
        name="telemetry",
        base=Scenario(
            name="telemetry",
            n_nodes=16,
            active_nodes=8,
            message_count=12,
            sim_time=120.0,
            seed=11,
        ),
        grid=(("radius", (90.0, 150.0)),),
        protocols=("glr", "epidemic"),
        replicates=2,
    )
    print(
        f"campaign: {spec.total_tasks()} tasks over 2 shard workers, "
        "profiler on, shard 0's first worker SIGKILLed at launch"
    )

    os.environ[PROFILE_ENV] = "1"  # inherited by the shard workers
    try:
        with tempfile.TemporaryDirectory(prefix="telemetry-") as tmp:
            run_dir = Path(tmp)
            outcome = orchestrate_campaign(
                spec,
                shards=2,
                workers_per_shard=2,
                run_dir=run_dir,
                poll_interval=0.1,
                chaos_kill_shard=0,
                chaos_kill_after=0,
            )
            # The merged supervision history (what `repro campaign
            # events` renders).  Read-only paths never quarantine-repair.
            info = load_events(run_dir / "events.jsonl", quarantine=False)
            records = load_stream(
                run_dir / "campaign.jsonl", quarantine=False
            ).records
    finally:
        del os.environ[PROFILE_ENV]
    print(f"done: {outcome.requeues} requeue(s) survived")

    assert info.origin == "merged"
    assert unknown_event_types(info.records) == set()
    print(f"\nevent log: {len(info.records)} events")
    for record in info.records:
        # The run dir is gone by now: name its files relative to it.
        print(f"  {render_event(record).replace(f'{run_dir}/', '')}")

    # The injected fault is a durable, queryable record.
    requeues = filter_events(info.records, type="requeue")
    assert requeues, "the chaos kill should have forced a requeue"
    print(f"\nrequeue events: {len(requeues)} (the chaos kill, survived)")

    # Where did the time go?  Fold phase_profile blocks per cell.
    cells = aggregate_phase_profiles(records)
    assert cells, "profiler was on: every record carries phase_profile"
    print("\nphase breakdown (exclusive seconds per cell):")
    header = "  " + "cell".ljust(34) + "tasks  " + "  ".join(
        phase.rjust(11) for phase in PHASES
    )
    print(header)
    for (scenario, protocol), cell in sorted(cells.items()):
        label = f"{scenario.split('/', 1)[1]}/{protocol}"
        row = "  ".join(
            f"{cell.get(phase, 0.0):11.3f}" for phase in PHASES
        )
        print(f"  {label:<34}{cell['tasks']:>5}  {row}")


if __name__ == "__main__":
    main()
