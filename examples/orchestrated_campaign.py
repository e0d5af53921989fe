"""Orchestrated campaign: one call launches, supervises, and collects.

Demonstrates the in-repo shard scheduler end to end:

1. define a campaign (a radius x protocol sweep);
2. hand it to ``orchestrate_campaign``: the task keys are leased to
   one worker subprocess per shard (initially the content-key
   partition), each worker runs the keys its assignment file lists and
   streams per-task metrics, and the supervisor watches each worker's
   event log (its heartbeat) and stream progress, moving unstarted
   leases from a lagging worker to an idle one (from a shell:
   ``repro campaign orchestrate --shards N --workers-per-shard M``);
3. inject a fault — the first worker of shard 0 is SIGKILLed at
   launch — and watch the orchestrator requeue the shard onto a fresh
   worker (which stream-resumes, so nothing already recorded reruns)
   while its leases stay stealable;
4. take a read-only snapshot of the shard streams through a
   ``ResultStore`` (what ``repro campaign watch`` re-renders live);
5. verify the merged, aggregated result is bit-identical to an
   unsharded in-process run of the same spec.

Run:
    python examples/orchestrated_campaign.py
"""

import tempfile
from pathlib import Path

from repro.analysis.store import ResultStore
from repro.experiments import CampaignSpec, Scenario, run_campaign
from repro.experiments.layout import RunLayout
from repro.experiments.orchestrator import orchestrate_campaign

SHARDS = 2


def main() -> None:
    base = Scenario(
        name="orchestrated",
        n_nodes=16,
        active_nodes=8,
        message_count=12,
        sim_time=120.0,
        seed=11,
    )
    spec = CampaignSpec(
        name="orchestrated",
        base=base,
        grid=(("radius", (90.0, 150.0)),),
        protocols=("glr", "epidemic"),
        replicates=2,
    )
    print(
        f"campaign: {len(spec.scenarios())} scenarios x "
        f"{len(spec.protocols)} protocols x {spec.replicates} replicates "
        f"= {spec.total_tasks()} tasks over {SHARDS} shard workers"
    )

    with tempfile.TemporaryDirectory(prefix="orchestrated-") as tmp:
        run_dir = Path(tmp)
        outcome = orchestrate_campaign(
            spec,
            shards=SHARDS,
            workers_per_shard=2,
            run_dir=run_dir,
            poll_interval=0.1,
            # The run dir is gone once the example exits, so events
            # name its files relative to it.
            on_event=lambda message: print(
                "  orchestrator: " + message.replace(f"{run_dir}/", "")
            ),
            # Fault injection: SIGKILL shard 0's first worker at launch
            # and let supervision requeue its tasks onto a replacement.
            chaos_kill_shard=0,
            chaos_kill_after=0,
        )

        print()
        print("read-only snapshot of the shard streams (campaign watch):")
        snapshot = ResultStore()
        for stream in RunLayout(run_dir).shard_streams():
            snapshot.ingest(stream)
        print(
            f"{len(snapshot.records())}/{spec.total_tasks()} tasks "
            f"recorded"
        )
        print(snapshot.result().render())

    print()
    print(outcome.result.render())
    print(f"requeues survived: {outcome.requeues}")

    reference = run_campaign(spec, workers=2)
    identical = outcome.result.render() == reference.render()
    print(f"orchestrated aggregate == unsharded aggregate: {identical}")
    if not identical:
        raise SystemExit("orchestrated equivalence violated")


if __name__ == "__main__":
    main()
