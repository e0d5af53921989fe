"""Distributed campaign: one supervisor, many hosts, one merged result.

Demonstrates the cross-machine orchestration fabric end to end,
entirely on the local machine:

1. define a campaign (a radius x protocol sweep);
2. stand up two *pseudo-hosts* — ``store:`` directory roots (a
   ``LocalTransport`` each) that exercise the full remote protocol
   (spec push, lease pushes, stream and event-log mirror pulls) with
   local directories standing in for the wire (on a real fleet you
   would pass ``user@host`` specs instead, which ride the same code
   path over ssh/scp);
3. hand both to ``orchestrate_campaign(hosts=[...])``: each host gets
   the spec and a lease assignment, runs its worker against *its own*
   root, and the supervisor mirrors every stream back into the run dir
   each tick — so watch, stall detection on each worker's event log,
   and merging all run on the mirrors unchanged;
4. inject a fault — host 0 is SIGKILLed at launch and its transport
   goes dark — and watch the supervisor declare the host lost, requeue
   its leases, and reclaim them onto the survivor;
5. grow the fleet mid-campaign: appending a host to the run dir's
   ``hosts.json`` registers a new slot and the work-stealing scheduler
   rebalances leases onto it;
6. verify the merged, aggregated result is bit-identical to an
   unsharded in-process run of the same spec.

Run:
    python examples/distributed_campaign.py
"""

import json
import tempfile
from pathlib import Path

from repro.experiments import CampaignSpec, Scenario, run_campaign
from repro.experiments.orchestrator import orchestrate_campaign


def main() -> None:
    base = Scenario(
        name="distributed",
        n_nodes=16,
        active_nodes=8,
        message_count=12,
        sim_time=120.0,
        seed=11,
    )
    spec = CampaignSpec(
        name="distributed",
        base=base,
        grid=(("radius", (90.0, 150.0)),),
        protocols=("glr", "epidemic"),
        replicates=2,
    )

    with tempfile.TemporaryDirectory(prefix="distributed-") as tmp:
        scratch = Path(tmp)
        run_dir = scratch / "run"
        hosts = [f"store:{scratch}/host-a", f"store:{scratch}/host-b"]

        def local(text: str) -> str:
            # The scratch dir is gone once the example exits, so paths
            # under it are printed relative to it.
            return text.replace(f"{scratch}/", "")

        print(
            f"campaign: {spec.total_tasks()} tasks over {len(hosts)} "
            f"hosts ({', '.join(map(local, hosts))})"
        )

        # Mid-campaign elastic join: the moment the first shard
        # launches, append a third host to hosts.json — the supervisor
        # polls it each tick and registers the newcomer as a fresh slot.
        joined = {"done": False}

        def on_event(message: str) -> None:
            print(f"  orchestrator: {local(message)}")
            if not joined["done"] and message.startswith("launched shard"):
                joined["done"] = True
                (run_dir / "hosts.json").write_text(
                    json.dumps({"join": [f"store:{scratch}/host-c"]}),
                    encoding="utf-8",
                )

        outcome = orchestrate_campaign(
            spec,
            run_dir=run_dir,
            hosts=hosts,
            poll_interval=0.1,
            steal_threshold=1,
            lease_batch=1,
            on_event=on_event,
            # Fault injection: host 0 is SIGKILLed at launch and
            # vanishes; its leases reclaim onto the live hosts.
            chaos_kill_host=0,
            chaos_kill_after=0,
        )

        print()
        print(outcome.result.render())
        print(
            f"hosts: {', '.join(map(local, outcome.hosts))}; "
            f"requeues survived: {outcome.requeues}; "
            f"leases stolen: {outcome.steals}"
        )
        for status in outcome.shards:
            print(
                f"  shard {status.index} [{local(status.host)}]: "
                f"{status.state}, {status.recorded} task(s) recorded"
            )

    reference = run_campaign(spec, workers=2)
    identical = outcome.result.render() == reference.render()
    print(f"distributed aggregate == unsharded aggregate: {identical}")
    if not identical:
        raise SystemExit("distributed equivalence violated")
    if len(outcome.hosts) != 3:
        raise SystemExit("elastic join never registered")
    if not any(status.state == "lost" for status in outcome.shards):
        raise SystemExit("chaos host kill never landed")


if __name__ == "__main__":
    main()
