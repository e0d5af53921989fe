"""Sharded campaign: split a sweep, stream metrics, merge, aggregate.

Demonstrates the campaign engine v2 multi-machine workflow end to end,
in one process:

1. define a campaign that sweeps a protocol-config axis (GLR with and
   without custody) jointly with a mobility axis;
2. run it twice as two *shards* — deterministic halves of the task
   set, each appending per-task metrics to its own JSONL stream (on a
   cluster, each shard would be a different machine running
   ``repro campaign --shard-index I --shard-count N --stream ...``);
3. merge the shard streams (``repro campaign merge``) and rebuild the
   aggregate summary purely from the merged stream
   (``repro campaign aggregate``);
4. verify the merged aggregate is byte-identical to an unsharded run.

Run:
    python examples/sharded_campaign.py
"""

import tempfile
from pathlib import Path

from repro.experiments import (
    CampaignSpec,
    ProtocolConfig,
    Scenario,
    campaign_result_from_stream,
    merge_streams,
    run_campaign,
)

SHARDS = 2


def main() -> None:
    base = Scenario(
        name="sharded",
        n_nodes=16,
        active_nodes=8,
        message_count=12,
        sim_time=120.0,
        seed=11,
    )
    spec = CampaignSpec(
        name="sharded",
        base=base,
        grid=(("mobility", ("random_waypoint", "gauss_markov")),),
        protocols=(
            ProtocolConfig.of("glr"),
            ProtocolConfig.of("glr", custody=False),
        ),
        replicates=2,
    )
    print(
        f"campaign: {len(spec.scenarios())} scenarios x "
        f"{len(spec.protocols)} protocol variants x "
        f"{spec.replicates} replicates = {spec.total_tasks()} tasks"
    )

    with tempfile.TemporaryDirectory(prefix="sharded-campaign-") as tmp:
        workdir = Path(tmp)
        shard_streams = []
        for index in range(SHARDS):
            stream = workdir / f"shard{index}.jsonl"
            shard_streams.append(stream)
            result = run_campaign(
                spec,
                workers=2,
                stream_path=stream,
                shard_index=index,
                shard_count=SHARDS,
            )
            ran = sum(len(runs) for runs in result.metrics.values())
            print(
                f"shard {index + 1}/{SHARDS}: {ran} tasks -> {stream.name}"
            )

        merged = workdir / "merged.jsonl"
        info = merge_streams(merged, shard_streams)
        print(f"merged: {len(info.records)} task records -> {merged.name}")

        rebuilt = campaign_result_from_stream(merged)

    print()
    print(rebuilt.render())

    reference = run_campaign(spec, workers=2)
    identical = rebuilt.render() == reference.render()
    print(f"sharded+merged aggregate == unsharded aggregate: {identical}")
    if not identical:
        raise SystemExit("shard/merge equivalence violated")


if __name__ == "__main__":
    main()
