"""Trade-off report: from a campaign stream to Pareto frontiers.

Runs a small adversarial campaign (three protocols, honest vs
blackhole cells), streams it to a temporary directory, then drives the
analysis layer end to end: ingest the stream into a
:class:`~repro.analysis.store.ResultStore`, query it, and render the
markdown trade-off report — per-scenario Pareto frontiers over
(delivery ratio, latency, peak storage), bootstrap-CI protocol
rankings, and dominance/regret summaries.

The committed ``docs/example-report.md`` is this script's output
(``--out docs/example-report.md``); everything is seeded, so reruns
reproduce it byte-for-byte.

Run:
    python examples/tradeoff_report.py [--out PATH]
"""

import argparse
import tempfile
from pathlib import Path

from repro.analysis.report import generate_report
from repro.analysis.store import ResultStore
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.scenarios import Scenario


def build_spec() -> CampaignSpec:
    return CampaignSpec(
        name="tradeoff-demo",
        base=Scenario(
            name="tradeoff-demo",
            n_nodes=24,
            active_nodes=12,
            radius=140.0,
            message_count=12,
            sim_time=120.0,
            seed=11,
        ),
        grid=(("adversary", (None, "blackhole:0.25")),),
        protocols=("glr", "epidemic", "spray_and_wait"),
        replicates=3,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the markdown report here instead of stdout",
    )
    args = parser.parse_args()

    spec = build_spec()
    with tempfile.TemporaryDirectory(prefix="tradeoff-demo-") as tmp:
        # A fresh stream every run: a leftover one would be resumed.
        stream = Path(tmp) / "tradeoff-demo.jsonl"
        print(
            f"campaign {spec.name}: {spec.total_tasks()} simulations "
            f"-> {stream}"
        )
        run_campaign(spec, workers=4, stream_path=stream)
        store = ResultStore.open(stream)

    frontier_cells = store.select(adversary="blackhole")
    print(
        f"store: {len(store.records())} records, "
        f"{len(store.cells())} cells "
        f"({len(frontier_cells.cells)} under blackhole)"
    )

    document = generate_report(store)
    if args.out is not None:
        provenance = (
            "<!-- Sample output of `python examples/tradeoff_report.py"
            " --out docs/example-report.md` (seeded; reruns reproduce"
            " it byte-for-byte) -->\n"
        )
        args.out.write_text(provenance + document, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print()
        print(document, end="")


if __name__ == "__main__":
    main()
