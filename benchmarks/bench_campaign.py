"""Campaign-engine perf trajectory: one fixed-seed JSON datapoint.

Unlike the pytest-benchmark drivers (which time the *simulator*), this
script times the *campaign machinery* end to end on a fixed-seed probe
sweep and writes a machine-readable ``BENCH_campaign.json``:

- cold wall time and tasks/sec for a streamed, cached campaign run;
- stream-resume time (rerun against the finished stream — every task
  skipped from the stream alone, the primary resume medium);
- cache-resume time (fresh stream, warm result cache — the opt-in
  second layer);
- orchestrated wall time for the same spec fanned out over shard
  worker subprocesses (supervision + merge overhead included);
- distributed wall time for the same spec over two simulated hosts
  (``ObjectStoreTransport`` roots — the full push/mirror transport
  path, minus the network);
- a profiled cold run (``REPRO_PROFILE_PHASES=1``): measures the
  phase profiler's overhead against the plain cold run and reports
  where the probe sweep's time goes, phase by phase.

CI runs this per push and uploads the JSON as an artifact, so the
engine's overheads become a tracked trajectory instead of anecdotes.
The spec is fixed-seed: metrics are identical run to run, only the
timings move.

Run:
    PYTHONPATH=src python benchmarks/bench_campaign.py --out BENCH_campaign.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.orchestrator import orchestrate_campaign
from repro.experiments.scenarios import Scenario
from repro.experiments.stream import load_stream
from repro.telemetry.profile import PHASES, PROFILE_ENV, aggregate_phase_profiles


def probe_spec() -> CampaignSpec:
    """The fixed-seed probe sweep: 2 radii x 2 protocols x 2 replicates."""
    return CampaignSpec(
        name="bench-campaign",
        base=Scenario(
            name="bench-campaign",
            n_nodes=16,
            active_nodes=8,
            message_count=8,
            sim_time=120.0,
            seed=1,
        ),
        grid=(("radius", (80.0, 140.0)),),
        protocols=("glr", "epidemic"),
        replicates=2,
    )


def timed(fn) -> tuple[object, float]:
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def run(workers: int, shards: int) -> dict:
    spec = probe_spec()
    total = spec.total_tasks()
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as tmp:
        workdir = Path(tmp)
        stream = workdir / "cold.jsonl"
        cache = workdir / "cache"

        cold, cold_s = timed(
            lambda: run_campaign(
                spec, workers=workers, stream_path=stream, cache_dir=cache
            )
        )
        stream_resumed, stream_resume_s = timed(
            lambda: run_campaign(spec, workers=workers, stream_path=stream)
        )
        cache_resumed, cache_resume_s = timed(
            lambda: run_campaign(
                spec,
                workers=workers,
                stream_path=workdir / "warm.jsonl",
                cache_dir=cache,
            )
        )
        orchestrated, orchestrated_s = timed(
            lambda: orchestrate_campaign(
                spec,
                shards=shards,
                workers_per_shard=workers,
                run_dir=workdir / "orchestrated",
                poll_interval=0.05,
            )
        )

        distributed, distributed_s = timed(
            lambda: orchestrate_campaign(
                spec,
                run_dir=workdir / "distributed",
                hosts=[
                    f"store:{workdir}/host-{index}"
                    for index in range(shards)
                ],
                workers_per_shard=workers,
                poll_interval=0.05,
            )
        )

        # The same cold sweep with the phase profiler on: its wall time
        # against cold_s is the measured profiler overhead, and its
        # stream carries the phase_profile blocks we aggregate below.
        profiled_stream = workdir / "profiled.jsonl"
        saved = os.environ.get(PROFILE_ENV)
        os.environ[PROFILE_ENV] = "1"
        try:
            profiled, profiled_s = timed(
                lambda: run_campaign(
                    spec, workers=workers, stream_path=profiled_stream
                )
            )
        finally:
            if saved is None:
                del os.environ[PROFILE_ENV]
            else:
                os.environ[PROFILE_ENV] = saved
        cells = aggregate_phase_profiles(
            load_stream(profiled_stream, quarantine=False).records
        )
        phase_totals = {
            phase: round(
                sum(cell.get(phase, 0.0) for cell in cells.values()), 4
            )
            for phase in PHASES
        }

        assert stream_resumed.stream_hits == total
        assert cache_resumed.cache_hits == total
        for other in (
            stream_resumed,
            cache_resumed,
            orchestrated.result,
            distributed.result,
            profiled,
        ):
            assert other.render() == cold.render(), "fixed seed drifted"

    return {
        "benchmark": "campaign-engine",
        "spec": {
            "name": spec.name,
            "tasks": total,
            "workers": workers,
            "shards": shards,
        },
        "cold_wall_s": round(cold_s, 4),
        "tasks_per_s": round(total / cold_s, 3),
        "stream_resume_s": round(stream_resume_s, 4),
        "cache_resume_s": round(cache_resume_s, 4),
        "orchestrated_wall_s": round(orchestrated_s, 4),
        "distributed_wall_s": round(distributed_s, 4),
        "profiled_wall_s": round(profiled_s, 4),
        "profiler_overhead_pct": round(
            (profiled_s - cold_s) / cold_s * 100, 2
        ),
        "phase_totals_s": phase_totals,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=None, help="write the JSON datapoint here"
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shards", type=int, default=2)
    args = parser.parse_args(argv)

    report = run(args.workers, args.shards)
    if args.out:
        Path(args.out).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    print(
        f"campaign bench ({report['spec']['tasks']} tasks, "
        f"{args.workers} workers):"
    )
    print(
        f"  cold          {report['cold_wall_s']:8.3f} s "
        f"({report['tasks_per_s']} tasks/s)"
    )
    print(f"  stream resume {report['stream_resume_s']:8.3f} s")
    print(f"  cache resume  {report['cache_resume_s']:8.3f} s")
    print(
        f"  orchestrated  {report['orchestrated_wall_s']:8.3f} s "
        f"({args.shards} shard workers)"
    )
    print(
        f"  distributed   {report['distributed_wall_s']:8.3f} s "
        f"({args.shards} simulated hosts)"
    )
    print(
        f"  profiled      {report['profiled_wall_s']:8.3f} s "
        f"({report['profiler_overhead_pct']:+.1f}% profiler overhead)"
    )
    breakdown = ", ".join(
        f"{phase}={seconds:.3f}s"
        for phase, seconds in report["phase_totals_s"].items()
    )
    print(f"  phases        {breakdown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
