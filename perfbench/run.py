"""Fixed-seed simulator benchmark: three workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload glr-table1 --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and prints every end-to-end
metric; ``--trace 1`` runs the same units untraced and then traced, and
prints the per-layer metrics.  Either way the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with
its unit.  Traced runs also write their aggregated span tree to
``.perfbench/trace-<workload>-seed<seed>.json``.  ``perfbench/NOTES.md``
explains the workloads and the layer predictions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import REFERENCE_S, HostKernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Environment knobs that would change what runs (engine choice, phase
#: profiling, worker fan-out, per-task chaos sleeps); scrubbed first.
SCRUBBED_ENV = (
    "REPRO_ENGINE",
    "REPRO_PROFILE_PHASES",
    "REPRO_BENCH_WORKERS",
    "REPRO_CHAOS_TASK_SLEEP_S",
)

#: Reference-kernel samples before each unit: (task unit, sweep unit).
KERNEL_SAMPLES = (1, 3)

#: Printed with every run but not bounded in BENCHMARK.json: on the
#: shared host their run-to-run spread (20-40%) exceeds any usable bound.
UNBOUNDED = ("task_wall_p50_s", "task_wall_p90_s", "aggregate_s")

#: Self times of every layer (engine residual included) must add up to
#: the traced wall time within this many percent.
ATTRIBUTION_TOLERANCE_PCT = 2.0


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


class Run:
    """Counts, problems and report lines of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lines: list[str] = []
        #: The host-speed kernel (untraced runs) and its samples.
        self.host = None
        self.kernel: list[float] = []

    def check_unit(self, unit, workload, pinned: list) -> None:
        """Count the unit's tasks; a task fails on any problem, and a
        unit-level problem (a broken stream round trip) fails them all."""
        from workloads import check_payload

        for result in unit.tasks:
            digest = pinned[result.index] if result.index < len(pinned) else None
            result.problems = check_payload(
                result.payload, result.task.scenario, digest
            )
            self.attempted += 1
            if result.problems or unit.problems:
                self.failed += 1
                for problem in result.problems:
                    self.problems.append(
                        f"{workload.name} task {result.index}: {problem}"
                    )
        self.problems.extend(f"{workload.name}: {p}" for p in unit.problems)

    def sample_kernel(self, count: int) -> None:
        self.kernel.extend(self.host.sample_s() for _ in range(count))

    def run_units(
        self,
        unit_fn,
        budget_s: float,
        limit: int,
        tasks_per_unit: int,
        kernel_per_unit: int = 0,
    ):
        """Run units until the next one would overrun ``budget_s``,
        sampling the reference kernel before each unit and at the end."""
        units = []
        start = time.perf_counter()
        for i in range(limit):
            elapsed = time.perf_counter() - start
            if units and elapsed + statistics.fmean(
                u.wall_s for u in units
            ) > budget_s:
                break
            self.sample_kernel(kernel_per_unit)
            try:
                units.append(unit_fn(i))
            except Exception:  # a crashing task is a failed task
                traceback.print_exc(file=sys.stderr)
                self.attempted += tasks_per_unit
                self.failed += tasks_per_unit
                self.problems.append(f"unit {i} raised")
            gc.collect()  # between units, outside their timing
        self.sample_kernel(kernel_per_unit)
        return units


def end_to_end(units, read_s: list[float], kernel_bytes: int) -> dict:
    """Raw end-to-end metrics: medians over units (robust to short host
    slowdowns), except peak RSS: the process high-water mark less the
    host kernel's data."""
    task_walls = [t.wall_s for u in units for t in u.tasks]
    return {
        "wall_s": (statistics.median(u.wall_s for u in units), "s"),
        "setup_s": (statistics.median(s for u in units for s in u.setup_s), "s"),
        "events_per_s": (
            statistics.median(u.events / u.run_s for u in units), "1/s"
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            - kernel_bytes / 2**20,
            "MB",
        ),
        "tasks_per_s": (
            statistics.median(len(u.tasks) / u.wall_s for u in units), "1/s"
        ),
        "task_wall_p50_s": (statistics.median(task_walls), "s"),
        "task_wall_p90_s": (p90(task_walls), "s"),
        "aggregate_s": (statistics.median(read_s), "s"),
    }


def host_scaled(metrics: dict, scale: float) -> dict:
    """Times multiplied, rates divided, by the host-speed scale."""
    factor = {"s": scale, "1/s": 1.0 / scale}
    return {
        name: (value * factor.get(unit, 1.0), unit)
        for name, (value, unit) in metrics.items()
    }


def per_layer(tracer, units, untraced_wall: float) -> dict:
    """Per-layer metrics, per unit (one task, or one whole sweep)."""
    n = len(units)
    payloads = [t.payload for u in units for t in u.tasks]
    self_s = tracer.self_s
    spans = tracer.spans
    counts = tracer.counts
    traced_wall = sum(u.wall_s for u in units)

    def total(key: str) -> float:
        return sum(p[key] for p in payloads)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def seconds(layer: str) -> tuple[float, str]:
        return self_s.get(layer, 0.0) / n, "s"

    def per_unit(value: float) -> tuple[float, str]:
        return value / n, "count"

    frames_sent = total("frames_sent")
    return {
        "engine.events": per_unit(counts["engine.events"]),
        "engine.schedules": per_unit(counts["engine.schedules"]),
        "engine.self_s": seconds("engine"),
        "setup.self_s": seconds("setup"),
        "mobility.calls": per_unit(spans["mobility"]),
        "mobility.self_s": seconds("mobility"),
        "udg.builds": per_unit(spans["udg"]),
        "udg.edges_mean": (ratio(counts["udg.edges"], spans["udg"]), "count"),
        "udg.self_s": seconds("udg"),
        "ldt.builds": per_unit(spans["ldt"]),
        "ldt.queries": per_unit(counts["ldt.queries"]),
        "ldt.queriers_per_build": (
            ratio(counts["ldt.queriers"], spans["ldt"]), "count"
        ),
        "ldt.useful_ratio": (
            ratio(counts["ldt.queriers"], counts["ldt.nodes_triangulated"]),
            "ratio",
        ),
        "ldt.self_s": seconds("ldt"),
        "delaunay.calls": per_unit(spans["delaunay"]),
        "delaunay.points_mean": (
            ratio(counts["delaunay.points"], spans["delaunay"]), "count"
        ),
        "delaunay.self_s": seconds("delaunay"),
        "mac.enqueues": per_unit(counts["mac.enqueues"]),
        "mac.frames_sent": per_unit(frames_sent),
        "mac.delivered_ratio": (
            ratio(total("frames_delivered"), frames_sent), "ratio"
        ),
        "mac.queue_drops": per_unit(total("frames_dropped_queue")),
        "mac.medium_queries": per_unit(counts["mac.medium_queries"]),
        "mac.medium_self_s": seconds("mac.medium"),
        "mac.self_s": seconds("mac"),
        "protocol.frames_in": per_unit(counts["protocol.frames_in"]),
        "protocol.messages_created": per_unit(
            counts["protocol.messages_created"]
        ),
        "protocol.self_s": seconds("protocol"),
        "protocol.greedy_forwards": per_unit(counts["protocol.greedy_forwards"]),
        "protocol.face_entries": per_unit(counts["protocol.face_entries"]),
        "stats.delivered_calls": per_unit(counts["stats.delivered_calls"]),
        "stats.first_delivery_ratio": (
            ratio(total("messages_delivered"), counts["stats.delivered_calls"]),
            "ratio",
        ),
        "stats.self_s": seconds("stats"),
        "stream.appends": per_unit(counts["stream.appends"]),
        "stream.bytes": (sum(u.stream_bytes for u in units) / n, "B"),
        "stream.init_s": seconds("stream.init"),
        "stream.append_s": seconds("stream.append"),
        "stream.load_s": seconds("stream.load"),
        "campaign.tasks": per_unit(tracer.edges[("campaign", "engine")][0]),
        "campaign.overhead_s": seconds("campaign"),
        "analysis.query_s": seconds("analysis"),
        "trace.overhead_pct": (100.0 * (traced_wall / untraced_wall - 1.0), "%"),
        "trace.attributed_pct": (
            100.0 * tracer.total_self_s() / traced_wall, "%"
        ),
    }


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """One benchmark run: canary, timed units, checks (and the trace)."""
    import workloads as wl

    run = Run()
    if not trace:
        run.host = HostKernel()
    goldens = wl.load_goldens()

    # Canary: the workload's tiny variant at the default seed, checked
    # against its pinned digests whatever --seed is.  It also warms
    # imports and first-call costs before anything is timed.
    def tasks_per_unit(w, s: int) -> int:
        return len(wl.spec_tasks(w.spec(s))) if w.sweep else 1

    canary = workload.tiny or workload
    canary_seed = goldens["default_seed"]
    for unit in run.run_units(
        wl.iter_units(canary, canary_seed, workdir),
        0.0,
        1,
        tasks_per_unit(canary, canary_seed),
    ):
        run.check_unit(
            unit, canary, wl.pinned_digests(goldens, canary, canary_seed)
        )

    limit = 10**6 if workload.sweep else wl.MAX_TASKS
    pinned = wl.pinned_digests(goldens, workload, seed)
    budget = seconds / 2 if trace else seconds
    units = run.run_units(
        wl.iter_units(workload, seed, workdir),
        budget,
        limit,
        tasks_per_unit(workload, seed),
        kernel_per_unit=0 if trace else KERNEL_SAMPLES[workload.sweep],
    )
    for unit in units:
        run.check_unit(unit, workload, pinned)
    if not units:
        run.problems.append("no unit completed")
        return run, {}, None

    if not trace:
        if workload.sweep:
            read_s = [r for u in units for r in u.read_s]
        else:
            read_s, problems = wl.single_task_read_side(
                workload, seed, units, workdir
            )
            run.problems.extend(f"{workload.name}: {p}" for p in problems)
            if problems:
                run.failed = run.attempted
        scale = REFERENCE_S / statistics.median(run.kernel)
        task_walls = [t.wall_s for u in units for t in u.tasks]
        beyond = sum(1 for w in task_walls if w > p90(task_walls))
        raw = end_to_end(units, read_s, run.host.footprint_bytes)
        metrics = host_scaled(raw, scale)
        run.lines += [
            f"# {len(units)} units, {len(task_walls)} task samples, "
            f"{beyond} beyond task_wall_p90_s",
            f"# host kernel median {REFERENCE_S / scale!r} s over "
            f"{len(run.kernel)} samples (reference {REFERENCE_S} s); "
            f"unscaled metrics:",
            *(f"#   {k} = {v!r} {u}" for k, (v, u) in raw.items()),
            *(f"{k} = {metrics[k][0]!r} {metrics[k][1]} (not bounded)"
              for k in UNBOUNDED),
        ]
        return run, {
            k: v for k, v in metrics.items() if k not in UNBOUNDED
        }, None

    from tracer import Tracer, traced_layers

    tracer = Tracer()
    with traced_layers(tracer):
        traced = run.run_units(
            wl.iter_units(workload, seed, workdir, span=tracer.span),
            float("inf"),
            len(units),
            tasks_per_unit(workload, seed),
        )
    for plain, unit in zip(units, traced):
        run.check_unit(unit, workload, pinned)
        for a, b in zip(plain.tasks, unit.tasks):
            if a.digest != b.digest:
                run.failed += 1
                run.problems.append(
                    f"{workload.name} task {b.index}: traced payload "
                    f"differs from the untraced one"
                )
    if len(traced) != len(units):
        run.problems.append("traced run completed fewer units")
        return run, {}, tracer
    metrics = per_layer(tracer, traced, sum(u.wall_s for u in units))
    attributed = metrics["trace.attributed_pct"][0]
    if abs(attributed - 100.0) > ATTRIBUTION_TOLERANCE_PCT:
        run.problems.append(
            f"layer self times cover {attributed:.2f}% of the traced wall "
            f"time (tolerance {ATTRIBUTION_TOLERANCE_PCT}%)"
        )
    return run, metrics, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(wl.WORKLOADS)}")

    workdir = wl.work_dir(OUT_DIR)
    try:
        run, metrics, tracer = measure(
            workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    print(f"# workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}: {run.attempted} tasks attempted, "
          f"{run.failed} failed")
    for line in run.lines:
        print(line)
    for problem in run.problems:
        print(f"# problem: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    failed_ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"failed_ratio = {failed_ratio!r} ratio")
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "env": env,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "spans": tracer.to_json(),
        }, indent=1, sort_keys=True))
        print(f"# spans written to {out.relative_to(ROOT)}")
    result = {
        "correct": run.failed == 0 and not run.problems and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
