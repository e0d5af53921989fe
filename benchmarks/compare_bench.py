"""CI perf gate: run the simulator benchmark and judge it by BENCHMARK.json.

Everything comes from ``BENCHMARK.json`` at the repository root: the
``command`` that runs one workload, the ``workloads``, the default
``run_seconds``, and each ``end_to_end`` metric's ``unit``, the
direction it gets ``better`` in and the ``bound`` by which it may get
worse.  The gate runs every workload, writes the JSON result each run
prints on its last line to ``--out``, and exits 1 if any run is not
``correct`` or, given a ``--baseline`` result file (CI restores main's
last green one), if any metric is worse than the baseline's by more
than its bound.  With no baseline only correctness is judged.  A run
whose last line is no JSON result exits 2.  ``--trajectory`` appends
this run as the entry for ``--commit`` to a JSONL file and renders the
latest commits as a trend table.

Run from the repository root::

    python benchmarks/compare_bench.py --baseline OLD.json \\
        --trajectory T.jsonl --commit "$GITHUB_SHA" \\
        --summary "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"

#: Commits shown in the trend table.
TREND_COMMITS = 10


def load_json(path: Path) -> dict | None:
    """A JSON object read from ``path``; ``None`` if absent or unreadable."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    return value if isinstance(value, dict) else None


def lookup(value, *keys) -> float | None:
    """``value[k0][k1]...`` if every step is a mapping and the end is a
    number, else ``None``: a missing workload or metric, or a damaged
    file."""
    for key in keys:
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return value if isinstance(value, (int, float)) else None


def run_workload(
    command: list[str], workload: str, seed: int, seconds: float
) -> dict | None:
    """Run one workload, echo its report, and return the JSON result on
    its last line; ``None`` if it cannot start or prints no result."""
    argv = [
        *command, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    try:
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    except OSError as exc:
        print(f"error: cannot run {argv[0]}: {exc}", file=sys.stderr)
        return None
    print(done.stdout, end="", flush=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    if (
        not isinstance(result, dict)
        or not isinstance(result.get("correct"), bool)
        or not isinstance(result.get("metrics"), dict)
    ):
        return None
    return result


def judge(
    config: dict, results: dict, baseline: dict | None
) -> tuple[list[str], list[str]]:
    """The workload x metric table rows, and every reason to fail.

    A metric is worse when its change relative to the baseline, taken
    in the direction its ``better`` names, exceeds its ``bound``.  A
    workload or metric the baseline lacks is shown, not judged.
    """
    rows: list[str] = []
    failures: list[str] = []
    for workload, result in results.items():
        if not result["correct"]:
            failures.append(
                f"`{workload}` is not correct ({result.get('failed')} of "
                f"{result.get('attempted')} tasks failed)"
            )
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            current = lookup(result, "metrics", name, "value")
            base = lookup(baseline, workload, "metrics", name, "value")
            change = "–"
            if current is not None and base:
                relative = (current - base) / base
                change = f"{relative:+.1%}"
                if sign * relative > bound:
                    change += " ✗"
                    failures.append(
                        f"`{workload}` `{name}` is {sign * relative:.1%} "
                        f"worse than the baseline (bound {bound:.0%})"
                    )
            rows.append(
                f"| {workload} | {name} ({metric['unit']}) | {fmt(base)} "
                f"| {fmt(current)} | {change} | {sign * bound:+.0%} |"
            )
    return rows, failures


def fmt(value: float | None) -> str:
    return "–" if value is None else f"{value:.4g}"


def append_trajectory(path: Path, commit: str, results: dict) -> None:
    entry = {
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%d %H:%M"
        ),
        "results": results,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def load_trajectory(path: Path) -> list[dict]:
    """Every decodable trajectory entry, oldest first; a torn or damaged
    line is skipped."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return []
    entries = []
    for line in text.splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def trend_table(config: dict, entries: list[dict]) -> str:
    """Markdown trend of the last ``TREND_COMMITS`` commits: a row per
    workload and commit, a column per end-to-end metric.  A rerun of
    one commit keeps only its latest entry, in the commit's first place."""
    latest: dict[str, dict] = {}
    for entry in entries:
        latest[str(entry.get("commit"))] = entry
    recent = list(latest.items())[-TREND_COMMITS:]
    metrics = config["end_to_end"]
    lines = [
        "| workload | commit | date | "
        + " | ".join(f"{m['name']} ({m['unit']})" for m in metrics) + " |",
        "|---|---|---|" + "---:|" * len(metrics),
    ]
    for workload in (w["name"] for w in config["workloads"]):
        for commit, entry in recent:
            cells = " | ".join(
                fmt(lookup(entry, "results", workload, "metrics", m["name"],
                           "value"))
                for m in metrics
            )
            lines.append(
                f"| {workload} | `{commit[:10]}` | {entry.get('date', '–')} "
                f"| {cells} |"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="default: 1")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="per workload (default: BENCHMARK.json's run_seconds)",
    )
    parser.add_argument(
        "--out", default="BENCH_perfbench.json",
        help="result file to write (default: BENCH_perfbench.json)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="result file to judge the bounds against (if readable)",
    )
    parser.add_argument(
        "--trajectory", default=None, help="JSONL file of per-commit entries"
    )
    parser.add_argument(
        "--commit", default="unknown", help="commit of the trajectory entry"
    )
    parser.add_argument(
        "--summary", default=None,
        help="also append the markdown here (CI: $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)
    config = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    if seconds <= 0:
        parser.error("--seconds must be positive")

    results: dict[str, dict] = {}
    for workload in (w["name"] for w in config["workloads"]):
        result = run_workload(config["command"], workload, args.seed, seconds)
        if result is None:
            print(f"error: {workload}: no JSON result", file=sys.stderr)
            return 2
        results[workload] = result
    Path(args.out).write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    baseline = load_json(Path(args.baseline)) if args.baseline else None
    rows, failures = judge(config, results, baseline)
    sections = [
        f"## Perf gate (seed {args.seed}, {seconds:g} s per workload)",
        "",
        "| workload | metric | baseline | current | change | bound |",
        "|---|---|---:|---:|---:|---:|",
        *rows,
        "",
    ]
    if baseline is None:
        sections.append(
            "No baseline result (no green main run cached yet, or the "
            "cache expired): bounds gate skipped, correctness judged."
        )
    sections += [f"**FAIL**: {reason}." for reason in failures] or [
        "OK: every run is correct"
        + ("." if baseline is None else " and within its bounds.")
    ]
    if args.trajectory is not None:
        trajectory = Path(args.trajectory)
        append_trajectory(trajectory, args.commit, results)
        sections += [
            "",
            f"## Perf trajectory (last {TREND_COMMITS} commits)",
            "",
            trend_table(config, load_trajectory(trajectory)),
        ]

    markdown = "\n".join(sections) + "\n"
    print(markdown)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(markdown)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
