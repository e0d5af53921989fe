"""Ablation studies for GLR's design choices (the ``glr`` config fields
they vary are listed in docs/protocols.md).

These go beyond the paper's evaluation: each ablation isolates one
mechanism the paper motivates qualitatively, so the benches can show
what it actually buys.

- copy count (1 / 3 / 5 fixed, vs Algorithm 1 adaptive);
- routing spanner (LDTG vs raw UDG neighbours);
- face routing on/off;
- custody retransmit timeout sensitivity;
- baseline protocol comparison (GLR vs epidemic vs spray-and-wait vs
  first-contact vs direct) in one scenario.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.protocol import GLRConfig
from repro.experiments.campaign import ReplicateSpec, run_replicate_specs
from repro.experiments.common import BENCH_EFFORT, Effort, ci_of, fmt_ci
from repro.experiments.scenarios import Scenario
from repro.experiments.tables import TableResult
from repro.mobility.registry import MobilityConfig


def ablation_copies(
    copy_counts: tuple[int, ...] = (1, 3, 5),
    effort: Effort = BENCH_EFFORT,
    radius: float = 50.0,
    seed: int = 1,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    mobility: MobilityConfig | str | None = None,
) -> TableResult:
    """Fixed copy counts vs the Algorithm 1 adaptive decision."""
    result = TableResult(
        experiment="ablation-copies",
        title=f"copy count ablation ({radius:.0f}m, "
        f"{effort.message_count} messages)",
        headers=["copies", "delivery_ratio", "latency_s", "avg_peak_storage"],
    )
    configs: list[tuple[str, GLRConfig]] = [
        (str(c), GLRConfig(copies_override=c)) for c in copy_counts
    ]
    configs.append(("algorithm-1", GLRConfig()))
    specs = [
        ReplicateSpec(
            scenario=Scenario(
                name=f"ablation-copies-{label}",
                radius=radius,
                message_count=effort.message_count,
                sim_time=effort.sim_time,
                seed=seed,
                mobility=mobility,
            ),
            protocol="glr",
            runs=effort.runs,
            protocol_config=config,
        )
        for label, config in configs
    ]
    cells = run_replicate_specs(specs, workers=workers, cache_dir=cache_dir)
    for (label, _), runs in zip(configs, cells):
        result.rows.append(
            [
                label,
                fmt_ci(ci_of(runs, "delivery_ratio"), digits=3),
                fmt_ci(ci_of(runs, "average_latency")),
                fmt_ci(ci_of(runs, "average_peak_storage")),
            ]
        )
    return result


def ablation_spanner(
    effort: Effort = BENCH_EFFORT,
    radius: float = 100.0,
    seed: int = 1,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    mobility: MobilityConfig | str | None = None,
) -> TableResult:
    """LDTG routing graph vs raw unit-disk neighbours."""
    result = TableResult(
        experiment="ablation-spanner",
        title=f"routing spanner ablation ({radius:.0f}m, "
        f"{effort.message_count} messages)",
        headers=["spanner", "delivery_ratio", "latency_s", "hops"],
    )
    variants = (("ldt", True), ("udg", False))
    specs = [
        ReplicateSpec(
            scenario=Scenario(
                name=f"ablation-spanner-{label}",
                radius=radius,
                message_count=effort.message_count,
                sim_time=effort.sim_time,
                seed=seed,
                mobility=mobility,
            ),
            protocol="glr",
            runs=effort.runs,
            protocol_config=GLRConfig(use_ldt=use_ldt),
        )
        for label, use_ldt in variants
    ]
    cells = run_replicate_specs(specs, workers=workers, cache_dir=cache_dir)
    for (label, _), runs in zip(variants, cells):
        result.rows.append(
            [
                label,
                fmt_ci(ci_of(runs, "delivery_ratio"), digits=3),
                fmt_ci(ci_of(runs, "average_latency")),
                fmt_ci(ci_of(runs, "average_hops")),
            ]
        )
    return result


def ablation_face_routing(
    effort: Effort = BENCH_EFFORT,
    radius: float = 100.0,
    seed: int = 1,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    mobility: MobilityConfig | str | None = None,
) -> TableResult:
    """Face-routing recovery on vs off."""
    result = TableResult(
        experiment="ablation-face",
        title=f"face routing ablation ({radius:.0f}m, "
        f"{effort.message_count} messages)",
        headers=["face_routing", "delivery_ratio", "latency_s", "hops"],
    )
    variants = (True, False)
    specs = [
        ReplicateSpec(
            scenario=Scenario(
                name=f"ablation-face-{enabled}",
                radius=radius,
                message_count=effort.message_count,
                sim_time=effort.sim_time,
                seed=seed,
                mobility=mobility,
            ),
            protocol="glr",
            runs=effort.runs,
            protocol_config=GLRConfig(face_routing=enabled),
        )
        for enabled in variants
    ]
    cells = run_replicate_specs(specs, workers=workers, cache_dir=cache_dir)
    for enabled, runs in zip(variants, cells):
        result.rows.append(
            [
                "on" if enabled else "off",
                fmt_ci(ci_of(runs, "delivery_ratio"), digits=3),
                fmt_ci(ci_of(runs, "average_latency")),
                fmt_ci(ci_of(runs, "average_hops")),
            ]
        )
    return result


def ablation_custody_timeout(
    timeouts: tuple[float, ...] = (2.0, 5.0, 10.0, 20.0),
    effort: Effort = BENCH_EFFORT,
    radius: float = 50.0,
    seed: int = 1,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    mobility: MobilityConfig | str | None = None,
) -> TableResult:
    """Sensitivity of delivery to the custody retransmit timeout."""
    result = TableResult(
        experiment="ablation-custody-timeout",
        title=f"custody timeout sensitivity ({radius:.0f}m, "
        f"{effort.message_count} messages)",
        headers=["timeout_s", "delivery_ratio", "latency_s"],
    )
    specs = [
        ReplicateSpec(
            scenario=Scenario(
                name=f"ablation-custody-{timeout}",
                radius=radius,
                message_count=effort.message_count,
                sim_time=effort.sim_time,
                seed=seed,
                mobility=mobility,
            ),
            protocol="glr",
            runs=effort.runs,
            protocol_config=GLRConfig(custody_timeout=timeout),
        )
        for timeout in timeouts
    ]
    cells = run_replicate_specs(specs, workers=workers, cache_dir=cache_dir)
    for timeout, runs in zip(timeouts, cells):
        result.rows.append(
            [
                f"{timeout:.0f}",
                fmt_ci(ci_of(runs, "delivery_ratio"), digits=3),
                fmt_ci(ci_of(runs, "average_latency")),
            ]
        )
    return result


def ablation_protocols(
    effort: Effort = BENCH_EFFORT,
    radius: float = 100.0,
    seed: int = 1,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    mobility: MobilityConfig | str | None = None,
) -> TableResult:
    """All implemented protocols side by side in one scenario."""
    result = TableResult(
        experiment="ablation-protocols",
        title=f"protocol comparison ({radius:.0f}m, "
        f"{effort.message_count} messages)",
        headers=[
            "protocol",
            "delivery_ratio",
            "latency_s",
            "hops",
            "avg_peak_storage",
        ],
    )
    protocols = (
        "glr",
        "epidemic",
        "spray_and_wait",
        "first_contact",
        "direct",
    )
    specs = [
        ReplicateSpec(
            scenario=Scenario(
                name=f"ablation-protocols-{protocol}",
                radius=radius,
                message_count=effort.message_count,
                sim_time=effort.sim_time,
                seed=seed,
                mobility=mobility,
            ),
            protocol=protocol,
            runs=effort.runs,
        )
        for protocol in protocols
    ]
    cells = run_replicate_specs(specs, workers=workers, cache_dir=cache_dir)
    for protocol, runs in zip(protocols, cells):
        result.rows.append(
            [
                protocol,
                fmt_ci(ci_of(runs, "delivery_ratio"), digits=3),
                fmt_ci(ci_of(runs, "average_latency")),
                fmt_ci(ci_of(runs, "average_hops")),
                fmt_ci(ci_of(runs, "average_peak_storage")),
            ]
        )
    return result
