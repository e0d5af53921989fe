"""Simulation efforts and confidence-interval helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.ci import ConfidenceInterval, mean_confidence_interval
from repro.sim.stats import SimulationMetrics


@dataclass(frozen=True)
class Effort:
    """How much simulation to spend on an experiment.

    The paper's evaluation uses 10 runs of full-length scenarios; the
    benches use a scaled-down effort so the whole suite finishes in
    minutes.  No record of which effort produced which numbers is
    produced yet (ROADMAP.md, "Make the paper's evaluation one spec").
    """

    runs: int
    sim_time: float
    message_count: int

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("need at least one run")
        if self.sim_time <= 0:
            raise ValueError("sim time must be positive")
        if self.message_count < 1:
            raise ValueError("need at least one message")


#: The paper's full evaluation effort (Table 1: 3800 s, 1980 messages).
PAPER_EFFORT = Effort(runs=10, sim_time=3800.0, message_count=1980)

#: Reduced effort for the pytest-benchmark harness.
BENCH_EFFORT = Effort(runs=2, sim_time=420.0, message_count=120)

#: Middle ground for spot checks between the bench and paper efforts.
SPOT_EFFORT = Effort(runs=3, sim_time=1200.0, message_count=400)


def ci_of(
    runs: Sequence[SimulationMetrics], field: str
) -> ConfidenceInterval:
    """Confidence interval of one metric field across replicate runs.

    ``None`` values (e.g. latency in a run that delivered nothing) are
    skipped; if every run lacks the metric a zero interval is returned.
    """
    values = [
        float(v) for r in runs if (v := getattr(r, field)) is not None
    ]
    if not values:
        return ConfidenceInterval(mean=0.0, half_width=0.0, n=0)
    return mean_confidence_interval(values)


def fmt_ci(ci: ConfidenceInterval, digits: int = 1) -> str:
    """Paper-style ``mean±half_width`` formatting."""
    return f"{ci.mean:.{digits}f}±{ci.half_width:.{digits}f}"
