"""Table 3 — delivery ratio with vs without custody transfer.

Paper (890 messages, 50 m, 1200 s): 84.7%±1 without custody transfer vs
97.9%±1 with it.  The shape: custody transfer recovers deliveries lost
to collisions and link breakage, at similar or better latency for the
messages that do arrive.
"""

from repro.experiments.common import BENCH_EFFORT
from repro.experiments.evaluation import run_artefact


def _mean(cell: str) -> float:
    return float(cell.split("±")[0])


def test_table3_custody(run_once):
    result = run_once(run_artefact, "table3", BENCH_EFFORT, seed=1)
    print()
    print(result.render())

    without = next(r for r in result.rows if r[0] == "without")
    with_ct = next(r for r in result.rows if r[0] == "with")
    # Custody transfer must improve the delivery ratio.
    assert _mean(with_ct[1]) > _mean(without[1])
    assert _mean(with_ct[1]) > 0.5
