"""Table 5 — GLR peak storage vs radius (fixed message count).

Paper (1980 messages): max peak falls 69 -> 6.9 and average peak
43.6 -> 1.76 as the radius grows 50 m -> 250 m ("the longer the radius,
the smaller is the storage requirement").
"""

from repro.experiments.common import BENCH_EFFORT
from repro.experiments.evaluation import run_artefact


def _mean(cell: str) -> float:
    return float(cell.split("±")[0])


def test_table5_storage_vs_radius(run_once):
    result = run_once(
        run_artefact,
        "table5",
        BENCH_EFFORT,
        values=(250.0, 100.0, 50.0),
        seed=1,
    )
    print()
    print(result.render())

    rows = {r[0]: r for r in result.rows}
    # Storage requirement strictly larger at 50 m than at 250 m, for
    # both the max and the average peak.
    assert _mean(rows["50"][1]) > _mean(rows["250"][1])
    assert _mean(rows["50"][2]) > _mean(rows["250"][2])
    # Dense connected network: storage requirement tiny.
    assert _mean(rows["250"][2]) < 10.0
