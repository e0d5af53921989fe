"""Table 6 — hop counts, GLR vs epidemic, across radii.

Paper (1980 messages): GLR hops grow 3.4 -> 17.3 as radius shrinks
250 m -> 50 m; epidemic hops stay ~3.2–4.9 throughout, and GLR's count
exceeds epidemic's at every radius (GLR re-forwards whenever relative
positions change; epidemic messages ride their carriers).
"""

from repro.experiments.common import BENCH_EFFORT
from repro.experiments.evaluation import run_artefact


def _mean(cell: str) -> float:
    return float(cell.split("±")[0])


def test_table6_hops(run_once):
    result = run_once(
        run_artefact,
        "table6",
        BENCH_EFFORT,
        values=(250.0, 100.0, 50.0),
        seed=1,
    )
    print()
    print(result.render())

    rows = {r[0]: r for r in result.rows}
    # GLR hops exceed epidemic's at sparse radii.
    assert _mean(rows["100"][1]) > _mean(rows["100"][2])
    assert _mean(rows["50"][1]) > _mean(rows["50"][2])
    # GLR hops grow as the radius shrinks.
    assert _mean(rows["50"][1]) > _mean(rows["250"][1])
    # Epidemic hop counts stay small everywhere (paper: 3.2-4.9).
    for radius in ("250", "100", "50"):
        assert _mean(rows[radius][2]) < 10.0
