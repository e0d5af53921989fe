"""Table 4 — GLR peak storage vs message count (50 m, 3 copies).

Paper: max peak grows 39 -> 69 and average peak 21 -> 44 as messages
grow 400 -> 1980.  Shape: both peaks grow with load, and stay far
below the epidemic requirement (~ every message in transit).
"""

from repro.experiments.common import BENCH_EFFORT
from repro.experiments.evaluation import run_artefact


def _mean(cell: str) -> float:
    return float(cell.split("±")[0])


def test_table4_storage_vs_load(run_once):
    loads = (60, 180)
    result = run_once(
        run_artefact, "table4", BENCH_EFFORT, seed=1, values=loads
    )
    print()
    print(result.render())

    max_peaks = [_mean(r[1]) for r in result.rows]
    avg_peaks = [_mean(r[2]) for r in result.rows]
    # Storage grows with load...
    assert max_peaks[1] > max_peaks[0]
    assert avg_peaks[1] > avg_peaks[0]
    # ...but stays well below "all messages in transit" (epidemic's
    # requirement, = the load itself).
    assert max_peaks[1] < loads[1]
