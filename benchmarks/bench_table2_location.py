"""Table 2 — delivery under destination-location knowledge situations.

Paper (3800 s horizon): oracle 1-copy fastest (120 s), then
3-copies-source-knows (150 s), then 1-copy-source-knows (156 s), then
3-copies-no-knowledge slowest (212 s, 99.9% delivery).  The shape to
reproduce is that ordering: more location knowledge and controlled
flooding both reduce latency; no knowledge is the worst row.
"""

from repro.experiments.common import BENCH_EFFORT, Effort
from repro.experiments.evaluation import run_artefact

EFFORT = Effort(
    runs=BENCH_EFFORT.runs,
    sim_time=BENCH_EFFORT.sim_time,
    message_count=BENCH_EFFORT.message_count,
)


def _mean(cell: str) -> float:
    return float(cell.split("±")[0])


def test_table2_location(run_once):
    result = run_once(run_artefact, "table2", EFFORT, seed=1)
    print()
    print(result.render())

    rows = {((r[0]), r[1]): r for r in result.rows}
    oracle = rows[("1 copy", "all nodes know")]
    src3 = rows[("3 copies", "only source knows")]
    src1 = rows[("1 copy", "only source knows")]
    none3 = rows[("3 copies", "no nodes know")]

    # Oracle knowledge must beat no knowledge in latency, within the
    # noise floor of the 2-run bench effort (CIs at this scale overlap
    # heavily; no spot-effort record is produced yet: ROADMAP.md, "Make
    # the paper's evaluation one spec").
    assert _mean(oracle[3]) <= _mean(none3[3]) * 1.15
    # Oracle-1copy must beat source-1copy (same copy count, strictly
    # more knowledge) — the cleanest pairwise comparison in the table.
    assert _mean(oracle[3]) <= _mean(src1[3]) * 1.05
    # Controlled flooding: 3 copies at least as fast as 1 copy when
    # only the source knows the location (paper's central comparison).
    assert _mean(src3[3]) <= _mean(src1[3]) * 1.25
    # Delivery with knowledge is high.
    assert _mean(oracle[2]) > 0.9
