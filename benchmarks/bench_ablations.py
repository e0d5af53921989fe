"""Ablation benches for GLR's design choices (the ``glr`` config fields
they vary are listed in docs/protocols.md).

Beyond the paper's own tables: each bench isolates one mechanism and
prints a comparison table; assertions pin the direction each mechanism
is supposed to act in.
"""

from repro.experiments.common import BENCH_EFFORT
from repro.experiments.evaluation import run_artefact


def _mean(cell: str) -> float:
    return float(cell.split("±")[0])


def test_ablation_copies(run_once):
    # None is Algorithm 1's adaptive decision.
    result = run_once(
        run_artefact,
        "ablation-copies",
        BENCH_EFFORT,
        seed=1,
        values=(1, 3, None),
    )
    print()
    print(result.render())
    rows = {r[0]: r for r in result.rows}
    # More copies cost more storage...
    assert _mean(rows["3"][3]) >= _mean(rows["1"][3])
    # ...and Algorithm 1 matches the sparse choice (3 copies at 50 m).
    assert _mean(rows["algorithm-1"][3]) == _mean(rows["3"][3])


def test_ablation_spanner(run_once):
    result = run_once(run_artefact, "ablation-spanner", BENCH_EFFORT, seed=1)
    print()
    print(result.render())
    rows = {r[0]: r for r in result.rows}
    # Both spanners must deliver; the LDTG must not lose messages
    # relative to routing on the full UDG neighbour set.
    assert _mean(rows["ldt"][1]) >= _mean(rows["udg"][1]) - 0.1


def test_ablation_face_routing(run_once):
    result = run_once(run_artefact, "ablation-face", BENCH_EFFORT, seed=1)
    print()
    print(result.render())
    rows = {r[0]: r for r in result.rows}
    assert _mean(rows["on"][1]) >= _mean(rows["off"][1]) - 0.1


def test_ablation_custody_timeout(run_once):
    result = run_once(
        run_artefact,
        "ablation-custody-timeout",
        BENCH_EFFORT,
        seed=1,
        values=(2.0, 10.0),
    )
    print()
    print(result.render())
    for row in result.rows:
        assert _mean(row[1]) > 0.3  # all timeouts must still deliver


def test_ablation_protocols(run_once):
    result = run_once(
        run_artefact, "ablation-protocols", BENCH_EFFORT, seed=1
    )
    print()
    print(result.render())
    rows = {r[0]: r for r in result.rows}
    # Epidemic and GLR must beat direct delivery on delivery ratio at
    # this horizon; GLR's storage must undercut epidemic's.
    assert _mean(rows["glr"][1]) >= _mean(rows["direct"][1])
    assert _mean(rows["epidemic"][1]) >= _mean(rows["direct"][1])
    assert _mean(rows["glr"][4]) < _mean(rows["epidemic"][4])
