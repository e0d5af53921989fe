"""Figure 6 — latency vs transmission radius, fixed message count.

Paper: latency falls sharply as the radius grows for both protocols
(~170 s at 50 m to ~15 s at 250 m for epidemic; GLR below it).  The
bench asserts the monotone decrease for both protocols and that at
dense radii (where Algorithm 1 picks a single copy and the network is
connected) GLR is competitive with epidemic.
"""

from repro.experiments.common import BENCH_EFFORT
from repro.experiments.evaluation import run_artefact


def test_fig6_latency_vs_radius(run_once):
    result = run_once(
        run_artefact,
        "fig6",
        BENCH_EFFORT,
        values=(50.0, 150.0, 250.0),
        seed=1,
    )
    print()
    print(result.render())

    glr = [ci.mean for ci in result.series["glr_latency_s"]]
    epidemic = [ci.mean for ci in result.series["epidemic_latency_s"]]
    # Latency decreases with radius (allowing 10% noise) for both.
    assert glr[-1] < glr[0]
    assert epidemic[-1] <= epidemic[0] * 1.1
    # At 250 m the network is connected: both deliver fast.
    assert glr[-1] < 30.0
