"""Figure 4 — latency vs number of messages, 50 m radius.

Paper: epidemic latency rises steeply with load (contention) up to
~170 s at ~2000 messages; GLR stays below it throughout.

Reproduction status (no paper-vs-measured record is produced yet;
ROADMAP.md, "Make the paper's evaluation one spec"): our epidemic stays
at its mobility-mixing floor at 50 m because the abstract MAC has far
less overhead than NS-2's 802.11+IMEP stack at this node density, so
the crossover does NOT appear at 50 m — it appears at 100 m (Figure 5).
What this bench asserts is the part of the figure that does reproduce:
GLR's latency stays bounded (flat-ish) as load grows, i.e. controlled
flooding does not degrade with the number of messages in transit.
"""

from repro.experiments.common import BENCH_EFFORT
from repro.experiments.evaluation import run_artefact


def test_fig4_latency_vs_load_50m(run_once):
    result = run_once(
        run_artefact,
        "fig4",
        BENCH_EFFORT,
        values=(60, 180),
        seed=1,
    )
    print()
    print(result.render())

    glr = [ci.mean for ci in result.series["glr_latency_s"]]
    epidemic = [ci.mean for ci in result.series["epidemic_latency_s"]]
    assert all(lat > 0 for lat in glr + epidemic)
    # GLR latency growth under 3x load stays bounded (< 2x).
    assert glr[1] <= glr[0] * 2.0
