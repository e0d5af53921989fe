"""Figure 7 — delivery ratio vs per-node storage limit (50 m).

Paper (1980 messages): epidemic's delivery ratio collapses once
per-node storage drops below ~200 messages, while GLR holds 100% even
at 100 messages/node.  At bench scale (fewer messages) the same shape
appears at proportionally smaller limits: GLR's controlled flooding
keeps per-node occupancy far below the number of messages in transit,
so it tolerates much smaller stores than epidemic.
"""

from repro.experiments.common import BENCH_EFFORT, Effort
from repro.experiments.evaluation import run_artefact

EFFORT = Effort(
    runs=BENCH_EFFORT.runs,
    sim_time=max(BENCH_EFFORT.sim_time, 480.0),
    message_count=160,
)


def test_fig7_delivery_vs_storage(run_once):
    result = run_once(
        run_artefact,
        "fig7",
        EFFORT,
        values=(10, 40, 160),
        seed=1,
    )
    print()
    print(result.render())

    glr = [ci.mean for ci in result.series["glr_delivery_ratio"]]
    epidemic = [ci.mean for ci in result.series["epidemic_delivery_ratio"]]
    # Epidemic recovers with storage; at the tightest limit it must
    # have lost deliveries relative to its unconstrained ratio.
    assert epidemic[0] < epidemic[-1]
    # The paper's storage claim, stated scale-honestly: squeezing the
    # store must cost GLR proportionally less than epidemic, because
    # GLR's occupancy is a small fraction of the messages in transit.
    # (At the short bench horizon GLR's *unconstrained* 50 m ratio is
    # itself below 1.0, so retention — ratio at the tight limit over
    # ratio unconstrained — is the comparable quantity.)
    glr_retention = glr[0] / max(glr[-1], 1e-9)
    epidemic_retention = epidemic[0] / max(epidemic[-1], 1e-9)
    assert glr_retention > epidemic_retention
