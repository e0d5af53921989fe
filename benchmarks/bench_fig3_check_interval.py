"""Figure 3 — GLR delivery latency vs route-check interval.

Paper: 1980 messages at 100 m; latency 18–25 s across intervals
0.6–1.6 s, generally lower for more frequent checks (traded against
more control traffic).  Bench scale uses fewer messages and a shorter
horizon; the shape to reproduce is the mild latency increase with the
interval and the control-traffic decrease.
"""

from repro.experiments.common import BENCH_EFFORT
from repro.experiments.evaluation import run_artefact


def test_fig3_check_interval(run_once):
    result = run_once(
        run_artefact,
        "fig3",
        BENCH_EFFORT,
        values=(0.6, 1.0, 1.6),
        seed=1,
    )
    print()
    print(result.render())

    latencies = [ci.mean for ci in result.series["glr_latency_s"]]
    assert all(lat > 0 for lat in latencies)
    # Latency at the fastest check must not exceed the slowest check's
    # by more than noise (paper: more frequent checks reduce latency).
    assert latencies[0] <= latencies[-1] * 1.6
