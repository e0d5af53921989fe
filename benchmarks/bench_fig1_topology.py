"""Figure 1 — topology connectivity at 250 m vs 100 m radius.

Paper: two example topologies of 50 nodes in a 1000 m square; at 250 m
"the networks are either connected or only a few nodes are
disconnected", at 100 m "the possibility of network connection is
almost impossible".
"""

from repro.analysis.topology_art import render_topology
from repro.experiments.common import BENCH_EFFORT
from repro.experiments.evaluation import run_artefact
from repro.graphs.udg import unit_disk_graph
from repro.mobility.base import Region
from repro.mobility.static import uniform_random_positions


def test_fig1_topology(run_once):
    # Five static topologies per effort run: ten at bench effort.
    result = run_once(run_artefact, "fig1", BENCH_EFFORT, seed=1)
    print()
    print(result.render())
    # Draw one sample topology per radius, as the paper's figure does.
    positions = uniform_random_positions(
        list(range(50)), Region(1000.0, 1000.0), seed=1
    )
    for radius, label in ((250.0, "(a)"), (100.0, "(b)")):
        graph = unit_disk_graph(positions, radius)
        print()
        print(
            render_topology(
                graph, title=f"Figure 1 {label}: radius {radius:.0f} m"
            )
        )

    comp_250, comp_100 = result.series["components"]
    frac_250, frac_100 = result.series["reachable_pair_fraction"]
    # Paper shape: 250 m ~ connected, 100 m shattered.
    assert comp_250.mean < 5.0
    assert comp_100.mean > 10.0
    assert frac_250.mean > 0.8
    assert frac_100.mean < 0.3
