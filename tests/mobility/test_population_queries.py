"""Population queries: ``positions(t)`` agrees with ``position(node, t)``.

The beacon loop snapshots whole populations with
``MobilityModel.positions``; protocols and the trace exporter query
single nodes with ``position``.  For every registered model the two
must agree **bit for bit** (``==`` on floats, no tolerance) at
randomized and out-of-order query times, and a trajectory must not
depend on the order in which nodes or times were queried: every node
draws from its own seeded stream, so two identically seeded models
queried in different orders stay identical.
"""

from __future__ import annotations

import random

import pytest

from repro.mobility.base import Region
from repro.mobility.registry import available_models
from repro.mobility.static import StaticMobility

from tests.conftest import build_registry_mobility

#: Models buildable with no extra parameters.
GENERATIVE_MODELS = [
    "gauss_markov",
    "manhattan",
    "random_walk",
    "random_waypoint",
    "rpgm",
    "static",
]


def build_model(name: str, tmp_path):
    return build_registry_mobility(
        name, list(range(12)), Region(600.0, 300.0), 31, tmp_path
    )


def assert_population_matches_scalar(model, times) -> None:
    """Every snapshot entry must equal the scalar query bit for bit."""
    for t in times:
        snapshot = model.positions(t)
        assert list(snapshot) == model.node_ids
        for node in model.node_ids:
            point = model.position(node, t)
            assert snapshot[node].x == point.x, (
                f"node {node} x differs at t={t}"
            )
            assert snapshot[node].y == point.y, (
                f"node {node} y differs at t={t}"
            )


class TestPopulationQueries:
    def test_every_registered_model_is_covered(self):
        assert set(GENERATIVE_MODELS) | {"trace"} == set(available_models())

    @pytest.mark.parametrize("name", GENERATIVE_MODELS + ["trace"])
    def test_population_equals_scalar_at_randomized_times(
        self, name, tmp_path
    ):
        model = build_model(name, tmp_path)
        rng = random.Random(sum(map(ord, name)))
        times = sorted(rng.uniform(0.0, 400.0) for _ in range(12))
        assert_population_matches_scalar(model, [0.0] + times)

    @pytest.mark.parametrize("name", GENERATIVE_MODELS + ["trace"])
    def test_population_equals_scalar_under_shuffled_queries(
        self, name, tmp_path
    ):
        """Repeated and backwards query times select the right leg."""
        model = build_model(name, tmp_path)
        rng = random.Random(len(name))
        times = [rng.uniform(0.0, 300.0) for _ in range(10)]
        times += [times[0], times[3]]  # exact repeats
        rng.shuffle(times)
        assert_population_matches_scalar(model, times)

    @pytest.mark.parametrize("name", GENERATIVE_MODELS)
    def test_query_order_does_not_perturb_trajectories(self, name, tmp_path):
        """Two identically seeded models — one snapshotted forward in
        time, the twin queried node by node in reverse node order and
        reverse time order — must agree, proving each node's
        trajectory extends from its own draws only."""
        forward = build_model(name, tmp_path)
        backward = build_model(name, tmp_path)
        times = (0.0, 12.5, 12.5, 47.0, 150.0)
        snapshots = {t: forward.positions(t) for t in times}
        for node in reversed(backward.node_ids):
            for t in reversed(times):
                point = backward.position(node, t)
                assert snapshots[t][node].x == point.x
                assert snapshots[t][node].y == point.y

    def test_trace_replay_past_horizon_parks_nodes(self, tmp_path):
        """Finite trajectories hold their last point in snapshots too."""
        # Legs started before the export horizon run to their own end,
        # so query far past the longest possible leg.
        model = build_model("trace", tmp_path)
        final = model.positions(10_000.0)
        later = model.positions(50_000.0)
        assert final == later
        assert_population_matches_scalar(model, [10_000.0, 50_000.0])

    def test_static_snapshot_is_time_invariant(self):
        region = Region(100.0, 100.0)
        model = StaticMobility.uniform([0, 1, 2], region, seed=3)
        first = model.positions(0.0)
        assert model.positions(50.0) == first
        # Snapshots are fresh dicts: a caller mutating one cannot move
        # nodes for the next beacon.
        first[0] = None
        assert model.positions(0.0)[0] is not None

    def test_empty_population(self):
        region = Region(100.0, 100.0)
        model = StaticMobility(region, {})
        assert model.positions(0.0) == {}

    def test_negative_time_rejected(self, tmp_path):
        model = build_model("random_waypoint", tmp_path)
        with pytest.raises(ValueError):
            model.positions(-1.0)
