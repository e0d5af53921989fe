"""Tests for scenarios, workload generation, and the runner."""

import pytest

from repro.experiments.common import BENCH_EFFORT, Effort, ci_of, fmt_ci
from repro.experiments.runner import (
    available_protocols,
    build_world,
    run_replicates,
    run_single,
)
from repro.experiments.scenarios import PAPER_TABLE1, Scenario
from repro.experiments.workload import generate_workload


class TestScenario:
    def test_paper_defaults_match_table1(self):
        s = PAPER_TABLE1
        assert s.n_nodes == 50
        assert s.region.width == 1500.0
        assert s.region.height == 300.0
        assert s.max_speed == 20.0
        assert s.pause_time == 0.0
        assert s.message_count == 1980
        assert s.active_nodes == 45
        assert s.payload_bytes == 1000
        assert s.sim_time == 3800.0
        assert s.queue_limit == 150
        assert s.data_rate_bps == 1_000_000.0

    def test_but_replaces_fields(self):
        s = PAPER_TABLE1.but(radius=50.0, message_count=10)
        assert s.radius == 50.0
        assert s.message_count == 10
        assert s.n_nodes == 50  # untouched

    def test_with_seed(self):
        assert PAPER_TABLE1.with_seed(42).seed == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(n_nodes=1)
        with pytest.raises(ValueError):
            Scenario(radius=0.0)
        with pytest.raises(ValueError):
            Scenario(active_nodes=100)
        with pytest.raises(ValueError):
            Scenario(sim_time=0.0)

    def test_traffic_fields_validated(self):
        with pytest.raises(ValueError):
            Scenario(message_interval=0.0)
        with pytest.raises(ValueError):
            Scenario(message_start=-1.0)
        with pytest.raises(ValueError):
            Scenario(payload_bytes=0)
        with pytest.raises(ValueError):
            Scenario(data_rate_bps=0.0)

    def test_speed_pair_validated_at_construction(self):
        # Before the mobility subsystem this only surfaced deep inside
        # RandomWaypointMobility at build_world time.
        with pytest.raises(ValueError, match="min_speed"):
            Scenario(min_speed=30.0, max_speed=20.0)
        with pytest.raises(ValueError, match="min_speed"):
            Scenario(min_speed=-1.0)
        with pytest.raises(ValueError, match="max speed"):
            Scenario(max_speed=0.0)
        Scenario(min_speed=5.0, max_speed=5.0)  # equal speeds are fine

    def test_beacon_interval_validated(self):
        with pytest.raises(ValueError, match="beacon"):
            Scenario(beacon_interval=0.0)
        with pytest.raises(ValueError, match="beacon"):
            Scenario(beacon_interval=-1.0)

    def test_scenario_has_no_engine_field(self):
        # One simulation path: no scenario field selects another.
        import dataclasses

        assert "engine" not in {f.name for f in dataclasses.fields(Scenario)}
        with pytest.raises(TypeError):
            Scenario(engine="reference")

    def test_world_config_has_no_engine_field(self):
        import dataclasses

        from repro.sim.world import WorldConfig

        assert "engine" not in {
            f.name for f in dataclasses.fields(WorldConfig)
        }
        with pytest.raises(TypeError):
            WorldConfig(engine="reference")

    def test_queue_limit_validated(self):
        with pytest.raises(ValueError, match="queue"):
            Scenario(queue_limit=0)
        Scenario(queue_limit=1)

    def test_mobility_strings_coerced(self):
        from repro.mobility.registry import MobilityConfig

        s = Scenario(mobility="gauss-markov")
        assert s.mobility == MobilityConfig.of("gauss_markov")
        assert Scenario().mobility is None
        # Coercion must survive `but` (dataclasses.replace re-inits).
        assert s.but(radius=50.0).mobility == s.mobility

    def test_unknown_mobility_rejected(self):
        with pytest.raises(ValueError, match="unknown mobility model"):
            Scenario(mobility="teleport")

    def test_motion_fields_conflict_with_mobility_config(self):
        # The speed/pause fields only drive the default RWP path; a
        # registry model must take them via its params, otherwise a
        # "speed sweep" x mobility grid would simulate identical cells.
        with pytest.raises(ValueError, match="mobility config"):
            Scenario(mobility="gauss-markov", max_speed=10.0)
        with pytest.raises(ValueError, match="mobility config"):
            Scenario(mobility="rwp", min_speed=5.0)
        with pytest.raises(ValueError, match="mobility config"):
            Scenario(mobility="manhattan", pause_time=30.0)
        # Defaults are fine, and the params route works.
        Scenario(mobility={"model": "rwp", "min_speed": 5.0})

    def test_area(self):
        assert PAPER_TABLE1.area == 450_000.0


class TestWorkload:
    def test_paper_workload_is_1980_messages(self):
        specs = generate_workload(PAPER_TABLE1)
        assert len(specs) == 1980

    def test_all_pairs_distinct_until_exhausted(self):
        specs = generate_workload(PAPER_TABLE1)
        pairs = [(s.source, s.dest) for s in specs]
        assert len(set(pairs)) == 1980  # 45*44 = 1980 distinct pairs

    def test_sources_and_dests_within_active_set(self):
        scenario = Scenario(message_count=100, active_nodes=10)
        for spec in generate_workload(scenario):
            assert 0 <= spec.source < 10
            assert 0 <= spec.dest < 10
            assert spec.source != spec.dest

    def test_one_message_per_interval(self):
        scenario = Scenario(
            message_count=5, message_start=2.0, message_interval=3.0
        )
        times = [s.at_time for s in generate_workload(scenario)]
        assert times == [2.0, 5.0, 8.0, 11.0, 14.0]

    def test_deterministic_per_seed(self):
        a = generate_workload(Scenario(seed=5, message_count=50))
        b = generate_workload(Scenario(seed=5, message_count=50))
        assert a == b

    def test_different_seed_shuffles(self):
        a = generate_workload(Scenario(seed=5, message_count=50))
        b = generate_workload(Scenario(seed=6, message_count=50))
        assert a != b

    def test_cycling_beyond_pair_count(self):
        scenario = Scenario(message_count=10, active_nodes=3)
        specs = generate_workload(scenario)  # 6 distinct pairs, cycles
        assert len(specs) == 10


class TestRunner:
    def test_available_protocols(self):
        assert "glr" in available_protocols()
        assert "epidemic" in available_protocols()

    def test_unknown_protocol_rejected(self):
        scenario = Scenario(message_count=1, sim_time=5.0)
        with pytest.raises(ValueError):
            run_single(scenario, "quantum_routing")

    def test_build_world_wires_everything(self):
        scenario = Scenario(message_count=3, sim_time=10.0)
        world = build_world(scenario, "glr")
        assert len(world.protocols) == 50
        assert world.config.radio.range_m == scenario.radius
        assert world.config.mac.queue_limit == scenario.queue_limit

    def test_default_scenario_uses_paper_rwp_model(self):
        from repro.mobility.random_waypoint import RandomWaypointMobility

        world = build_world(Scenario(message_count=1, sim_time=5.0), "glr")
        assert type(world.mobility) is RandomWaypointMobility

    def test_mobility_config_reaches_the_world(self):
        from repro.mobility.gauss_markov import GaussMarkovMobility
        from repro.mobility.rpgm import ReferencePointGroupMobility

        scenario = Scenario(
            message_count=1, sim_time=5.0, mobility="gauss-markov"
        )
        world = build_world(scenario, "glr")
        assert isinstance(world.mobility, GaussMarkovMobility)
        grouped = Scenario(
            message_count=1,
            sim_time=5.0,
            mobility={"model": "rpgm", "n_groups": 5},
        )
        world = build_world(grouped, "glr")
        assert isinstance(world.mobility, ReferencePointGroupMobility)
        assert world.mobility.n_groups == 5

    def test_mobility_scenario_simulates_end_to_end(self):
        scenario = Scenario(
            n_nodes=10,
            active_nodes=5,
            message_count=3,
            sim_time=20.0,
            mobility="manhattan",
        )
        metrics = run_single(scenario, "epidemic")
        assert metrics.messages_created == 3

    def test_run_single_returns_metrics(self):
        scenario = Scenario(
            radius=150.0, message_count=5, sim_time=40.0, seed=2
        )
        metrics = run_single(scenario, "glr")
        assert metrics.protocol == "glr"
        assert metrics.messages_created == 5
        assert metrics.duration == 40.0

    def test_buffer_limit_applied_to_all_protocols(self):
        scenario = Scenario(message_count=2, sim_time=10.0)
        for protocol in ("glr", "epidemic", "direct"):
            world = build_world(scenario, protocol, buffer_limit=7)
            metrics = world.run(until=10.0, protocol_name=protocol)
            assert metrics.max_peak_storage <= 7

    @pytest.mark.slow
    def test_replicates_use_distinct_seeds(self):
        scenario = Scenario(
            radius=150.0, message_count=5, sim_time=30.0, seed=2
        )
        runs = run_replicates(scenario, "glr", runs=2)
        assert len(runs) == 2
        assert runs[0].frames_sent != runs[1].frames_sent


class TestEffortAndCi:
    def test_effort_validation(self):
        with pytest.raises(ValueError):
            Effort(runs=0, sim_time=10.0, message_count=1)
        with pytest.raises(ValueError):
            Effort(runs=1, sim_time=0.0, message_count=1)

    def test_bench_effort_small(self):
        assert BENCH_EFFORT.runs <= 3
        assert BENCH_EFFORT.sim_time <= 600.0

    def test_ci_of_skips_missing_values(self):
        from tests.analysis.test_ci import make_metrics

        runs = [
            make_metrics(latency=10.0),
            make_metrics(ratio=0.0, latency=None),
        ]
        ci = ci_of(runs, "average_latency")
        assert ci.mean == pytest.approx(10.0)
        assert ci.n == 1

    def test_ci_of_all_missing_returns_zero(self):
        from tests.analysis.test_ci import make_metrics

        runs = [make_metrics(latency=None)]
        ci = ci_of(runs, "average_latency")
        assert ci.mean == 0.0
        assert ci.n == 0

    def test_fmt_ci(self):
        from repro.analysis.ci import ConfidenceInterval

        assert fmt_ci(ConfidenceInterval(1.234, 0.567, 3)) == "1.2±0.6"
