"""Tests for scenarios, workload generation, and the runner."""

import gc
import math

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
from repro.mobility.base import Region


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

    @pytest.mark.parametrize(
        "field",
        [
            "radius",
            "min_speed",
            "max_speed",
            "pause_time",
            "message_interval",
            "message_start",
            "sim_time",
            "beacon_interval",
            "data_rate_bps",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected(self, field, value):
        # NaN passes every `<= 0` check, and a NaN sim_time or
        # beacon_interval would make run_single never return.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Scenario(**{field: value})

    @pytest.mark.parametrize("side", [math.nan, math.inf])
    def test_non_finite_region_rejected(self, side):
        with pytest.raises(ValueError, match="finite"):
            Scenario(region=Region(side, 300.0))
        with pytest.raises(ValueError, match="finite"):
            Scenario(region=Region(1500.0, side))

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


class TestWorldTraffic:
    """The messages a built world creates, and the epoch each one sees.

    A world's traffic is one calendar series whose tiebreakers were
    reserved when ``build_world`` scheduled it, so each same-second tie
    with the beacon resolves as it would for one event per message: the
    t=1 message sees epoch 1 (that beacon was scheduled first), every
    later one fires before its second's beacon and sees epoch t-1.
    """

    @staticmethod
    def created(scenario, protocol):
        world = build_world(scenario, protocol)
        seen = []
        for protocol_instance in world.protocols.values():
            def record(message, inner=protocol_instance.on_message_created):
                seen.append((
                    (message.created_at, message.source, message.dest,
                     message.seq),
                    world.neighbor_service.epoch,
                ))
                inner(message)

            protocol_instance.on_message_created = record
        metrics = world.run(until=scenario.sim_time)
        assert metrics.messages_created == len(seen)
        return seen

    @staticmethod
    def expected(specs):
        per_source = {}
        out = []
        for spec in specs:
            seq = per_source.get(spec.source, 0)
            per_source[spec.source] = seq + 1
            out.append((spec.at_time, spec.source, spec.dest, seq))
        return out

    @pytest.mark.parametrize("protocol", ["glr", "one_hop"])
    def test_table1_messages_and_epochs(self, protocol):
        scenario = PAPER_TABLE1.but(sim_time=12.0)
        seen = self.created(scenario, protocol)
        assert [m for m, _ in seen] == self.expected(
            generate_workload(scenario)[:12]
        )
        assert [epoch for _, epoch in seen] == [1, *range(1, 12)]

    def test_pairs_cycle_past_the_distinct_pairs(self):
        scenario = PAPER_TABLE1.but(
            message_count=2000, message_interval=0.001, sim_time=3.0
        )
        seen = self.created(scenario, "one_hop")
        specs = generate_workload(scenario)
        assert [m for m, _ in seen] == self.expected(specs)
        assert specs[1980].source == specs[0].source
        assert specs[1980].dest == specs[0].dest

    def test_traffic_adds_no_object_per_message(self):
        """The traffic is two flat arrays and one calendar entry, so a
        world with 1,980 messages holds no more GC-tracked objects than
        one with a single message (an entry per message added ~15,800)."""
        scenario = PAPER_TABLE1.but(sim_time=12.0)
        build_world(scenario, "glr")
        added = {}
        gc.disable()
        try:
            for count in (1, 1980):
                gc.collect()
                before = len(gc.get_objects())
                world = build_world(scenario.but(message_count=count), "glr")
                added[count] = len(gc.get_objects()) - before
                del world
        finally:
            gc.enable()
        assert added[1980] - added[1] < 20

    def test_no_messages_schedules_nothing(self):
        scenario = PAPER_TABLE1.but(sim_time=12.0)
        pending = {
            count: build_world(
                scenario.but(message_count=count), "one_hop"
            ).sim.pending_events()
            for count in (0, 12, 1980)
        }
        assert pending[12] - pending[0] == 12
        assert pending[1980] - pending[0] == 1980
        assert self.created(scenario.but(message_count=0), "one_hop") == []


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

    def test_run_single_closes_the_world_when_run_raises(self, monkeypatch):
        from repro.experiments import runner

        built = []

        def fail() -> None:
            raise ValueError("mid-run failure")

        def build_failing_world(*args, **kwargs):
            world = build_world(*args, **kwargs)
            world.sim.schedule(2.0, fail)
            built.append(world)
            return world

        monkeypatch.setattr(runner, "build_world", build_failing_world)
        scenario = Scenario(message_count=5, sim_time=10.0)
        with pytest.raises(ValueError, match="mid-run failure"):
            run_single(scenario, "glr")
        [world] = built
        assert world.sim.pending_events() == 0
        with pytest.raises(RuntimeError, match="closed"):
            world.run(until=scenario.sim_time)

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
