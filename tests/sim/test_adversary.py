"""Tests for Byzantine adversary injection (repro.sim.adversary)."""

import pytest

from repro.experiments.runner import build_world, run_replicates, run_single
from repro.experiments.scenarios import Scenario
from repro.seeding import replicate_seed
from repro.sim.adversary import (
    AdversaryConfig,
    AdversaryPlan,
    BlackholeWrapper,
    LocationLyingWrapper,
    SelectiveDropWrapper,
    adversary_node_set,
    as_adversary_config,
    available_adversary_modes,
    build_adversary_plan,
    register_adversary_mode,
    resolve_adversary_mode,
)

SMALL = Scenario(
    n_nodes=20,
    active_nodes=10,
    message_count=30,
    sim_time=120.0,
    seed=7,
)


class TestAdversaryConfig:
    def test_builtin_modes_registered(self):
        assert {"blackhole", "selective_drop", "location_lying"} <= set(
            available_adversary_modes()
        )

    def test_aliases_resolve(self):
        assert resolve_adversary_mode("greyhole") == "selective_drop"
        assert resolve_adversary_mode("grayhole") == "selective_drop"
        assert resolve_adversary_mode("liar") == "location_lying"
        assert resolve_adversary_mode("sink") == "blackhole"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown adversary mode"):
            AdversaryConfig.of("wormhole", 0.2)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            AdversaryConfig.of("blackhole", -0.1)
        with pytest.raises(ValueError, match="fraction"):
            AdversaryConfig.of("blackhole", 1.5)
        with pytest.raises(ValueError, match="fraction"):
            AdversaryConfig.of("blackhole", 0.0)

    def test_integral_fraction_canonicalises(self):
        assert AdversaryConfig.of("blackhole", 1.0) == AdversaryConfig.of(
            "blackhole", 1
        )

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            AdversaryConfig.of("blackhole", 0.2, drop_rate=0.5)

    def test_str_round_trips(self):
        config = AdversaryConfig.of("selective_drop", 0.4, drop_rate=0.8)
        assert as_adversary_config(str(config)) == config
        bare = AdversaryConfig.of("blackhole", 0.2)
        assert as_adversary_config(str(bare)) == bare

    def test_coercion_forms(self):
        from_str = as_adversary_config("blackhole:0.2")
        from_map = as_adversary_config({"mode": "blackhole", "fraction": 0.2})
        from_cfg = as_adversary_config(AdversaryConfig.of("blackhole", 0.2))
        assert from_str == from_map == from_cfg

    def test_zero_fraction_coerces_to_none(self):
        assert as_adversary_config(None) is None
        assert as_adversary_config("none") is None
        assert as_adversary_config("off") is None
        assert as_adversary_config("blackhole:0") is None
        assert (
            as_adversary_config({"mode": "blackhole", "fraction": 0}) is None
        )

    def test_bad_strings_rejected(self):
        with pytest.raises(ValueError, match="needs a fraction"):
            as_adversary_config("blackhole")
        with pytest.raises(ValueError, match="bad adversary fraction"):
            as_adversary_config("blackhole:lots")
        with pytest.raises(ValueError, match="key=value"):
            as_adversary_config("selective_drop:0.2:droprate")

    def test_to_json_round_trips(self):
        config = AdversaryConfig.of("selective_drop", 0.4, drop_rate=0.8)
        assert as_adversary_config(config.to_json()) == config

    def test_register_custom_mode(self):
        register_adversary_mode(
            "test_noop", lambda inner, node_id, rng: inner
        )
        try:
            assert "test_noop" in available_adversary_modes()
            assert (
                AdversaryConfig.of("test_noop", 0.5).mode == "test_noop"
            )
        finally:
            from repro.sim import adversary as mod

            mod._MODES.entries.pop("test_noop", None)

    def test_bool_params_round_trip(self):
        from repro.cli import _build_parser
        from repro.sim import adversary as mod

        def loud_builder(inner, node_id, rng, loud: bool = False, rate: float = 0.5):
            return inner

        register_adversary_mode("test_loud", loud_builder)
        try:
            config = AdversaryConfig.of("test_loud", 0.5, loud=True, rate=0.25)
            assert str(config) == "test_loud:0.5:loud=True,rate=0.25"
            assert as_adversary_config(str(config)) == config
            assert as_adversary_config(
                "test_loud:0.5:loud=FALSE"
            ) == AdversaryConfig.of("test_loud", 0.5, loud=False)
            with pytest.raises(ValueError, match="bad adversary parameter value"):
                as_adversary_config("test_loud:0.5:rate=fast")
            spelled = "test_loud:0.5:loud=true,rate=0.25"
            args = _build_parser().parse_args(["run", "--adversary", spelled])
            assert as_adversary_config(args.adversary) == config
        finally:
            mod._MODES.entries.pop("test_loud", None)


class TestNodeSelection:
    def test_fraction_scales_count(self):
        config = AdversaryConfig.of("blackhole", 0.2)
        nodes = adversary_node_set(config, list(range(50)), seed=1)
        assert len(nodes) == 10
        assert nodes <= set(range(50))

    def test_same_seed_same_set(self):
        config = AdversaryConfig.of("blackhole", 0.3)
        ids = list(range(40))
        assert adversary_node_set(config, ids, 5) == adversary_node_set(
            config, ids, 5
        )

    def test_different_seed_usually_different_set(self):
        config = AdversaryConfig.of("blackhole", 0.3)
        ids = list(range(40))
        sets = {
            frozenset(adversary_node_set(config, ids, s)) for s in range(8)
        }
        assert len(sets) > 1

    def test_selection_ignores_input_order(self):
        config = AdversaryConfig.of("blackhole", 0.25)
        ids = list(range(40))
        assert adversary_node_set(config, ids, 3) == adversary_node_set(
            config, list(reversed(ids)), 3
        )

    def test_full_fraction_compromises_everyone(self):
        config = AdversaryConfig.of("blackhole", 1.0)
        assert adversary_node_set(config, list(range(10)), 1) == set(
            range(10)
        )

    def test_build_plan_none_passthrough(self):
        assert build_adversary_plan(None, list(range(10)), 1) is None

    def test_plan_carries_selection(self):
        config = AdversaryConfig.of("blackhole", 0.2)
        plan = build_adversary_plan(config, list(range(50)), 9)
        assert isinstance(plan, AdversaryPlan)
        assert plan.nodes == adversary_node_set(config, list(range(50)), 9)


class TestWorldWiring:
    def test_world_wraps_exactly_the_selected_nodes(self):
        scenario = SMALL.but(adversary="blackhole:0.25")
        world = build_world(scenario, "epidemic")
        expected = adversary_node_set(
            scenario.adversary, list(range(scenario.n_nodes)), scenario.seed
        )
        assert set(world.adversaries) == expected
        for node, wrapper in world.adversaries.items():
            assert isinstance(wrapper, BlackholeWrapper)
            assert world.protocols[node] is wrapper

    def test_honest_world_has_no_wrappers(self):
        world = build_world(SMALL, "epidemic")
        assert world.adversary is None
        assert world.adversaries == {}

    def test_wrapper_delegates_storage_metrics(self):
        scenario = SMALL.but(adversary="selective_drop:0.25")
        world = build_world(scenario, "epidemic")
        world.run(until=60.0, protocol_name="epidemic")
        for wrapper in world.adversaries.values():
            assert wrapper.storage_occupancy() == (
                wrapper.inner.storage_occupancy()
            )
            assert wrapper.storage_peak() == wrapper.inner.storage_peak()

    def test_blackhole_swallows_frames(self):
        scenario = SMALL.but(adversary="blackhole:0.25")
        world = build_world(scenario, "epidemic")
        world.run(until=120.0, protocol_name="epidemic")
        assert sum(
            w.frames_dropped for w in world.adversaries.values()
        ) > 0

    def test_location_lying_poisons_data(self):
        scenario = SMALL.but(adversary="location_lying:0.25")
        world = build_world(scenario, "glr")
        world.run(until=120.0, protocol_name="glr")
        assert isinstance(
            next(iter(world.adversaries.values())), LocationLyingWrapper
        )
        assert sum(
            w.frames_poisoned for w in world.adversaries.values()
        ) > 0

    def test_selective_drop_is_partial(self):
        scenario = SMALL.but(
            adversary="selective_drop:0.25:drop_rate=0.5"
        )
        world = build_world(scenario, "epidemic")
        world.run(until=120.0, protocol_name="epidemic")
        wrappers = list(world.adversaries.values())
        assert all(isinstance(w, SelectiveDropWrapper) for w in wrappers)
        assert sum(w.frames_dropped for w in wrappers) > 0
        # Control traffic passes, so the inner protocols still hold
        # messages they requested through summaries.
        assert any(w.inner.storage_peak() > 0 for w in wrappers)


class TestAdversarialDeterminism:
    """The adversary axis must not break the parallel == serial law."""

    def test_same_seed_same_metrics(self):
        scenario = SMALL.but(adversary="blackhole:0.3")
        a = run_single(scenario, "epidemic")
        b = run_single(scenario, "epidemic")
        assert a == b

    def test_serial_parallel_equivalence(self):
        scenario = SMALL.but(adversary="selective_drop:0.3")
        serial = run_replicates(scenario, "epidemic", runs=3, workers=1)
        parallel = run_replicates(scenario, "epidemic", runs=3, workers=2)
        assert serial == parallel

    def test_replicates_use_replicate_seed_selection(self):
        scenario = SMALL.but(adversary="blackhole:0.3")
        ids = list(range(scenario.n_nodes))
        for i in range(3):
            replicate = scenario.with_seed(replicate_seed(scenario.seed, i))
            world = build_world(replicate, "epidemic")
            assert set(world.adversaries) == adversary_node_set(
                scenario.adversary, ids, replicate.seed
            )

    def test_delivery_degrades_under_blackhole(self):
        honest = run_single(SMALL, "epidemic")
        attacked = run_single(
            SMALL.but(adversary="blackhole:0.3"), "epidemic"
        )
        assert attacked.delivery_ratio < honest.delivery_ratio


class TestScenarioField:
    def test_scenario_coerces_adversary_strings(self):
        scenario = Scenario(adversary="blackhole:0.2")
        assert scenario.adversary == AdversaryConfig.of("blackhole", 0.2)

    def test_scenario_zero_fraction_is_none(self):
        assert Scenario(adversary="blackhole:0").adversary is None
        assert Scenario(adversary="blackhole:0") == Scenario()

    def test_but_replaces_adversary(self):
        scenario = Scenario().but(adversary="liar:0.1")
        assert scenario.adversary.mode == "location_lying"
        assert scenario.but(adversary=None).adversary is None

    def test_wrapped_protocol_keeps_inner_name(self):
        scenario = SMALL.but(adversary="blackhole:0.25")
        world = build_world(scenario, "epidemic")
        for wrapper in world.adversaries.values():
            assert wrapper.name == "epidemic"
