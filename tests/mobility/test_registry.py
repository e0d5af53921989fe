"""Tests for the mobility registry and MobilityConfig."""

import pytest

from repro.mobility import (
    GaussMarkovMobility,
    ManhattanGridMobility,
    MobilityConfig,
    RandomWalkMobility,
    RandomWaypointMobility,
    ReferencePointGroupMobility,
    StaticMobility,
    TraceMobility,
    as_mobility_config,
    available_models,
    build_mobility,
    register_model,
    save_ns2_trace,
)
from repro.mobility.base import MobilityModel, Region


class TestMobilityConfig:
    def test_model_name_normalized(self):
        assert MobilityConfig("Gauss-Markov").model == "gauss_markov"
        assert MobilityConfig.of("RWP").model == "rwp"

    def test_params_sorted_for_stable_hash(self):
        a = MobilityConfig.of("rpgm", n_groups=2, group_radius=40.0)
        b = MobilityConfig.of("rpgm", group_radius=40.0, n_groups=2)
        assert a == b
        assert hash(a) == hash(b)

    def test_integral_floats_normalize_to_ints(self):
        # 40 vs 40.0 (Python literal vs JSON spec) must canonicalise to
        # one representation, or cache keys silently diverge.
        a = MobilityConfig.of("rpgm", group_radius=40)
        b = MobilityConfig.of("rpgm", group_radius=40.0)
        assert a == b
        assert a.params == b.params == (("group_radius", 40),)
        # Non-integral floats are untouched.
        c = MobilityConfig.of("gauss_markov", alpha=0.75)
        assert c.params == (("alpha", 0.75),)

    def test_params_accept_pair_sequences(self):
        # dataclasses.asdict round trips params as pair lists.
        a = MobilityConfig(model="rpgm", params=(("n_groups", 2),))
        b = MobilityConfig.of("rpgm", n_groups=2)
        assert a == b

    def test_rejects_non_scalar_params(self):
        with pytest.raises(ValueError):
            MobilityConfig.of("rwp", speeds=[1.0, 2.0])

    def test_rejects_empty_model(self):
        with pytest.raises(ValueError):
            MobilityConfig("")

    def test_str_forms(self):
        assert str(MobilityConfig.of("manhattan")) == "manhattan"
        assert (
            str(MobilityConfig.of("rpgm", n_groups=5))
            == "rpgm(n_groups=5)"
        )

    def test_json_round_trip(self):
        cfg = MobilityConfig.of("gauss_markov", alpha=0.9)
        assert as_mobility_config(cfg.to_json()) == cfg


class TestAsMobilityConfig:
    def test_none_passes_through(self):
        assert as_mobility_config(None) is None

    def test_string_form(self):
        assert as_mobility_config("gauss-markov") == MobilityConfig.of(
            "gauss_markov"
        )

    def test_mapping_with_params_key(self):
        cfg = as_mobility_config(
            {"model": "rpgm", "params": {"n_groups": 5}}
        )
        assert cfg == MobilityConfig.of("rpgm", n_groups=5)

    def test_mapping_with_inline_params(self):
        cfg = as_mobility_config({"model": "manhattan", "blocks_x": 3})
        assert cfg == MobilityConfig.of("manhattan", blocks_x=3)

    def test_mapping_rejects_mixed_forms(self):
        with pytest.raises(ValueError):
            as_mobility_config(
                {"model": "rpgm", "params": {}, "n_groups": 5}
            )

    def test_mapping_without_model_rejected(self):
        with pytest.raises(ValueError):
            as_mobility_config({"params": {}})

    def test_non_mapping_params_rejected(self):
        # A malformed JSON spec must produce the CLI's clean exit-2
        # ValueError path, not a raw TypeError traceback.
        with pytest.raises(ValueError, match="must be a mapping"):
            as_mobility_config({"model": "rwp", "params": 5})
        with pytest.raises(ValueError, match="must be a mapping"):
            as_mobility_config({"model": "rwp", "params": "fast"})

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown mobility model"):
            as_mobility_config("teleport")

    def test_builder_positionals_counted_not_named(self):
        # Third-party builders may name their runner-supplied leading
        # params anything; only params past the first three are config.
        from repro.mobility import registry

        register_model(
            "oddly_named", lambda ids, reg, s, wobble=1.0: StaticMobility.uniform(ids, reg, 1)
        )
        try:
            cfg = as_mobility_config("oddly-named")  # no required params
            assert cfg.params == ()
            as_mobility_config({"model": "oddly_named", "wobble": 2.0})
            with pytest.raises(ValueError, match="does not accept"):
                as_mobility_config({"model": "oddly_named", "bogus": 1})
        finally:
            registry._MODELS.entries.pop("oddly_named", None)

    def test_missing_required_params_fail_at_coercion_time(self):
        # trace without a path must die at spec load, not mid-campaign.
        with pytest.raises(ValueError, match="requires parameters"):
            as_mobility_config("trace")
        with pytest.raises(ValueError, match=r"\['path'\]"):
            as_mobility_config({"model": "trace"})
        as_mobility_config({"model": "trace", "path": "x.tcl"})

    def test_typoed_params_fail_at_coercion_time(self):
        # A bad campaign spec must die at load, not mid-campaign in a
        # worker process.
        with pytest.raises(ValueError, match="does not accept"):
            as_mobility_config({"model": "rpgm", "n_group": 5})
        with pytest.raises(ValueError, match="alhpa"):
            as_mobility_config({"model": "gauss_markov", "alhpa": 0.5})
        with pytest.raises(ValueError, match="does not accept"):
            as_mobility_config({"model": "static", "speed": 3.0})
        # Valid params still pass.
        as_mobility_config({"model": "rpgm", "n_groups": 5})

    def test_alias_resolves_to_canonical(self):
        assert as_mobility_config("rwp").model == "random_waypoint"
        assert as_mobility_config("group").model == "rpgm"

    def test_unsupported_type_rejected(self):
        with pytest.raises(ValueError):
            as_mobility_config(42)


class TestBuildMobility:
    REGION = Region(400.0, 200.0)
    NODES = list(range(8))

    @pytest.mark.parametrize("name,expected_cls", [
        ("random_waypoint", RandomWaypointMobility),
        ("rwp", RandomWaypointMobility),
        ("random_walk", RandomWalkMobility),
        ("gauss_markov", GaussMarkovMobility),
        ("gauss-markov", GaussMarkovMobility),
        ("rpgm", ReferencePointGroupMobility),
        ("manhattan", ManhattanGridMobility),
        ("static", StaticMobility),
    ])
    def test_builds_every_registered_model(self, name, expected_cls):
        model = build_mobility(
            as_mobility_config(name), self.NODES, self.REGION, seed=3
        )
        assert isinstance(model, expected_cls)
        assert model.node_ids == self.NODES
        p = model.position(0, 10.0)
        assert self.REGION.contains(p)

    def test_params_reach_the_model(self):
        cfg = MobilityConfig.of("rpgm", n_groups=2, group_radius=25.0)
        model = build_mobility(cfg, self.NODES, self.REGION, seed=3)
        assert model.n_groups == 2
        assert model.group_radius == 25.0

    def test_bad_params_raise_value_error(self):
        cfg = MobilityConfig.of("manhattan", warp_factor=9)
        with pytest.raises(ValueError, match="bad parameters"):
            build_mobility(cfg, self.NODES, self.REGION, seed=3)

    def test_deterministic_across_builds(self):
        cfg = MobilityConfig.of("gauss_markov")
        a = build_mobility(cfg, self.NODES, self.REGION, seed=5)
        b = build_mobility(cfg, self.NODES, self.REGION, seed=5)
        for t in (0.0, 33.3, 240.0):
            assert a.position(3, t) == b.position(3, t)

    def test_custom_registration(self):
        class Pinned(MobilityModel):
            def __init__(self, node_ids, region, seed):
                super().__init__(node_ids, region)

            def position(self, node, t):
                self.validate_time(t)
                from repro.geometry.primitives import Point

                return Point(1.0, 1.0)

        register_model("pinned_test_model", Pinned)
        try:
            assert "pinned_test_model" in available_models()
            model = build_mobility(
                as_mobility_config("pinned-test-model"),
                self.NODES,
                self.REGION,
                seed=1,
            )
            assert model.position(0, 5.0).x == 1.0
        finally:
            from repro.mobility import registry

            registry._MODELS.entries.pop("pinned_test_model", None)

    def test_registration_shadows_builtin_alias(self):
        """A direct registration under an alias name must win over the
        alias ("grid" normally aliases manhattan)."""
        from repro.mobility import registry

        class Shadow(StaticMobility):
            @classmethod
            def build(cls, node_ids, region, seed):
                return cls.uniform(node_ids, region, seed)

        register_model("grid", Shadow.build)
        try:
            model = build_mobility(
                as_mobility_config("grid"), self.NODES, self.REGION, seed=1
            )
            assert isinstance(model, Shadow)
        finally:
            registry._MODELS.entries.pop("grid", None)
        # With the shadow gone the alias resolves to manhattan again.
        assert as_mobility_config("grid").model == "manhattan"


class TestTraceBuilder:
    def test_trace_model_from_exported_file(self, tmp_path):
        region = Region(400.0, 200.0)
        source = RandomWaypointMobility(list(range(6)), region, seed=9)
        path = tmp_path / "scenario.tcl"
        save_ns2_trace(source, path, until=60.0)
        model = build_mobility(
            MobilityConfig.of("trace", path=str(path)),
            list(range(6)),
            region,
            seed=1,
        )
        assert isinstance(model, TraceMobility)
        for node in range(6):
            a = source.position(node, 30.0)
            b = model.position(node, 30.0)
            assert a.distance_to(b) < 0.5

    def test_trace_restricted_to_scenario_nodes(self, tmp_path):
        region = Region(400.0, 200.0)
        source = RandomWaypointMobility(list(range(6)), region, seed=9)
        path = tmp_path / "scenario.tcl"
        save_ns2_trace(source, path, until=30.0)
        model = build_mobility(
            MobilityConfig.of("trace", path=str(path)),
            [0, 1, 2],
            region,
            seed=1,
        )
        assert model.node_ids == [0, 1, 2]

    def test_trace_missing_nodes_rejected(self, tmp_path):
        region = Region(400.0, 200.0)
        source = RandomWaypointMobility([0, 1], region, seed=9)
        path = tmp_path / "scenario.tcl"
        save_ns2_trace(source, path, until=30.0)
        with pytest.raises(ValueError, match="no trajectory"):
            build_mobility(
                MobilityConfig.of("trace", path=str(path)),
                list(range(5)),
                region,
                seed=1,
            )

    def test_trace_without_path_rejected(self):
        with pytest.raises(ValueError, match="path"):
            build_mobility(
                MobilityConfig.of("trace"), [0, 1], Region(10, 10), seed=1
            )
