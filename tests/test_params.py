"""Tests for repro.params: the one registry, parameter check, canonical
form, mapping parser and label that every config axis shares."""

from __future__ import annotations

import pytest

from repro.experiments.campaign import (
    CampaignSpec,
    ReplicateTask,
    campaign_spec_hash,
    task_key,
)
from repro.experiments.protocols import ProtocolConfig, as_protocol_config
from repro.experiments.scenarios import Scenario
from repro.mobility.registry import (
    MobilityConfig,
    as_mobility_config,
    register_model,
)
from repro.mobility.static import StaticMobility
from repro.params import (
    Registry,
    canonicalise_params,
    check_builder_params,
    config_label,
    split_config_mapping,
)
from repro.sim.adversary import (
    AdversaryConfig,
    as_adversary_config,
    register_adversary_mode,
)

TINY = Scenario(n_nodes=10, active_nodes=5, message_count=2, sim_time=15.0)


class TestRegistry:
    def make(self) -> Registry[str]:
        registry: Registry[str] = Registry("widget")
        registry.register("Round-Thing", "round", aliases=("ball", "orb"))
        registry.register("square", "square")
        return registry

    def test_names_normalise_and_aliases_resolve(self):
        registry = self.make()
        assert registry.names() == ["round_thing", "square"]
        assert registry.resolve("ROUND_thing") == "round_thing"
        assert registry.resolve("Ball") == "round_thing"
        assert registry["orb"] == "round"
        assert registry.aliases_of("round-thing") == ["ball", "orb"]
        assert registry.find("cube") is None

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(
            ValueError,
            match=r"unknown widget 'cube'; choose from \['round_thing', 'square'\]",
        ):
            self.make().resolve("cube")

    def test_direct_name_wins_over_alias_and_reregistering_replaces(self):
        registry = self.make()
        registry.register("ball", "a real ball")
        assert registry["ball"] == "a real ball"
        registry.register("square", "another square")
        assert registry["square"] == "another square"
        del registry.entries["ball"]
        assert registry.resolve("ball") == "round_thing"

    def test_alias_of_a_removed_entry_is_unknown(self):
        registry = self.make()
        del registry.entries["round_thing"]
        with pytest.raises(ValueError, match="unknown widget 'ball'"):
            registry.resolve("ball")


def _builder(nodes, region, seed, speed, fast: bool = False, label="x"):
    return None


class TestCheckBuilderParams:
    def test_returns_the_bool_parameters(self):
        assert check_builder_params("widget", "w", _builder, {"speed": 1}) == {
            "fast"
        }

    def test_leading_positionals_are_not_parameters(self):
        with pytest.raises(ValueError, match=r"does not accept parameters \['seed'\]"):
            check_builder_params("widget", "w", _builder, {"speed": 1, "seed": 2})

    def test_unknown_and_missing_names(self):
        with pytest.raises(
            ValueError,
            match=r"widget 'w' does not accept parameters \['sped'\]; "
            r"choose from \['fast', 'label', 'speed'\]",
        ):
            check_builder_params("widget", "w", _builder, {"sped": 1})
        with pytest.raises(
            ValueError, match=r"widget 'w' requires parameters \['speed'\]"
        ):
            check_builder_params("widget", "w", _builder, {"fast": True})

    def test_none_checks_nothing_and_kwargs_accept_anything(self):
        assert check_builder_params("widget", "w", _builder) == {"fast"}

        def loose(a, b, c, **params):
            return None

        assert check_builder_params("widget", "w", loose, {"any": 1}) == set()


class TestCanonicalForm:
    def test_sorted_pairs_and_integral_floats(self):
        assert canonicalise_params({"b": 2.0, "a": 0.5, "c": "s"}) == (
            ("a", 0.5), ("b", 2), ("c", "s"),
        )

    def test_the_bool_rule(self):
        flags = {"flag"}
        assert canonicalise_params({"flag": 1, "n": True}, flags) == (
            ("flag", True), ("n", 1),
        )
        assert canonicalise_params({"flag": 0.0, "n": False}, flags) == (
            ("flag", False), ("n", 0),
        )
        for bad in (2, 0.5, "no"):
            with pytest.raises(ValueError, match="'flag' of 'thing' is boolean"):
                canonicalise_params({"flag": bad}, flags, "thing")

    def test_names_and_values_are_checked(self):
        with pytest.raises(ValueError, match="must be a string"):
            canonicalise_params({1: 2})
        with pytest.raises(ValueError, match="must be a scalar"):
            canonicalise_params({"a": [1]})


class TestMappingAndLabel:
    def test_params_under_params_or_inline(self):
        assert split_config_mapping(
            {"model": "rpgm", "params": {"n": 5}}, "mobility", "model"
        ) == (["rpgm"], {"n": 5})
        assert split_config_mapping(
            {"mode": "m", "fraction": 0.2, "n": 5}, "adversary", "mode", "fraction"
        ) == (["m", 0.2], {"n": 5})

    def test_each_axis_keeps_its_wording(self):
        with pytest.raises(ValueError, match="adversary mapping needs a 'fraction' key"):
            split_config_mapping({"mode": "m"}, "adversary", "mode", "fraction")
        with pytest.raises(
            ValueError, match=r"unexpected protocol keys \['n'\] next to 'params'"
        ):
            split_config_mapping(
                {"protocol": "glr", "params": {}, "n": 1}, "protocol", "protocol"
            )
        with pytest.raises(ValueError, match="mobility 'params' must be a mapping, got int"):
            split_config_mapping({"model": "rwp", "params": 5}, "mobility", "model")

    def test_label(self):
        assert config_label("glr", ()) == "glr"
        assert config_label("glr", (("a", 1), ("b", True))) == "glr(a=1,b=True)"


class TestOneBoolRuleOnEveryAxis:
    """``True == 1`` in Python, so a bool given for a numeric parameter
    must encode as the int on every axis: one ``to_json()``, one label
    and one task key for both spellings."""

    @staticmethod
    def key(scenario: Scenario) -> str:
        return task_key(ReplicateTask(scenario, "glr", 0))

    def test_mobility_bool_for_a_numeric_parameter(self):
        spelled_bool = as_mobility_config({"model": "rpgm", "n_groups": True})
        spelled_int = as_mobility_config({"model": "rpgm", "n_groups": 1})
        assert spelled_bool.to_json() == spelled_int.to_json() == {
            "model": "rpgm", "params": {"n_groups": 1},
        }
        assert str(spelled_bool) == str(spelled_int) == "rpgm(n_groups=1)"
        assert self.key(TINY.but(mobility=spelled_bool)) == self.key(
            TINY.but(mobility=spelled_int)
        )
        assert MobilityConfig.of("rpgm", n_groups=True).params == (
            ("n_groups", 1),
        )

    def test_adversary_bool_for_a_numeric_parameter(self):
        spelled_bool = as_adversary_config(
            {"mode": "selective_drop", "fraction": 0.3, "drop_rate": True}
        )
        spelled_int = as_adversary_config("selective_drop:0.3:drop_rate=1")
        assert spelled_bool.to_json() == spelled_int.to_json() == {
            "mode": "selective_drop", "fraction": 0.3,
            "params": {"drop_rate": 1},
        }
        assert str(spelled_bool) == str(spelled_int) == (
            "selective_drop:0.3:drop_rate=1"
        )
        assert self.key(TINY.but(adversary=spelled_bool)) == self.key(
            TINY.but(adversary=spelled_int)
        )

    def test_spec_hash_and_cell_labels(self):
        def spec(n_groups):
            return CampaignSpec(
                name="bools",
                base=TINY,
                grid=(
                    ("mobility", ({"model": "rpgm", "n_groups": n_groups},)),
                    ("adversary", (AdversaryConfig.of(
                        "selective_drop", 0.3, drop_rate=n_groups),)),
                ),
                replicates=1,
            )

        assert campaign_spec_hash(spec(True)) == campaign_spec_hash(spec(1))
        assert [label for label, _ in spec(True).cell_specs()] == [
            label for label, _ in spec(1).cell_specs()
        ]

    def test_protocol_bool_field_reads_the_bool(self):
        config = ProtocolConfig.of("glr", custody=1)
        assert config.params == (("custody", True),)
        assert str(config) == "glr(custody=True)"
        assert config == as_protocol_config({"protocol": "glr", "custody": True})
        with pytest.raises(ValueError, match="is boolean"):
            ProtocolConfig.of("glr", custody=2)

    def test_a_builder_declared_bool_takes_zero_and_one(self):
        def build_mobility(ids, region, seed, frozen: bool = False):
            return StaticMobility.uniform(ids, region, seed)

        def build_mode(inner, node_id, rng, loud: bool = False):
            return inner

        from repro.mobility import registry as mobility_registry
        from repro.sim import adversary as adversary_module

        register_model("test_frozen", build_mobility)
        register_adversary_mode("test_loud", build_mode)
        try:
            assert as_mobility_config(
                {"model": "test_frozen", "frozen": 1}
            ).params == (("frozen", True),)
            assert as_adversary_config("test_loud:0.5:loud=0").params == (
                ("loud", False),
            )
            with pytest.raises(ValueError, match="is boolean"):
                as_mobility_config({"model": "test_frozen", "frozen": 2})
            with pytest.raises(ValueError, match="is boolean"):
                as_adversary_config("test_loud:0.5:loud=0.5")
        finally:
            mobility_registry._MODELS.entries.pop("test_frozen", None)
            adversary_module._MODES.entries.pop("test_loud", None)
