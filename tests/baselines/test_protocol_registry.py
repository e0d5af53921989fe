"""Tests for the protocol registry and the unified config API."""

import pytest

from repro.baselines.direct import DirectDeliveryProtocol
from repro.baselines.epidemic import EpidemicConfig, EpidemicProtocol
from repro.baselines.one_hop import OneHopProtocol
from repro.baselines.registry import (
    available_protocols,
    protocol_entry,
    protocol_factory,
    register_protocol,
    resolve_config,
    resolve_protocol,
)
from repro.core.protocol import GLRConfig, GLRProtocol
from repro.experiments.protocols import ProtocolConfig, sweepable_protocols
from repro.experiments.runner import resolve_run_config, run_single
from repro.experiments.scenarios import Scenario
from tests.conftest import run_concrete

SMALL = Scenario(
    n_nodes=12,
    active_nodes=8,
    message_count=16,
    sim_time=60.0,
    seed=11,
)


class TestRegistry:
    def test_builtins_present(self):
        assert {
            "glr",
            "epidemic",
            "epidemic_receipts",
            "spray_and_wait",
            "one_hop",
            "direct",
            "first_contact",
        } <= set(available_protocols())

    def test_aliases(self):
        assert resolve_protocol("snw") == "spray_and_wait"
        assert resolve_protocol("spray") == "spray_and_wait"
        assert resolve_protocol("onehop") == "one_hop"
        assert resolve_protocol("One-Hop") == "one_hop"

    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            resolve_protocol("carrier-pigeon")

    def test_sweepable_protocols_derive_from_registry(self):
        assert sweepable_protocols() == available_protocols()

    def test_register_buffer_field_must_exist(self):
        with pytest.raises(ValueError, match="has no field"):
            register_protocol(
                "test_bad",
                lambda config, buffer_limit: None,
                config_class=EpidemicConfig,
                buffer_field="nonexistent",
            )

    def test_register_buffer_field_requires_config_class(self):
        with pytest.raises(ValueError, match="requires a config_class"):
            register_protocol(
                "test_bad",
                lambda config, buffer_limit: None,
                buffer_field="buffer_limit",
            )

    def test_registration_makes_protocol_sweepable(self):
        from repro.baselines.registry import _PROTOCOLS

        register_protocol(
            "test_proto",
            lambda config, buffer_limit: EpidemicProtocol(config),
            config_class=EpidemicConfig,
            buffer_field="buffer_limit",
            aliases=("tp",),
        )
        try:
            assert "test_proto" in available_protocols()
            assert "test_proto" in sweepable_protocols()
            assert resolve_protocol("tp") == "test_proto"
            config = ProtocolConfig.of("test_proto", tick_interval=2.0)
            assert isinstance(config.build(), EpidemicConfig)
        finally:
            _PROTOCOLS.entries.pop("test_proto", None)
            _PROTOCOLS.aliases.pop("tp", None)


class TestBufferFallback:
    """The per-protocol buffer_limit fallback is hoisted into one place."""

    def test_fills_unset_field(self):
        config = resolve_config("epidemic", None, buffer_limit=5)
        assert config.buffer_limit == 5
        config = resolve_config("glr", None, buffer_limit=7)
        assert config.storage_limit == 7
        config = resolve_config("one_hop", None, buffer_limit=3)
        assert config.buffer_limit == 3

    def test_explicit_config_value_wins(self):
        config = resolve_config(
            "epidemic", EpidemicConfig(buffer_limit=2), buffer_limit=5
        )
        assert config.buffer_limit == 2

    def test_none_limit_leaves_default(self):
        assert resolve_config("epidemic").buffer_limit is None
        assert resolve_config("glr").storage_limit is None

    def test_parameterless_protocol_rejects_config(self):
        with pytest.raises(ValueError, match="takes no config"):
            resolve_config("direct", EpidemicConfig())

    def test_wrong_config_type_rejected(self):
        with pytest.raises(ValueError, match="expects a"):
            resolve_config("epidemic", GLRConfig())


class TestFactory:
    def test_builds_correct_classes(self):
        assert isinstance(protocol_factory("glr")(0), GLRProtocol)
        assert isinstance(protocol_factory("epidemic")(0), EpidemicProtocol)
        assert isinstance(protocol_factory("one_hop")(0), OneHopProtocol)
        assert isinstance(
            protocol_factory("direct", buffer_limit=4)(0),
            DirectDeliveryProtocol,
        )

    def test_factory_resolves_config_once(self):
        factory = protocol_factory("epidemic", buffer_limit=9)
        a, b = factory(0), factory(1)
        assert a is not b
        assert a.config is b.config
        assert a.config.buffer_limit == 9

    def test_entry_exposes_metadata(self):
        entry = protocol_entry("glr")
        assert entry.config_class is GLRConfig
        assert entry.buffer_field == "storage_limit"


class TestLegacyShimParity:
    """Every spelling of a protocol config builds the same run."""

    def test_declarative_config_must_match_protocol(self):
        with pytest.raises(ValueError, match="requests"):
            resolve_run_config(
                "epidemic", protocol_config=ProtocolConfig.of("glr")
            )

    def test_declarative_config_builds(self):
        config = resolve_run_config(
            "glr", protocol_config=ProtocolConfig.of("glr", custody=False)
        )
        assert isinstance(config, GLRConfig)
        assert config.custody is False

    @pytest.mark.parametrize(
        "protocol",
        [
            "glr",
            "epidemic",
            "epidemic_receipts",
            "spray_and_wait",
            "one_hop",
            "direct",
            "first_contact",
        ],
    )
    def test_every_protocol_runs_through_registry(self, protocol):
        metrics = run_single(SMALL, protocol)
        assert metrics.protocol == protocol
        # Default-config spelling parity: None and a default-constructed
        # concrete config build the same world.
        entry = protocol_entry(protocol)
        if entry.config_class is not None:
            explicit = run_concrete(SMALL, protocol, entry.config_class())
            assert explicit == metrics
