"""Property-style tests for the protocol-config sweep axis.

The campaign protocol axis hinges on two properties: bad configs fail
at *spec load* (never inside a worker mid-campaign), and equal configs
produce equal cache keys regardless of construction order, value
spelling (int vs integral float), or process.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.baselines.epidemic import EpidemicConfig
from repro.baselines.receipts import ReceiptMode
from repro.baselines.spray_and_wait import SprayAndWaitConfig
from repro.cli import _build_parser, _campaign_spec_from_args, main
from repro.core.location import LocationMode
from repro.core.protocol import GLRConfig
from repro.experiments import campaign as campaign_module
from repro.experiments.campaign import (
    CampaignSpec,
    ReplicateTask,
    campaign_spec_hash,
    task_key,
    task_payload,
)
from repro.experiments.protocols import (
    ProtocolConfig,
    as_protocol_config,
    sweepable_params,
    sweepable_protocols,
)
from repro.experiments.runner import available_protocols, run_single
from repro.experiments.scenarios import Scenario
from tests.conftest import run_concrete

TINY = Scenario(
    name="tiny",
    n_nodes=10,
    active_nodes=5,
    radius=150.0,
    message_count=2,
    sim_time=15.0,
    seed=3,
)


class TestRegistry:
    def test_axis_covers_every_runner_protocol(self):
        assert sweepable_protocols() == sorted(available_protocols())

    def test_sweepable_params_match_config_dataclasses(self):
        assert "check_interval" in sweepable_params("glr")
        assert "custody" in sweepable_params("glr")
        assert "anti_entropy_interval" in sweepable_params("epidemic")
        assert "initial_copies" in sweepable_params("spray_and_wait")
        assert sweepable_params("direct") == []
        assert sweepable_params("first_contact") == []


class TestCoercion:
    def test_from_string_and_mapping_and_config_agree(self):
        a = as_protocol_config("glr")
        b = as_protocol_config({"protocol": "glr"})
        c = as_protocol_config(ProtocolConfig.of("glr"))
        assert a == b == c

    def test_params_inline_or_nested(self):
        inline = as_protocol_config({"protocol": "glr", "custody": False})
        nested = as_protocol_config(
            {"protocol": "glr", "params": {"custody": False}}
        )
        assert inline == nested

    def test_name_normalisation(self):
        assert ProtocolConfig.of("  GLR ").protocol == "glr"
        assert (
            ProtocolConfig.of("Spray-And-Wait").protocol == "spray_and_wait"
        )

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            ProtocolConfig.of("warp_drive")

    def test_rejects_mapping_without_protocol_key(self):
        with pytest.raises(ValueError, match="'protocol' key"):
            as_protocol_config({"params": {}})

    def test_rejects_extra_keys_next_to_params(self):
        with pytest.raises(ValueError, match="unexpected protocol keys"):
            as_protocol_config(
                {"protocol": "glr", "params": {}, "custody": False}
            )

    def test_rejects_non_mapping_input(self):
        with pytest.raises(ValueError, match="cannot interpret"):
            as_protocol_config(42)


class TestValidationAtSpecLoad:
    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            ProtocolConfig.of("glr", chek_interval=0.9)

    def test_bad_value_rejected_by_config_validation(self):
        with pytest.raises(ValueError, match="check interval"):
            ProtocolConfig.of("glr", check_interval=-1.0)
        with pytest.raises(ValueError, match="initial_copies"):
            ProtocolConfig.of("spray_and_wait", initial_copies=0)

    def test_wrongly_typed_value_reported_as_bad_value(self):
        # A string where the config compares numbers must read as a
        # bad *value*, not as an unknown parameter name.
        with pytest.raises(ValueError, match="bad parameter value"):
            ProtocolConfig.of("glr", check_interval="0.9s")
        with pytest.raises(ValueError, match="bad parameter value"):
            ProtocolConfig.of("epidemic", anti_entropy_interval="fast")

    def test_configless_protocols_take_no_params(self):
        with pytest.raises(ValueError, match="takes no config"):
            ProtocolConfig.of("direct", buffer_limit=5)
        with pytest.raises(ValueError, match="takes no config"):
            ProtocolConfig.of("first_contact", anything=1)

    def test_non_scalar_value_rejected(self):
        with pytest.raises(ValueError, match="must be a scalar"):
            ProtocolConfig.of("glr", custody=[True])

    def test_non_string_param_name_rejected(self):
        with pytest.raises(ValueError, match="must be a string"):
            ProtocolConfig(protocol="glr", params=((1, 2),))


class TestEnumParams:
    """An enum field takes a member or its value at every entry point
    and stores the value.  Specs are built or parsed here; nothing
    runs."""

    CASES = pytest.mark.parametrize(
        ("protocol", "field", "kind", "values"),
        [
            ("glr", "location_mode", LocationMode, ("oracle", "source", "none")),
            ("epidemic_receipts", "receipt_mode", ReceiptMode,
             ("active", "passive")),
        ],
    )

    @CASES
    def test_member_and_value_are_one_config(
        self, protocol, field, kind, values
    ):
        for value in values:
            by_member = ProtocolConfig.of(protocol, **{field: kind(value)})
            by_value = ProtocolConfig.of(protocol, **{field: value})
            assert by_member == by_value
            assert by_member.params == ((field, value),)
            assert self._key(by_member) == self._key(by_value)
            assert getattr(by_value.build(), field) is kind(value)

    @CASES
    def test_cli_builds_labelled_variants(self, protocol, field, kind, values):
        args = _build_parser().parse_args(
            [
                "campaign",
                "--protocols",
                protocol,
                "--protocol-param",
                f"{field}={values[0]},{values[-1]}",
            ]
        )
        spec = _campaign_spec_from_args(args)
        assert [str(config) for config in spec.protocols] == [
            f"{protocol}({field}={values[0]})",
            f"{protocol}({field}={values[-1]})",
        ]

    @CASES
    def test_json_spec_round_trips(self, protocol, field, kind, values):
        spec = CampaignSpec.from_dict(
            {
                "name": "enum",
                "protocols": [
                    {"protocol": protocol, "params": {field: values[-1]}}
                ],
            }
        )
        again = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert campaign_spec_hash(again) == campaign_spec_hash(spec)

    @CASES
    def test_unknown_value_exits_2_before_any_task(
        self, protocol, field, kind, values, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a task ran")

        monkeypatch.setattr(campaign_module, "run_single", refuse)
        assert main(
            [
                "campaign",
                "--protocols",
                protocol,
                "--protocol-param",
                f"{field}=psychic",
                "--quiet",
            ]
        ) == 2
        err = capsys.readouterr().err
        assert ", ".join(values) in err
        assert "psychic" in err

    def _key(self, config):
        return task_key(
            ReplicateTask(TINY, config.protocol, 0, protocol_config=config)
        )


class TestBuild:
    def test_builds_concrete_config_objects(self):
        assert ProtocolConfig.of(
            "glr", custody=False
        ).build() == GLRConfig(custody=False)
        assert ProtocolConfig.of(
            "epidemic", request_batch=4
        ).build() == EpidemicConfig(request_batch=4)
        assert ProtocolConfig.of(
            "spray_and_wait", initial_copies=4
        ).build() == SprayAndWaitConfig(initial_copies=4)
        assert ProtocolConfig.of("direct").build() is None

    def test_builds_receipts_config(self):
        from repro.baselines.receipts import ReceiptEpidemicConfig

        built = ProtocolConfig.of(
            "epidemic_receipts", buffer_limit=7
        ).build()
        assert built == ReceiptEpidemicConfig(buffer_limit=7)

    def test_label_formats(self):
        assert str(ProtocolConfig.of("glr")) == "glr"
        assert (
            str(ProtocolConfig.of("glr", custody=False, check_interval=1.8))
            == "glr(check_interval=1.8,custody=False)"
        )

    def test_to_json_round_trip(self):
        config = ProtocolConfig.of("glr", custody=False, sparse_copies=2)
        document = json.loads(json.dumps(config.to_json()))
        assert as_protocol_config(document) == config


class TestKeyStability:
    def _key(self, config):
        return task_key(
            ReplicateTask(TINY, config.protocol, 0, protocol_config=config)
        )

    def test_param_order_insensitive(self):
        a = ProtocolConfig(
            "glr", params=(("custody", False), ("sparse_copies", 2))
        )
        b = ProtocolConfig(
            "glr", params=(("sparse_copies", 2), ("custody", False))
        )
        assert a == b
        assert hash(a) == hash(b)
        assert self._key(a) == self._key(b)

    def test_integral_float_canonicalises_to_int(self):
        a = ProtocolConfig.of("glr", custody_timeout=5.0)
        b = ProtocolConfig.of("glr", custody_timeout=5)
        assert a == b
        assert self._key(a) == self._key(b)
        # Non-integral floats survive untouched.
        c = ProtocolConfig.of("glr", custody_timeout=5.5)
        assert c.params_dict()["custody_timeout"] == 5.5
        assert self._key(a) != self._key(c)

    def test_key_differs_per_param_value(self):
        keys = {
            self._key(ProtocolConfig.of("glr")),
            self._key(ProtocolConfig.of("glr", custody=False)),
            self._key(ProtocolConfig.of("glr", check_interval=1.8)),
            self._key(
                ProtocolConfig.of("glr", check_interval=1.8, custody=False)
            ),
        }
        assert len(keys) == 4

    def test_bool_field_canonicalises_ints(self):
        # True == 1 in Python, so equal configs must not JSON-encode
        # differently (true vs 1 would split keys, labels, spec hashes).
        a = ProtocolConfig.of("glr", custody=1)
        b = ProtocolConfig.of("glr", custody=True)
        assert a == b
        assert str(a) == str(b) == "glr(custody=True)"
        assert self._key(a) == self._key(b)
        assert ProtocolConfig.of("glr", custody=0.0) == ProtocolConfig.of(
            "glr", custody=False
        )

    def test_bool_field_rejects_non_binary_values(self):
        # Strings and non-0/1 numbers would be silently truthy inside
        # GLRConfig ("custody=no" running with custody ON) — reject.
        for bad in (2, 0.5, "no", "false", "yes"):
            with pytest.raises(ValueError, match="boolean"):
                ProtocolConfig.of("glr", custody=bad)

    def test_numeric_field_canonicalises_bools(self):
        a = ProtocolConfig.of("glr", sparse_copies=True)
        b = ProtocolConfig.of("glr", sparse_copies=1)
        assert a == b
        assert str(a) == str(b) == "glr(sparse_copies=1)"
        assert self._key(a) == self._key(b)

    def test_payload_json_round_trippable(self):
        task = ReplicateTask(
            TINY,
            "glr",
            0,
            protocol_config=ProtocolConfig.of("glr", custody=False),
        )
        payload = task_payload(task)
        assert json.loads(json.dumps(payload)) == payload

    def test_key_stable_across_processes(self):
        config = ProtocolConfig.of("glr", custody=False, custody_timeout=5.0)
        expected = self._key(config)
        script = (
            "from repro.experiments.campaign import ReplicateTask, task_key\n"
            "from repro.experiments.protocols import ProtocolConfig\n"
            "from repro.experiments.scenarios import Scenario\n"
            "tiny = Scenario(name='tiny', n_nodes=10, active_nodes=5,\n"
            "                radius=150.0, message_count=2, sim_time=15.0,\n"
            "                seed=3)\n"
            "config = ProtocolConfig.of('glr', custody_timeout=5,\n"
            "                           custody=False)\n"
            "print(task_key(ReplicateTask(tiny, 'glr', 0,\n"
            "                             protocol_config=config)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == expected


class TestRunnerThreading:
    def test_protocol_config_matches_concrete_config_run(self):
        """The declarative axis reproduces explicit-config runs exactly."""
        via_axis = run_single(
            TINY,
            "glr",
            protocol_config=ProtocolConfig.of("glr", custody=False),
        )
        via_config = run_concrete(TINY, "glr", GLRConfig(custody=False))
        assert via_axis == via_config

    def test_mismatched_protocol_rejected(self):
        with pytest.raises(ValueError, match="requests"):
            run_single(
                TINY,
                "epidemic",
                protocol_config=ProtocolConfig.of("glr"),
            )

    def test_buffer_limit_fallback_applies_to_axis_configs(self):
        limited = run_single(
            TINY,
            "spray_and_wait",
            protocol_config=ProtocolConfig.of(
                "spray_and_wait", initial_copies=4
            ),
            buffer_limit=2,
        )
        explicit = run_concrete(
            TINY,
            "spray_and_wait",
            SprayAndWaitConfig(initial_copies=4, buffer_limit=2),
        )
        assert limited == explicit
