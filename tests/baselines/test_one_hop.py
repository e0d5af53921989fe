"""Tests for the one-hop-information geographic baseline."""

import pytest

from repro.baselines.one_hop import OneHopConfig
from repro.experiments.protocols import ProtocolConfig, sweepable_params
from repro.experiments.runner import run_replicates, run_single
from repro.experiments.scenarios import Scenario

SMALL = Scenario(
    n_nodes=20,
    active_nodes=12,
    message_count=30,
    sim_time=180.0,
    seed=5,
)


class TestOneHopConfig:
    def test_defaults(self):
        config = OneHopConfig()
        assert config.tick_interval == 1.0
        assert config.buffer_limit is None
        assert config.progress_margin_m == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OneHopConfig(tick_interval=0.0)
        with pytest.raises(ValueError):
            OneHopConfig(buffer_limit=0)
        with pytest.raises(ValueError):
            OneHopConfig(progress_margin_m=-1.0)

    def test_sweepable_params(self):
        assert sweepable_params("one_hop") == [
            "buffer_limit",
            "progress_margin_m",
            "tick_interval",
        ]

    def test_protocol_config_builds(self):
        config = ProtocolConfig.of("one_hop", progress_margin_m=5)
        built = config.build()
        assert isinstance(built, OneHopConfig)
        assert built.progress_margin_m == 5


class TestOneHopProtocol:
    def test_runs_and_delivers(self):
        metrics = run_single(SMALL, "one_hop")
        assert metrics.protocol == "one_hop"
        assert metrics.delivery_ratio > 0.0

    def test_deterministic(self):
        assert run_single(SMALL, "one_hop") == run_single(SMALL, "one_hop")

    def test_serial_parallel_equivalence(self):
        serial = run_replicates(SMALL, "one_hop", runs=2, workers=1)
        parallel = run_replicates(SMALL, "one_hop", runs=2, workers=2)
        assert serial == parallel

    def test_single_copy_storage(self):
        # One-hop keeps exactly one custodian per message: total held
        # copies across the network never exceed undelivered messages.
        from repro.experiments.runner import build_world

        world = build_world(SMALL, "one_hop")
        metrics = world.run(until=SMALL.sim_time, protocol_name="one_hop")
        held = sum(
            p.storage_occupancy() for p in world.protocols.values()
        )
        assert held <= metrics.messages_created

    def test_greedy_forwarding_happens(self):
        from repro.experiments.runner import build_world

        world = build_world(SMALL, "one_hop")
        world.run(until=SMALL.sim_time, protocol_name="one_hop")
        assert (
            sum(p.greedy_forwards for p in world.protocols.values()) > 0
        )

    def test_empty_buffer_tick_looks_nothing_up_and_drops_beliefs(
        self, monkeypatch
    ):
        from repro.experiments.runner import build_world
        from repro.sim.messages import Message

        world = build_world(SMALL, "one_hop", buffer_limit=1)
        protocol = world.protocols[0]
        first = Message.create(source=0, dest=5, seq=0, created_at=0.0)
        second = Message.create(source=0, dest=6, seq=1, created_at=0.0)
        protocol.on_message_created(first)
        protocol.on_message_created(second)  # evicts first, not its belief
        assert protocol._hand_off(second.uid, 1)
        assert not protocol.buffer and set(protocol._beliefs) == {first.uid}

        lookups = []
        monkeypatch.setattr(
            world.mobility, "position", lambda *args: lookups.append(args)
        )
        monkeypatch.setattr(
            world.neighbor_service,
            "neighbor_positions",
            lambda *args: lookups.append(args),
        )
        protocol.on_tick_with_neighbors({1, 2})
        assert lookups == []
        assert protocol._beliefs == {}

    def test_buffer_limit_respected(self):
        from repro.experiments.runner import build_world

        world = build_world(SMALL, "one_hop", buffer_limit=2)
        world.run(until=SMALL.sim_time, protocol_name="one_hop")
        for protocol in world.protocols.values():
            assert protocol.storage_peak() <= 2
