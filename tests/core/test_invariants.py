"""System-level invariants of GLR under simulation.

These tests run short end-to-end simulations and then audit internal
state across every node — the properties the paper's design implies:

- **copy conservation** (custody + unlimited storage): a message is
  either delivered or at least one live copy of it exists in some
  node's Store/Cache.  This is exactly what custody transfer buys
  ("a message is not deleted by the sender unless the corresponding
  receiver has notified the sender") and it is the invariant the
  copy-annihilation bug class breaks.
- **copy population bound**: the number of live copies of one message
  never exceeds the number injected (custody merging can shrink it;
  nothing may grow it) plus duplicates bred by lost ACKs, which must
  stay bounded by the custody retry count.
- **flag integrity**: every stored copy carries one of the paper's
  tree flags.
"""

import collections

import pytest

from repro.experiments.protocols import ProtocolConfig
from repro.experiments.runner import build_world
from repro.experiments.scenarios import Scenario
from repro.graphs.trees import Branch


def live_copies_by_message(world):
    """Count live copies per message uid across all Stores and Caches."""
    counts = collections.Counter()
    for protocol in world.protocols.values():
        for area in (protocol.dual.store, protocol.dual.cache):
            for copy_id in area.keys():
                counts[copy_id[0]] += 1
    return counts


@pytest.mark.slow
class TestCopyConservation:
    @pytest.mark.parametrize("radius", [50.0, 100.0])
    def test_no_message_vanishes_with_unlimited_storage(self, radius):
        scenario = Scenario(
            radius=radius, message_count=25, sim_time=200.0, seed=13
        )
        world = build_world(scenario, "glr")
        metrics = world.run(until=scenario.sim_time, protocol_name="glr")

        live = live_copies_by_message(world)
        lost = []
        for uid in range(25):
            # uids are globally allocated; map via created messages.
            pass
        # Collect created message uids from the metrics collector.
        created_uids = set(world.metrics._created)  # test-only peek
        for uid in created_uids:
            if not world.metrics.is_delivered(uid) and live[uid] == 0:
                lost.append(uid)
        assert not lost, (
            f"messages neither delivered nor held anywhere: {lost} "
            f"(delivered {metrics.messages_delivered}/25)"
        )

    def test_copy_population_bounded(self):
        scenario = Scenario(
            radius=100.0, message_count=20, sim_time=150.0, seed=17
        )
        world = build_world(scenario, "glr")
        world.run(until=scenario.sim_time, protocol_name="glr")
        live = live_copies_by_message(world)
        # Algorithm 1 injects 3 copies at 100 m.  Distinct copy ids per
        # message are at most 3, and each copy id lives at most once
        # per node; transient duplicates from lost ACKs are bounded in
        # practice — assert a generous cap that still catches breeding.
        for uid, count in live.items():
            assert count <= 9, f"message {uid} has {count} live copies"

    def test_all_flags_valid(self):
        scenario = Scenario(
            radius=100.0, message_count=15, sim_time=100.0, seed=19
        )
        world = build_world(scenario, "glr")
        world.run(until=scenario.sim_time, protocol_name="glr")
        valid = {b.value for b in Branch}
        for protocol in world.protocols.values():
            for area in (protocol.dual.store, protocol.dual.cache):
                for copy_id in area.keys():
                    assert copy_id[1] in valid


@pytest.mark.slow
class TestCountersConsistent:
    def test_protocol_counters_non_negative_and_coherent(self):
        scenario = Scenario(
            radius=100.0, message_count=20, sim_time=150.0, seed=23
        )
        world = build_world(scenario, "glr")
        world.run(until=scenario.sim_time, protocol_name="glr")
        for protocol in world.protocols.values():
            assert protocol.rounds_run >= 0
            assert protocol.face_steps_taken >= 0
            assert protocol.greedy_forwards >= 0
            if protocol.custody is not None:
                assert protocol.custody.acks_received >= 0
                assert protocol.custody.timeouts >= 0

    def test_storage_peaks_monotone_with_occupancy(self):
        scenario = Scenario(
            radius=100.0, message_count=20, sim_time=150.0, seed=29
        )
        world = build_world(scenario, "glr")
        world.run(until=scenario.sim_time, protocol_name="glr")
        for protocol in world.protocols.values():
            assert protocol.storage_peak() >= protocol.storage_occupancy()


@pytest.mark.slow
class TestStorageLimitInteraction:
    def test_eviction_can_lose_messages_but_never_corrupts(self):
        scenario = Scenario(
            radius=50.0, message_count=40, sim_time=150.0, seed=31
        )
        world = build_world(
            scenario,
            "glr",
            protocol_config=ProtocolConfig.of("glr", storage_limit=3),
        )
        metrics = world.run(until=scenario.sim_time, protocol_name="glr")
        # Tight storage may drop messages (delivery < 1), but every
        # surviving structure stays within its limit.
        for protocol in world.protocols.values():
            assert protocol.dual.occupancy() <= 3
            assert protocol.dual.peak_occupancy <= 3
        assert 0.0 <= metrics.delivery_ratio <= 1.0
