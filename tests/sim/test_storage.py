"""Tests for bounded message stores (FIFO buffer and GLR dual store)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.storage import DualStore, MessageStore, StoreFullError


class TestMessageStore:
    def test_add_and_get(self):
        store = MessageStore()
        store.add("k", "item")
        assert store.get("k") == "item"
        assert "k" in store
        assert len(store) == 1

    def test_insertion_order_preserved(self):
        store = MessageStore()
        for key in "abc":
            store.add(key, key.upper())
        assert store.keys() == ["a", "b", "c"]
        assert store.values() == ["A", "B", "C"]

    def test_fifo_eviction(self):
        store = MessageStore(capacity=2)
        store.add("a", 1)
        store.add("b", 2)
        evicted = store.add("c", 3)
        assert evicted == [1]
        assert store.keys() == ["b", "c"]
        assert store.evictions == 1

    def test_no_evict_mode_raises(self):
        store = MessageStore(capacity=1)
        store.add("a", 1)
        with pytest.raises(StoreFullError):
            store.add("b", 2, evict=False)

    def test_readd_existing_key_keeps_position(self):
        store = MessageStore(capacity=10)
        store.add("a", 1)
        store.add("b", 2)
        store.add("a", 99)
        assert store.keys() == ["a", "b"]
        assert store.get("a") == 99

    def test_pop(self):
        store = MessageStore()
        store.add("a", 1)
        assert store.pop("a") == 1
        assert store.pop("a") is None

    def test_pop_oldest(self):
        store = MessageStore()
        store.add("a", 1)
        store.add("b", 2)
        assert store.pop_oldest() == 1
        assert store.pop_oldest() == 2
        assert store.pop_oldest() is None

    def test_peak_occupancy_tracked(self):
        store = MessageStore()
        for i in range(5):
            store.add(i, i)
        for i in range(5):
            store.pop(i)
        assert store.peak_occupancy == 5
        assert len(store) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MessageStore(capacity=0)

    def test_time_average_occupancy(self):
        store = MessageStore()
        store.sample(0.0)
        store.add("a", 1)
        store.sample(10.0)  # 1 item for 10 s
        store.pop("a")
        store.sample(20.0)  # 0 items for 10 s... sampled at removal
        # Average over [0, 20]: the item was counted for the (0, 10]
        # interval sample -> 10 item-seconds / 20 s = 0.5.
        assert store.time_average_occupancy(20.0) == pytest.approx(0.5)

    @given(st.lists(st.integers(), min_size=1, max_size=60, unique=True))
    def test_capacity_never_exceeded(self, keys):
        store = MessageStore(capacity=7)
        for k in keys:
            store.add(k, k)
            assert len(store) <= 7

    def test_is_full(self):
        store = MessageStore(capacity=1)
        assert not store.is_full
        store.add("a", 1)
        assert store.is_full

    def test_version_counts_key_set_changes_only(self):
        store = MessageStore(capacity=2)
        store.add("a", 1)
        assert store.version == 1  # a new key
        store.add("a", 2)
        assert store.version == 1  # refreshing a key is no change
        store.add("b", 3)
        store.add("c", 4)
        assert store.version == 4  # an eviction and a new key
        assert store.pop("missing") is None
        assert store.version == 4
        assert store.pop("b") == 3
        assert store.version == 5
        assert store.pop_oldest() == 4
        assert store.version == 6
        assert store.pop_oldest() is None
        assert store.version == 6


class TestDualStore:
    def test_store_then_cache_flow(self):
        dual = DualStore()
        dual.add_to_store("m", "payload")
        assert len(dual.store) == 1
        assert dual.move_to_cache("m")
        assert len(dual.store) == 0
        assert len(dual.cache) == 1
        assert dual.acknowledge("m")
        assert dual.occupancy() == 0

    def test_return_to_store_on_timeout(self):
        dual = DualStore()
        dual.add_to_store("m", "payload")
        dual.move_to_cache("m")
        assert dual.return_to_store("m")
        assert "m" in dual.store
        assert "m" not in dual.cache

    def test_move_missing_key_returns_false(self):
        dual = DualStore()
        assert not dual.move_to_cache("nope")
        assert not dual.return_to_store("nope")
        assert not dual.acknowledge("nope")

    def test_cache_evicted_before_store(self):
        # Paper 3.6: "When storage space is not enough, message in the
        # Cache is dropped first."
        dual = DualStore(capacity=2)
        dual.add_to_store("sent", "A")
        dual.move_to_cache("sent")
        dual.add_to_store("waiting", "B")
        evicted = dual.add_to_store("new", "C")
        assert evicted == ["A"]
        assert "waiting" in dual.store
        assert "new" in dual.store
        assert len(dual.cache) == 0

    def test_store_evicted_when_cache_empty(self):
        dual = DualStore(capacity=2)
        dual.add_to_store("old", "A")
        dual.add_to_store("mid", "B")
        evicted = dual.add_to_store("new", "C")
        assert evicted == ["A"]

    def test_peak_counts_both_areas(self):
        dual = DualStore()
        dual.add_to_store("a", 1)
        dual.move_to_cache("a")
        dual.add_to_store("b", 2)
        assert dual.peak_occupancy == 2

    def test_drop_from_either_area(self):
        dual = DualStore()
        dual.add_to_store("a", 1)
        assert dual.drop("a")
        dual.add_to_store("b", 2)
        dual.move_to_cache("b")
        assert dual.drop("b")
        assert not dual.drop("b")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DualStore(capacity=0)

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=80))
    def test_capacity_invariant_under_mixed_operations(self, ops):
        dual = DualStore(capacity=5)
        for i, op in enumerate(ops):
            if op % 3 == 0:
                dual.add_to_store(f"k{i}", i)
            elif op % 3 == 1 and dual.store.keys():
                dual.move_to_cache(dual.store.keys()[0])
            elif dual.cache.keys():
                dual.return_to_store(dual.cache.keys()[0])
            assert dual.occupancy() <= 5
