"""Tests for deterministic RNG derivation."""

import pytest

from repro.seeding import (
    REPLICATE_SEED_STRIDE,
    derive_rng,
    derive_seed,
    replicate_seed,
    shard_partition,
    stable_shard,
)


class TestDeriveSeed:
    def test_stable_for_same_parts(self):
        assert derive_seed(1, "a", 2.5) == derive_seed(1, "a", 2.5)

    def test_differs_by_any_part(self):
        base = derive_seed(1, "node", "mac")
        assert derive_seed(2, "node", "mac") != base
        assert derive_seed(1, "other", "mac") != base
        assert derive_seed(1, "node", "rwp") != base

    def test_type_sensitive(self):
        # repr-based flattening distinguishes 1 from "1".
        assert derive_seed(1) != derive_seed("1")

    def test_no_part_concatenation_collision(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert derive_seed("ab", "c") != derive_seed("a", "bc")


class TestDeriveRng:
    def test_same_key_same_stream(self):
        a = derive_rng(7, "x")
        b = derive_rng(7, "x")
        assert [a.random() for _ in range(5)] == [
            b.random() for _ in range(5)
        ]

    def test_different_key_different_stream(self):
        a = derive_rng(7, "x")
        b = derive_rng(7, "y")
        assert [a.random() for _ in range(5)] != [
            b.random() for _ in range(5)
        ]

    def test_streams_are_independent_instances(self):
        a = derive_rng(7, "x")
        b = derive_rng(7, "x")
        a.random()
        # Consuming from a must not advance b.
        assert b.random() == derive_rng(7, "x").random()


class TestReplicateSeed:
    def test_first_replicate_is_master_seed(self):
        assert replicate_seed(42, 0) == 42

    def test_strided_and_disjoint(self):
        seeds = [replicate_seed(1, i) for i in range(10)]
        assert seeds == [1 + REPLICATE_SEED_STRIDE * i for i in range(10)]
        assert len(set(seeds)) == 10

    def test_rejects_negative_replicate(self):
        with pytest.raises(ValueError):
            replicate_seed(1, -1)


class TestStableShard:
    def test_in_range_and_deterministic(self):
        keys = [f"key-{i}" for i in range(200)]
        for count in (1, 2, 3, 7):
            shards = [stable_shard(k, count) for k in keys]
            assert all(0 <= s < count for s in shards)
            assert shards == [stable_shard(k, count) for k in keys]

    def test_single_shard_takes_everything(self):
        assert all(
            stable_shard(f"k{i}", 1) == 0 for i in range(50)
        )

    def test_keys_spread_across_shards(self):
        # Statistical, but 200 distinct keys into 2 shards all landing
        # on one side would mean the hash is broken.
        shards = {stable_shard(f"key-{i}", 2) for i in range(200)}
        assert shards == {0, 1}

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            stable_shard("k", 0)


class TestShardPartition:
    def test_is_a_partition_matching_stable_shard(self):
        keys = [f"key-{i}" for i in range(200)]
        parts = shard_partition(keys, 3)
        assert len(parts) == 3
        # Every key lands in exactly one part, chosen by stable_shard.
        assert sorted(key for part in parts for key in part) == sorted(keys)
        for index, part in enumerate(parts):
            assert all(stable_shard(key, 3) == index for key in part)

    def test_preserves_input_order_within_parts(self):
        keys = [f"key-{i}" for i in range(50)]
        parts = shard_partition(keys, 2)
        order = {key: i for i, key in enumerate(keys)}
        for part in parts:
            assert part == sorted(part, key=order.__getitem__)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            shard_partition(["k"], 0)

