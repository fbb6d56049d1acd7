"""Tests for the FilterStore (the paper's database D-bar)."""

import numpy as np
import pytest

from repro.core.bloom import BloomFilter
from repro.core.store import FilterStore
from tests.conftest import SMALL_NAMESPACE


@pytest.fixture()
def store(small_family, small_tree, rng):
    store = FilterStore(small_family, tree=small_tree, rng=7)
    store.create("evens", np.arange(0, 200, 2, dtype=np.uint64))
    store.create("odds", np.arange(1, 200, 2, dtype=np.uint64))
    store.create("hundreds", np.arange(0, SMALL_NAMESPACE, 100,
                                       dtype=np.uint64))
    return store


class TestManagement:
    def test_create_and_query(self, store):
        assert len(store) == 3
        assert "evens" in store
        assert store.names() == ["evens", "hundreds", "odds"]
        assert store.contains("evens", 42)
        assert not store.contains("evens", 43)

    def test_duplicate_name_rejected(self, store):
        with pytest.raises(KeyError):
            store.create("evens")

    def test_unknown_name_rejected(self, store):
        with pytest.raises(KeyError):
            store.filter("primes")
        with pytest.raises(KeyError):
            store.discard("primes")

    def test_add_extends_set(self, store):
        store.add("evens", np.array([999], dtype=np.uint64))
        assert store.contains("evens", 999)

    def test_discard(self, store):
        store.discard("odds")
        assert len(store) == 2
        assert "odds" not in store

    def test_install_rejects_incompatible_and_duplicate_filters(
            self, store, small_family):
        from repro.core.hashing import create_family
        from repro.core.store import DuplicateSetError

        with pytest.raises(DuplicateSetError):
            store.install("evens", store.filter("evens").copy())
        other = create_family("murmur3", small_family.k, small_family.m // 2,
                              namespace_size=SMALL_NAMESPACE, seed=42)
        tiny = BloomFilter.from_items(np.arange(5, dtype=np.uint64), other)
        with pytest.raises(ValueError, match="incompatible"):
            store.install("fresh", tiny)
        store.install("copy", store.filter("odds").copy())
        assert store.contains("copy", 3)

    def test_create_empty_then_fill(self, small_family):
        store = FilterStore(small_family)
        store.create("empty")
        assert store.filter("empty").is_empty()

    def test_nbytes(self, store):
        assert store.nbytes == 3 * store.filter("evens").nbytes

    def test_sets_containing(self, store):
        hits = store.sets_containing(100)
        assert "evens" in hits and "hundreds" in hits
        assert "odds" not in hits


class TestSamplingAndReconstruction:
    def test_sample_from_named_set(self, store):
        evens = set(range(0, 200, 2))
        for __ in range(20):
            value = store.sample("evens").value
            assert value in store.filter("evens")
        hits = sum(store.sample("evens").value in evens for __ in range(20))
        assert hits >= 18

    def test_sample_many(self, store):
        result = store.sample_many("odds", 15, replacement=False)
        assert len(set(result.values)) == len(result.values)

    def test_reconstruct(self, store):
        result = store.reconstruct("hundreds", exhaustive=True)
        expected = set(range(0, SMALL_NAMESPACE, 100))
        assert expected <= set(result.elements.tolist())

    def test_union_sampling(self, store):
        union = set(range(200))
        for __ in range(20):
            value = store.sample_union(["evens", "odds"]).value
            assert value is not None
        hits = sum(store.sample_union(["evens", "odds"]).value in union
                   for __ in range(20))
        assert hits >= 18

    def test_union_filter_exact(self, store, small_family):
        union = store.union_filter(["evens", "odds"])
        direct = BloomFilter.from_items(np.arange(200, dtype=np.uint64),
                                        small_family)
        assert union == direct

    def test_intersection_sampling(self, store):
        # evens n hundreds == hundreds (all hundreds are even).
        result = store.sample_intersection(["evens", "hundreds"])
        assert result.value is not None
        assert result.value in store.filter("hundreds")

    def test_empty_name_list(self, store):
        with pytest.raises(ValueError):
            store.union_filter([])

    def test_store_without_tree_rejects_sampling(self, small_family):
        store = FilterStore(small_family)
        store.create("a", np.array([1], dtype=np.uint64))
        with pytest.raises(RuntimeError):
            store.sample("a")

    def test_incompatible_tree_rejected(self, small_tree):
        from repro.core.hashing import create_family
        other = create_family("murmur3", 3, small_tree.family.m, seed=999)
        with pytest.raises(ValueError):
            FilterStore(other, tree=small_tree)


class TestPersistence:
    def test_round_trip(self, store, small_tree, tmp_path):
        path = tmp_path / "store.npz"
        store.save(path)
        loaded = FilterStore.load(path, tree=small_tree, rng=7)
        assert loaded.names() == store.names()
        for name in store.names():
            assert loaded.filter(name) == store.filter(name)
        # Sampling works on the loaded store.
        assert loaded.sample("evens").value is not None

    def test_empty_store_round_trip(self, small_family, tmp_path):
        store = FilterStore(small_family)
        path = tmp_path / "empty.npz"
        store.save(path)
        loaded = FilterStore.load(path)
        assert len(loaded) == 0
