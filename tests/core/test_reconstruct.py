"""Tests for BloomSampleTree reconstruction (Section 6)."""

import numpy as np
import pytest

from repro.core.bloom import BloomFilter
from repro.core.reconstruct import BSTReconstructor


class TestExhaustive:
    def test_equals_brute_force(self, small_tree, query_filter):
        """Exhaustive reconstruction returns exactly S u S(B)."""
        result = BSTReconstructor(small_tree, exhaustive=True).reconstruct(
            query_filter)
        namespace = np.arange(small_tree.namespace_size, dtype=np.uint64)
        brute = namespace[query_filter.contains_many(namespace)]
        np.testing.assert_array_equal(result.elements, brute)

    def test_superset_of_true_set(self, small_tree, query_filter, secret_set):
        result = BSTReconstructor(small_tree, exhaustive=True).reconstruct(
            query_filter)
        assert np.isin(secret_set, result.elements).all()

    def test_sorted_unique_output(self, small_tree, query_filter):
        result = BSTReconstructor(small_tree, exhaustive=True).reconstruct(
            query_filter)
        elements = result.elements
        assert (np.diff(elements.astype(np.int64)) > 0).all()

    def test_membership_cost_is_namespace(self, small_tree, query_filter):
        result = BSTReconstructor(small_tree, exhaustive=True).reconstruct(
            query_filter)
        assert result.ops.memberships == small_tree.namespace_size
        assert result.ops.intersections == 0


class TestThresholded:
    def test_high_recall_on_uniform_set(self, small_tree, query_filter,
                                        secret_set):
        """Thresholded pruning recovers most of a uniform set.

        Exact recovery is only guaranteed by ``exhaustive=True``; the
        estimator-guided variant can drop elements whose per-subtree
        signal is below the estimator noise (see ``docs/algorithms.md``,
        "Known deviations").
        """
        result = BSTReconstructor(small_tree).reconstruct(query_filter)
        found = np.isin(secret_set, result.elements).mean()
        assert found >= 0.75

    def test_full_recall_on_clustered_set(self, small_tree, small_family):
        """Dense runs sit far above the noise floor: nothing is missed."""
        secret = np.arange(512, 768, dtype=np.uint64)  # two full leaves
        query = BloomFilter.from_items(secret, small_family)
        result = BSTReconstructor(small_tree).reconstruct(query)
        assert np.isin(secret, result.elements).all()

    def test_prunes_saves_memberships(self, small_tree, small_family):
        # A tightly clustered set: most subtrees are prunable.
        secret = np.arange(100, 150, dtype=np.uint64)
        query = BloomFilter.from_items(secret, small_family)
        result = BSTReconstructor(small_tree).reconstruct(query)
        assert result.ops.memberships < small_tree.namespace_size / 2
        assert np.isin(secret, result.elements).all()

    def test_empty_filter_reconstructs_empty(self, small_tree, small_family):
        result = BSTReconstructor(small_tree).reconstruct(
            BloomFilter(small_family))
        assert result.size == 0
        assert result.elements.dtype == np.uint64

    def test_ops_accounting(self, small_tree, query_filter):
        result = BSTReconstructor(small_tree).reconstruct(query_filter)
        assert result.ops.intersections == result.ops.nodes_visited
        assert result.ops.memberships > 0

    def test_threshold_knob_monotone(self, small_tree, query_filter):
        """Higher thresholds can only prune more (fewer memberships)."""
        low = BSTReconstructor(small_tree, empty_threshold=1e-9).reconstruct(
            query_filter)
        high = BSTReconstructor(small_tree, empty_threshold=5.0).reconstruct(
            query_filter)
        assert high.ops.memberships <= low.ops.memberships
        assert high.size <= low.size

    def test_incompatible_query_rejected(self, small_tree):
        from repro.core.hashing import create_family
        other = create_family("murmur3", 3, small_tree.family.m, seed=99)
        with pytest.raises(ValueError):
            BSTReconstructor(small_tree).reconstruct(BloomFilter(other))


class TestAgainstBaselines:
    def test_matches_dictionary_attack(self, small_tree, query_filter):
        from repro.baselines.dictionary_attack import DictionaryAttack
        bst = BSTReconstructor(small_tree, exhaustive=True).reconstruct(
            query_filter)
        da_elements, __ = DictionaryAttack(
            small_tree.namespace_size).reconstruct(query_filter)
        np.testing.assert_array_equal(bst.elements, np.sort(da_elements))

    def test_matches_hashinvert(self, simple_tree, simple_query_filter):
        from repro.baselines.hashinvert import HashInvert
        bst = BSTReconstructor(simple_tree, exhaustive=True).reconstruct(
            simple_query_filter)
        hi_elements, __ = HashInvert(
            simple_tree.namespace_size).reconstruct(simple_query_filter)
        np.testing.assert_array_equal(bst.elements, np.sort(hi_elements))
