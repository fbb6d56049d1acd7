"""Tests for BSTSample (Algorithm 1) and the multi-sample extension."""

import numpy as np
import pytest

from repro.core.bloom import BloomFilter
from repro.core.sampling import BSTSampler, ExactUniformSampler
from tests.conftest import SMALL_NAMESPACE


class TestSingleSample:
    def test_sample_is_query_positive(self, small_tree, query_filter,
                                      secret_set):
        sampler = BSTSampler(small_tree, rng=0)
        for __ in range(50):
            result = sampler.sample(query_filter)
            assert result.value is not None
            assert result.value in query_filter  # member of S u S(B)

    def test_sample_mostly_true_elements(self, small_tree, query_filter,
                                         secret_set):
        """With our test m the FPP is tiny: samples are true elements."""
        sampler = BSTSampler(small_tree, rng=0)
        truth = set(secret_set.tolist())
        hits = sum(sampler.sample(query_filter).value in truth
                   for __ in range(100))
        assert hits >= 98

    def test_empty_filter_yields_null(self, small_tree, small_family):
        sampler = BSTSampler(small_tree, rng=0)
        result = sampler.sample(BloomFilter(small_family))
        assert result.value is None

    def test_ops_are_counted(self, small_tree, query_filter):
        result = BSTSampler(small_tree, rng=0).sample(query_filter)
        assert result.ops.nodes_visited >= small_tree.depth + 1
        assert result.ops.intersections >= 2 * small_tree.depth
        assert result.ops.memberships >= 1

    def test_deterministic_under_seed(self, small_tree, query_filter):
        draws_a = [BSTSampler(small_tree, rng=7).sample(query_filter).value
                   for __ in range(1)]
        draws_b = [BSTSampler(small_tree, rng=7).sample(query_filter).value
                   for __ in range(1)]
        assert draws_a == draws_b

    def test_coverage_of_small_set(self, small_tree, small_family):
        """Every element of a small spread-out set is eventually sampled."""
        secret = np.array([10, 1000, 2000, 3000, 4000], dtype=np.uint64)
        query = BloomFilter.from_items(secret, small_family)
        sampler = BSTSampler(small_tree, rng=3)
        seen = {sampler.sample(query).value for __ in range(300)}
        assert set(secret.tolist()) <= seen

    def test_singleton_set(self, small_tree, small_family):
        query = BloomFilter.from_items(np.array([137], dtype=np.uint64),
                                       small_family)
        sampler = BSTSampler(small_tree, rng=1)
        values = {sampler.sample(query).value for __ in range(20)}
        assert values == {137}

    def test_result_flags(self, small_tree, query_filter, small_family):
        ok = BSTSampler(small_tree, rng=0).sample(query_filter)
        assert ok.succeeded
        empty = BSTSampler(small_tree, rng=0).sample(BloomFilter(small_family))
        assert not empty.succeeded

    def test_invalid_descent_mode(self, small_tree):
        with pytest.raises(ValueError):
            BSTSampler(small_tree, descent="magic")

    def test_incompatible_query_rejected(self, small_tree):
        from repro.core.hashing import create_family
        other = create_family("murmur3", 3, small_tree.family.m, seed=99)
        with pytest.raises(ValueError):
            BSTSampler(small_tree).sample(BloomFilter(other))

    def test_floored_descent_also_valid(self, small_tree, query_filter):
        sampler = BSTSampler(small_tree, rng=0, descent="floored")
        for __ in range(30):
            result = sampler.sample(query_filter)
            assert result.value is None or result.value in query_filter


class TestMultiSample:
    def test_counts_and_validity(self, small_tree, query_filter, secret_set):
        sampler = BSTSampler(small_tree, rng=0)
        result = sampler.sample_many(query_filter, 40)
        assert result.requested == 40
        assert len(result.values) == 40
        truth = set(secret_set.tolist())
        assert sum(v in truth for v in result.values) >= 38

    def test_without_replacement_distinct(self, small_tree, query_filter,
                                          secret_set):
        sampler = BSTSampler(small_tree, rng=0)
        result = sampler.sample_many(query_filter, 40, replacement=False)
        assert len(result.values) == len(set(result.values))

    def test_without_replacement_exhausts_set(self, small_tree, small_family):
        secret = np.array([3, 700, 1500, 2600, 3900], dtype=np.uint64)
        query = BloomFilter.from_items(secret, small_family)
        # Floored descent guarantees every branch stays reachable, so 64
        # no-replacement paths must flush out all five elements.
        sampler = BSTSampler(small_tree, rng=2, descent="floored")
        result = sampler.sample_many(query, 64, replacement=False)
        # Cannot produce more distinct values than exist.
        assert set(result.values) <= set(
            int(v) for v in np.arange(SMALL_NAMESPACE)
            if int(v) in query)
        assert len(result.values) == len(set(result.values))
        assert set(secret.tolist()) <= set(result.values)

    def test_one_pass_cheaper_than_repeats(self, small_tree, query_filter):
        sampler = BSTSampler(small_tree, rng=0)
        multi = sampler.sample_many(query_filter, 32)
        single_ops = 0
        for __ in range(32):
            single_ops += sampler.sample(query_filter).ops.intersections
        assert multi.ops.intersections < single_ops

    def test_empty_filter(self, small_tree, small_family):
        result = BSTSampler(small_tree, rng=0).sample_many(
            BloomFilter(small_family), 10)
        assert result.values == []
        assert result.shortfall == 10

    def test_invalid_r(self, small_tree, query_filter):
        with pytest.raises(ValueError):
            BSTSampler(small_tree).sample_many(query_filter, 0)


class TestExactUniformSampler:
    def test_samples_true_elements(self, small_tree, query_filter,
                                   secret_set):
        sampler = ExactUniformSampler(small_tree, rng=0)
        truth = set(secret_set.tolist())
        values = [sampler.sample(query_filter).value for __ in range(100)]
        assert sum(v in truth for v in values) >= 98

    def test_cache_amortises_ops(self, small_tree, query_filter):
        sampler = ExactUniformSampler(small_tree, rng=0)
        first = sampler.sample(query_filter)
        assert first.ops.memberships > 0
        second = sampler.sample(query_filter)
        assert second.ops.memberships == 0  # served from cache

    def test_clear_cache(self, small_tree, query_filter):
        sampler = ExactUniformSampler(small_tree, rng=0)
        sampler.sample(query_filter)
        sampler.clear_cache()
        assert sampler.sample(query_filter).ops.memberships > 0

    def test_exhaustive_covers_everything(self, small_tree, small_family,
                                          secret_set):
        query = BloomFilter.from_items(secret_set, small_family)
        sampler = ExactUniformSampler(small_tree, rng=0, exhaustive=True)
        seen = {sampler.sample(query).value for __ in range(3000)}
        assert set(secret_set.tolist()) <= seen

    def test_empty_filter(self, small_tree, small_family):
        sampler = ExactUniformSampler(small_tree, rng=0)
        assert sampler.sample(BloomFilter(small_family)).value is None


class TestUniformityStatistics:
    def test_uniform_within_a_leaf(self, small_tree, small_family):
        """Leaf-level sampling is exactly uniform.

        With the whole set inside one leaf the descent is deterministic,
        so the only randomness is the leaf's uniform choice — the
        chi-squared test must pass.  (Cross-leaf proportionality is only
        (1 +- eps(m))-approximate per Proposition 5.2; see
        ``docs/algorithms.md``, "Known deviations".)
        """
        from repro.analysis.uniformity import (chi_squared_uniformity,
                                               sample_counts)
        leaf = next(iter(small_tree.leaves()))
        secret = np.arange(leaf.lo, leaf.lo + 16, dtype=np.uint64)
        query = BloomFilter.from_items(secret, small_family)
        sampler = BSTSampler(small_tree, rng=8)
        draws = [sampler.sample(query).value for __ in range(16 * 130)]
        counts = sample_counts(draws, secret)
        assert (counts > 0).all()
        __, p = chi_squared_uniformity(counts)
        assert p > 0.01

    def test_floored_descent_covers_sparse_set(self, small_tree,
                                               small_family):
        """Floored descent never starves an element (our extension)."""
        secret = np.array([1, 600, 1300, 2100, 2900, 3700], dtype=np.uint64)
        query = BloomFilter.from_items(secret, small_family)
        sampler = BSTSampler(small_tree, rng=9, descent="floored")
        seen = {sampler.sample(query).value for __ in range(600)}
        assert set(secret.tolist()) <= seen
