"""Tests for the parameter planner (Section 5.4)."""

import pytest

from repro.core.design import (
    bloom_size_for_accuracy,
    expected_accuracy,
    family_for_parameters,
    leaf_capacity_for_ratio,
    measure_cost_ratio,
    modelled_cost_ratio,
    plan_tree,
    required_fpp,
)
from repro.experiments.tables import PAPER_TABLE2_M, PAPER_TABLE3_M


class TestAccuracyModel:
    def test_roundtrip(self):
        """m chosen for an accuracy target achieves (at least) it."""
        for accuracy in (0.5, 0.7, 0.9):
            m = bloom_size_for_accuracy(accuracy, 1000, 10 ** 6, 3)
            achieved = expected_accuracy(m, 1000, 10 ** 6, 3)
            assert achieved >= accuracy - 0.005

    def test_reproduces_paper_table2(self):
        """Our model recovers the paper's Table 2 m values (M=1e6)."""
        for accuracy, paper_m in PAPER_TABLE2_M.items():
            m = bloom_size_for_accuracy(accuracy, 1000, 10 ** 6, 3)
            assert m == pytest.approx(paper_m, rel=0.005), accuracy

    def test_reproduces_paper_table3(self):
        """Our model recovers the paper's Table 3 m values (M=1e7)."""
        for accuracy, paper_m in PAPER_TABLE3_M.items():
            m = bloom_size_for_accuracy(accuracy, 1000, 10 ** 7, 3)
            assert m == pytest.approx(paper_m, rel=0.005), accuracy

    def test_accuracy_one_is_capped(self):
        """'Accuracy 1.0' behaves as the 0.99 cap (docs/algorithms.md)."""
        m_one = bloom_size_for_accuracy(1.0, 1000, 10 ** 6, 3)
        m_cap = bloom_size_for_accuracy(0.99, 1000, 10 ** 6, 3)
        assert m_one == m_cap

    def test_monotone_in_accuracy(self):
        ms = [bloom_size_for_accuracy(a, 1000, 10 ** 6, 3)
              for a in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert ms == sorted(ms)

    def test_required_fpp_inverts_accuracy(self):
        fp = required_fpp(0.9, 1000, 10 ** 6)
        acc = 1000 / (1000 + (10 ** 6 - 1000) * fp)
        assert acc == pytest.approx(0.9)

    def test_required_fpp_validation(self):
        with pytest.raises(ValueError):
            required_fpp(0.0, 10, 100)
        with pytest.raises(ValueError):
            required_fpp(0.5, 100, 100)

    def test_loose_target_small_filter(self):
        # Accuracy so low any filter works: minimal m returned.
        m = bloom_size_for_accuracy(0.001, 1000, 2000, 3)
        assert m >= 64


class TestLeafCapacity:
    def test_rule_boundary(self):
        # cost_ratio 150 admits leaves up to N/log2(N) <= 150.
        leaf, depth = leaf_capacity_for_ratio(10 ** 6, 150.0)
        assert leaf / (leaf).bit_length() <= 151
        bigger = leaf * 2
        import math
        assert bigger / math.log2(bigger) > 150.0
        assert leaf == -(-10 ** 6 // (1 << depth))  # ceil division

    def test_small_ratio_gives_deep_tree(self):
        leaf_small, depth_small = leaf_capacity_for_ratio(1 << 16, 2.0)
        leaf_big, depth_big = leaf_capacity_for_ratio(1 << 16, 1000.0)
        assert depth_small > depth_big
        assert leaf_small < leaf_big

    def test_leaf_floor(self):
        leaf, __ = leaf_capacity_for_ratio(64, 0.1)
        assert leaf >= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            leaf_capacity_for_ratio(1, 10.0)
        with pytest.raises(ValueError):
            leaf_capacity_for_ratio(100, 0.0)


class TestPlanTree:
    def test_paper_depths_close(self):
        """Depths land within one level of the paper's Table 2."""
        paper_depths = {0.5: 10, 0.6: 10, 0.7: 10, 0.8: 9, 0.9: 9, 1.0: 6}
        for accuracy, depth in paper_depths.items():
            params = plan_tree(10 ** 6, 1000, accuracy)
            assert abs(params.depth - depth) <= 1, accuracy

    def test_consistency(self):
        params = plan_tree(10 ** 6, 1000, 0.9)
        assert params.leaf_capacity == -(-10 ** 6 // (1 << params.depth))
        assert params.num_nodes == (1 << (params.depth + 1)) - 1
        assert params.memory_bytes == params.num_nodes * \
            ((params.m + 63) // 64) * 8
        assert params.memory_mb == pytest.approx(params.memory_bytes / 1e6)

    def test_explicit_cost_ratio(self):
        shallow = plan_tree(10 ** 6, 1000, 0.9, cost_ratio=10_000.0)
        deep = plan_tree(10 ** 6, 1000, 0.9, cost_ratio=10.0)
        assert shallow.depth < deep.depth

    def test_family_for_parameters(self):
        params = plan_tree(10 ** 5, 100, 0.8)
        family = family_for_parameters(params, "simple", seed=3)
        assert family.m == params.m
        assert family.k == params.k


class TestCostRatio:
    def test_modelled_ratio(self):
        assert modelled_cost_ratio(6400, 2) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            modelled_cost_ratio(0, 3)

    def test_measured_ratio_positive(self):
        family = family_for_parameters(plan_tree(10 ** 4, 100, 0.8), "murmur3")
        ratio = measure_cost_ratio(family, rounds=20)
        assert ratio >= 1.0
