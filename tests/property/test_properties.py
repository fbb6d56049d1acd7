"""Property-based tests (hypothesis) for the core invariants.

These encode the core invariants: Bloom filters never produce
false negatives, union is exact, the BloomSampleTree is laminar, weak
inversion is a true preimage, exhaustive reconstruction equals the
dictionary attack, and the Fenwick tree matches a list model.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.dictionary_attack import DictionaryAttack
from repro.core.bitvector import BitVector
from repro.core.bloom import BloomFilter
from repro.core.hashing import SimpleHashFamily, create_family
from repro.core.reconstruct import BSTReconstructor
from repro.core.sampling import BSTSampler
from repro.core.tree import BloomSampleTree
from repro.utils.fenwick import FenwickTree

NAMESPACE = 512
M_BITS = 4_096

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _family(seed: int, name: str = "murmur3"):
    return create_family(name, 3, M_BITS, namespace_size=NAMESPACE,
                         seed=seed)


item_sets = st.sets(st.integers(0, NAMESPACE - 1), min_size=0, max_size=64)


class TestBloomProperties:
    @COMMON
    @given(items=item_sets, seed=st.integers(0, 5))
    def test_no_false_negatives(self, items, seed):
        family = _family(seed)
        bloom = BloomFilter.from_items(
            np.array(sorted(items), dtype=np.uint64), family)
        for x in items:
            assert x in bloom

    @COMMON
    @given(a=item_sets, b=item_sets, seed=st.integers(0, 5))
    def test_union_is_exact(self, a, b, seed):
        family = _family(seed)
        fa = BloomFilter.from_items(np.array(sorted(a), dtype=np.uint64),
                                    family)
        fb = BloomFilter.from_items(np.array(sorted(b), dtype=np.uint64),
                                    family)
        direct = BloomFilter.from_items(
            np.array(sorted(a | b), dtype=np.uint64), family)
        assert fa.union(fb) == direct

    @COMMON
    @given(a=item_sets, b=item_sets, seed=st.integers(0, 5))
    def test_intersection_contains_common_bits(self, a, b, seed):
        family = _family(seed)
        fa = BloomFilter.from_items(np.array(sorted(a), dtype=np.uint64),
                                    family)
        fb = BloomFilter.from_items(np.array(sorted(b), dtype=np.uint64),
                                    family)
        inter = fa.intersection(fb)
        for x in a & b:
            assert x in inter  # common elements survive the AND

    @COMMON
    @given(items=item_sets, seed=st.integers(0, 5))
    def test_batch_matches_scalar_membership(self, items, seed):
        family = _family(seed)
        bloom = BloomFilter.from_items(
            np.array(sorted(items), dtype=np.uint64), family)
        probes = np.arange(0, NAMESPACE, 7, dtype=np.uint64)
        batch = bloom.contains_many(probes)
        for x, hit in zip(probes.tolist(), batch.tolist()):
            assert (int(x) in bloom) == hit


class TestBitVectorProperties:
    @COMMON
    @given(positions=st.lists(st.integers(0, 199), max_size=100),
           other=st.lists(st.integers(0, 199), max_size=100))
    def test_matches_int_model(self, positions, other):
        bv_a, bv_b = BitVector(200), BitVector(200)
        int_a = int_b = 0
        for p in positions:
            bv_a.set_bit(p)
            int_a |= 1 << p
        for p in other:
            bv_b.set_bit(p)
            int_b |= 1 << p
        assert bv_a.count_ones() == bin(int_a).count("1")
        assert (bv_a & bv_b).count_ones() == bin(int_a & int_b).count("1")
        assert (bv_a | bv_b).count_ones() == bin(int_a | int_b).count("1")
        assert bv_a.intersection_count(bv_b) == bin(int_a & int_b).count("1")
        np.testing.assert_array_equal(
            bv_a.set_positions(),
            np.array([i for i in range(200) if int_a >> i & 1],
                     dtype=np.int64))


class TestTreeProperties:
    @COMMON
    @given(
        namespace=st.integers(16, 600),
        depth=st.integers(0, 4),
        seed=st.integers(0, 3),
    )
    def test_laminar_structure(self, namespace, depth, seed):
        if (1 << depth) > namespace:
            depth = namespace.bit_length() - 1
        family = create_family("murmur3", 2, 1024, seed=seed)
        tree = BloomSampleTree.build(namespace, depth, family)
        for node in tree.iter_nodes():
            if tree.is_leaf(node):
                continue
            assert node.left.lo == node.lo
            assert node.right.hi == node.hi
            assert node.left.hi == node.right.lo
            assert node.bloom == node.left.bloom.union(node.right.bloom)

    @COMMON
    @given(items=st.sets(st.integers(0, NAMESPACE - 1), min_size=1,
                         max_size=48),
           seed=st.integers(0, 3))
    def test_sample_is_always_query_positive(self, items, seed, small_tree):
        family = small_tree.family
        # Project items into the fixture tree's namespace.
        values = np.array(sorted(i % small_tree.namespace_size
                                 for i in items), dtype=np.uint64)
        query = BloomFilter.from_items(np.unique(values), family)
        sampler = BSTSampler(small_tree, rng=seed)
        result = sampler.sample(query)
        assert result.value is not None
        assert result.value in query

    @COMMON
    @given(items=st.sets(st.integers(0, NAMESPACE - 1), max_size=48),
           seed=st.integers(0, 3))
    def test_exhaustive_reconstruction_equals_dictionary_attack(
            self, items, seed):
        family = _family(seed)
        tree = BloomSampleTree.build(NAMESPACE, 3, family)
        query = BloomFilter.from_items(
            np.array(sorted(items), dtype=np.uint64), family)
        bst = BSTReconstructor(tree, exhaustive=True).reconstruct(query)
        da, __ = DictionaryAttack(NAMESPACE).reconstruct(query)
        np.testing.assert_array_equal(bst.elements, da)
        for x in items:
            assert x in bst.elements


class TestInversionProperties:
    @COMMON
    @given(seed=st.integers(0, 10), k=st.integers(1, 4),
           position=st.integers(0, 255))
    def test_inversion_is_complete_preimage(self, seed, k, position):
        family = SimpleHashFamily(k, 256, NAMESPACE, seed=seed)
        xs = np.arange(NAMESPACE, dtype=np.uint64)
        positions = family.positions_many(xs)
        for i in range(k):
            expected = np.flatnonzero(positions[:, i] == position)
            got = family.invert(i, position, NAMESPACE)
            np.testing.assert_array_equal(got,
                                          expected.astype(np.uint64))


class TestFenwickProperties:
    @COMMON
    @given(
        weights=st.lists(
            st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=64),
        updates=st.lists(
            st.tuples(st.integers(0, 63), st.floats(0.0, 10.0)),
            max_size=20),
    )
    def test_matches_list_model(self, weights, updates):
        tree = FenwickTree.from_weights(np.array(weights))
        model = list(weights)
        for index, value in updates:
            index %= len(model)
            tree.set_weight(index, value)
            model[index] = value
        for i in range(len(model)):
            assert tree.prefix_sum(i) == pytest.approx(sum(model[: i + 1]))
        assert tree.alive_count == sum(1 for w in model if w > 0)
        alive = [i for i, w in enumerate(model) if w > 0]
        for rank, idx in enumerate(alive):
            assert tree.alive_select(rank) == idx
