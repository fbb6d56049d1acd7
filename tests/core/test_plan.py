"""CompiledTree structure, persistence and materialisation tests."""

import numpy as np
import pytest

from repro.api import BloomDB, EngineConfig
from repro.core import backend_key_of
from repro.core.mmapio import read_blob, write_blob
from repro.core.plan import NO_CHILD, CompiledTree, DescentRequest, descend_frontier
from repro.core.pruned import PrunedBloomSampleTree

NAMESPACE = 4_000


def build_db(tree="static", family="murmur3", seed=5):
    rng = np.random.default_rng(17)
    occupied = None
    universe = NAMESPACE
    if tree in ("pruned", "dynamic"):
        occupied = rng.choice(NAMESPACE, size=NAMESPACE // 4,
                              replace=False).astype(np.uint64)
        universe = occupied
    db = BloomDB.plan(namespace_size=NAMESPACE, accuracy=0.9, set_size=150,
                      family=family, tree=tree, seed=seed, occupied=occupied)
    ids = rng.choice(universe, size=150, replace=False)
    db.add_set("s0", np.asarray(ids, dtype=np.uint64))
    return db


class TestMmapIO:
    def test_roundtrip_mmap_and_copy(self, tmp_path):
        arrays = {
            "a": np.arange(100, dtype=np.uint64).reshape(10, 10),
            "b": np.array([1.5, -2.5]),
            "empty": np.empty((0, 7), dtype=np.int32),
        }
        path = tmp_path / "blob.bst"
        write_blob(path, {"hello": "world"}, arrays)
        for mmap in (True, False):
            meta, loaded = read_blob(path, mmap=mmap)
            assert meta == {"hello": "world"}
            for name, array in arrays.items():
                assert np.array_equal(loaded[name], array)
                assert loaded[name].dtype == array.dtype
        meta, mapped = read_blob(path, mmap=True)
        assert not mapped["a"].flags.writeable

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bst"
        path.write_bytes(b"not a blob at all")
        with pytest.raises(ValueError, match="bad magic"):
            read_blob(path)


class TestCompiledStructure:
    @pytest.mark.parametrize("tree", ["static", "pruned", "dynamic"])
    def test_level_order_and_children(self, tree):
        db = build_db(tree)
        plan = db.compiled_tree()
        assert plan.backend == tree
        assert plan.num_nodes == db.tree.num_nodes
        # Ascending slots are level order; children point forward.
        levels = plan.level.tolist()
        assert levels == sorted(levels)
        for slot in range(plan.num_nodes):
            for child in (int(plan.left[slot]), int(plan.right[slot])):
                if child != NO_CHILD:
                    assert child > slot
                    assert plan.level[child] == plan.level[slot] + 1
        # Packed popcounts match the node filters.
        assert np.array_equal(
            plan.ones, np.bitwise_count(plan.words).sum(axis=1))

    def test_leaf_candidates_match_tree(self):
        db = build_db("pruned")
        plan = db.compiled_tree()
        by_coord = {(n.level, n.index): n for n in db.tree.iter_nodes()}
        for slot in range(plan.num_nodes):
            if not plan.leaf[slot]:
                continue
            node = by_coord[(int(plan.level[slot]), int(plan.index[slot]))]
            assert np.array_equal(plan.candidates(slot),
                                  db.tree.candidate_elements(node))

    def test_empty_pruned_tree(self):
        from repro.core.bloom import BloomFilter

        db = BloomDB.plan(namespace_size=NAMESPACE, accuracy=0.9,
                          set_size=10, tree="pruned", seed=3)
        plan = db.compiled_tree()
        assert plan.num_nodes == 0
        result = descend_frontier(
            plan, [DescentRequest(BloomFilter(db.family), 5, rng=1)])[0]
        assert result.values == [] and result.shortfall == 5

    def test_incompatible_query_rejected(self):
        from repro.core.bloom import BloomFilter

        db = build_db("static")
        other = BloomDB.plan(namespace_size=NAMESPACE, accuracy=0.9,
                             set_size=150, seed=99)
        with pytest.raises(ValueError, match="incompatible"):
            db.compiled_tree().sample_many(
                BloomFilter(other.family), 4, rng=1)

    def test_bad_rounds_and_descent_rejected(self):
        db = build_db("static")
        plan = db.compiled_tree()
        with pytest.raises(ValueError, match="rounds must be positive"):
            plan.sample_many(db.filter("s0"), 0, rng=1)
        with pytest.raises(ValueError, match="descent"):
            plan.sample_many(db.filter("s0"), 4, rng=1, descent="magic")


class TestPlanPersistence:
    @pytest.mark.parametrize("tree", ["static", "pruned", "dynamic"])
    def test_save_load_sample_roundtrip(self, tree, tmp_path):
        db = build_db(tree)
        plan = db.compiled_tree()
        path = tmp_path / "plan.bst"
        plan.save(path)
        loaded = CompiledTree.load(path)
        assert loaded.backend == tree
        assert loaded.num_nodes == plan.num_nodes
        assert np.array_equal(np.asarray(loaded.words),
                              np.asarray(plan.words))
        query = db.filter("s0")
        want = plan.sample_many(query, 32, rng=np.random.default_rng(7))
        got = loaded.sample_many(query, 32, rng=np.random.default_rng(7))
        assert want.values == got.values
        assert want.ops == got.ops

    def test_loaded_words_are_memory_mapped(self, tmp_path):
        db = build_db("static")
        path = tmp_path / "plan.bst"
        db.compiled_tree().save(path)
        loaded = CompiledTree.load(path)
        assert isinstance(loaded.words, np.memmap)
        assert not loaded.words.flags.writeable

    @pytest.mark.parametrize("tree", ["static", "pruned", "dynamic"])
    def test_to_tree_matches_source(self, tree, tmp_path):
        db = build_db(tree)
        path = tmp_path / "plan.bst"
        db.compiled_tree().save(path)
        rebuilt = CompiledTree.load(path).to_tree()
        assert backend_key_of(rebuilt) == tree
        assert rebuilt.num_nodes == db.tree.num_nodes
        source = {(n.level, n.index): n for n in db.tree.iter_nodes()}
        for node in rebuilt.iter_nodes():
            twin = source[(node.level, node.index)]
            assert (node.lo, node.hi) == (twin.lo, twin.hi)
            assert np.array_equal(node.bloom.bits.words,
                                  twin.bloom.bits.words)

    def test_writable_to_tree_allows_insert(self, tmp_path):
        db = build_db("pruned")
        path = tmp_path / "plan.bst"
        db.compiled_tree().save(path)
        tree = CompiledTree.load(path).to_tree(writable=True)
        assert isinstance(tree, PrunedBloomSampleTree)
        fresh = int(np.setdiff1d(
            np.arange(NAMESPACE, dtype=np.uint64), tree.occupied)[0])
        tree.insert(fresh)  # must not raise on read-only buffers
        assert fresh in [int(x) for x in tree.occupied.tolist()[:1]] or \
            fresh in set(tree.occupied.tolist())


class TestEngineIntegration:
    def test_plan_invalidated_by_occupancy_change(self):
        db = build_db("pruned")
        first = db.compiled_tree()
        assert db.compiled_tree() is first  # cached
        fresh = np.setdiff1d(np.arange(NAMESPACE, dtype=np.uint64),
                             db.occupied)[:5]
        db.insert_ids(fresh)
        second = db.compiled_tree()
        assert second is not first
        assert second.num_nodes >= first.num_nodes

    def test_static_plan_cached(self):
        db = build_db("static")
        assert db.compiled_tree() is db.compiled_tree()

    def test_engine_config_plan_key(self):
        with pytest.raises(ValueError, match="execution plan"):
            EngineConfig(namespace_size=1000, plan="jit")
        config = EngineConfig(namespace_size=1000, plan="compiled")
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_compiled_save_load_is_lazy_and_identical(self, tmp_path):
        from repro.api.batch import SampleSpec

        db = build_db("static")
        compiled = BloomDB(
            EngineConfig(**{**db.config.to_dict(), "plan": "compiled"}),
            params=db.params, family=db.family, tree=db.tree)
        compiled.store.install("s0", db.filter("s0"))
        target = tmp_path / "engine"
        compiled.save(target)
        assert (target / "plan.bst").exists()
        assert (target / "sets.bst").exists()

        loaded = BloomDB.load(target)
        specs = [SampleSpec("s0", 16, seed=i, key=str(i)) for i in range(4)]
        want = db.sample_many(specs)
        got = loaded.sample_many(specs)
        assert all(want[str(i)].values == got[str(i)].values
                   for i in range(4))
        # Sampling through the plan must not have built the object graph.
        assert loaded._tree is None
        assert loaded.store._tree is None
        # ...but object-walking operations still work, and engine + store
        # share one materialisation.
        recon = loaded.reconstruct("s0")
        assert np.array_equal(recon.elements, db.reconstruct("s0").elements)
        assert loaded.store._tree is not None
        assert loaded.tree is loaded.store.tree

    def test_compiled_store_copy_on_write(self, tmp_path):
        db = build_db("static")
        compiled = BloomDB(
            EngineConfig(**{**db.config.to_dict(), "plan": "compiled"}),
            params=db.params, family=db.family, tree=db.tree)
        compiled.store.install("s0", db.filter("s0"))
        target = tmp_path / "engine"
        compiled.save(target)
        loaded = BloomDB.load(target)
        assert not loaded.filter("s0").bits.words.flags.writeable
        loaded.extend_set("s0", np.array([1, 2, 3], dtype=np.uint64))
        assert loaded.filter("s0").bits.words.flags.writeable
        assert loaded.contains("s0", 1)
