"""Golden equivalence: compiled descend_frontier vs. the recursive sampler.

The acceptance bar for the compiled-plan layer: across every hash family
x tree backend x replacement setting, :func:`repro.core.plan.descend_frontier`
must produce *bit-for-bit* the same samples — and the same op counts — as
:meth:`repro.core.sampling.BSTSampler.sample_many` fed the same per-query
RNG stream, and the engine's batched path must match the recursive
sampler spec-for-spec (seeded and shared-stream).
"""

import numpy as np
import pytest

from repro.api import BloomDB
from repro.api.batch import SampleSpec
from repro.core.kernels import PositionCache
from repro.core.plan import CompiledTree, DescentRequest, descend_frontier
from repro.core.sampling import BSTSampler

NAMESPACE = 4_000
SET_SIZE = 120
NUM_SETS = 3

FAMILIES = ["simple", "murmur3", "md5"]
BACKENDS = ["static", "pruned", "dynamic"]


def build_db(family: str, tree: str) -> BloomDB:
    rng = np.random.default_rng(11)
    occupied = None
    universe = NAMESPACE
    if tree in ("pruned", "dynamic"):
        occupied = rng.choice(NAMESPACE, size=NAMESPACE // 4,
                              replace=False).astype(np.uint64)
        universe = occupied
    db = BloomDB.plan(
        namespace_size=NAMESPACE, accuracy=0.9, set_size=SET_SIZE,
        family=family, tree=tree, seed=5, occupied=occupied,
    )
    for i in range(NUM_SETS):
        if isinstance(universe, np.ndarray):
            ids = rng.choice(universe, size=SET_SIZE, replace=False)
        else:
            ids = rng.choice(universe, size=SET_SIZE,
                             replace=False).astype(np.uint64)
        db.add_set(f"g{i}", ids)
    return db


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("replacement", [True, False])
class TestDescendFrontierGolden:
    def test_bit_identical_to_recursive(self, family, backend, replacement):
        db = build_db(family, backend)
        plan = db.compiled_tree()
        for descent in ("threshold", "floored"):
            for name in db.names():
                # A fresh seeded sampler per set so both sides consume
                # identical streams.
                query = db.filter(name)
                sampler = BSTSampler(db.tree,
                                     rng=np.random.default_rng(123),
                                     descent=descent)
                want = sampler.sample_many(query, 40, replacement)
                got = plan.sample_many(
                    query, 40, replacement,
                    rng=np.random.default_rng(123), descent=descent)
                assert want.values == got.values
                assert want.ops == got.ops
                assert want.shortfall == got.shortfall


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("backend", BACKENDS)
class TestEnginePlansGolden:
    def test_seeded_specs_match_the_recursive_oracle(self, family, backend):
        db = build_db(family, backend)
        specs = [SampleSpec(f"g{i % NUM_SETS}", 8 + i, seed=100 + i,
                            replacement=bool(i % 2), key=str(i))
                 for i in range(9)]
        got = db.sample_many(specs)
        # The oracle: one seeded recursive sampler per request over one
        # shared position cache.
        cache = PositionCache(db.tree)
        for spec in specs:
            want = BSTSampler(
                db.tree, db.config.threshold, np.random.default_rng(spec.seed),
                db.config.descent).sample_many(
                    db.filter(spec.name), spec.rounds, spec.replacement,
                    position_cache=cache)
            assert want.values == got[spec.key].values
            assert want.ops == got[spec.key].ops

    def test_shared_stream_batches_match_the_recursive_oracle(self, family,
                                                              backend):
        # Unseeded requests draw from the engine's shared stream; the
        # compiled batch must consume it exactly like the store's
        # recursive sampler, batch after batch.
        db = build_db(family, backend)
        oracle = build_db(family, backend)
        for replacement in (True, False, True):
            got = db.sample_many(r=20, replacement=replacement)
            for name in oracle.names():
                want = oracle.store.sample_many(name, 20, replacement)
                assert want.values == got[name].values
                assert want.ops == got[name].ops


class TestBatchSemantics:
    def test_duplicate_queries_share_frontier_but_not_results(self):
        db = build_db("murmur3", "static")
        plan = db.compiled_tree()
        query = db.filter("g0")
        requests = [DescentRequest(query, 16, rng=seed)
                    for seed in (1, 2, 1)]
        first, second, third = descend_frontier(plan, requests)
        assert first.values == third.values  # same seed, same stream
        assert first.values != second.values or first.ops != second.ops

    def test_frontier_cache_hit_is_bit_identical(self):
        db = build_db("murmur3", "static")
        plan = db.compiled_tree()
        query = db.filter("g1")
        cold = plan.sample_many(query, 24, rng=np.random.default_rng(5))
        warm = plan.sample_many(query, 24, rng=np.random.default_rng(5))
        assert cold.values == warm.values
        assert cold.ops == warm.ops

    def test_empty_request_list(self):
        db = build_db("murmur3", "static")
        assert descend_frontier(db.compiled_tree(), []) == []


class TestMmapRoundtripGolden:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_save_mmap_load_sample_roundtrip(self, backend, tmp_path):
        db = build_db("murmur3", backend)
        path = tmp_path / "plan.bst"
        db.compiled_tree().save(path)
        loaded = CompiledTree.load(path, mmap=True)
        for name in db.names():
            query = db.filter(name)
            want = BSTSampler(
                db.tree, rng=np.random.default_rng(31)).sample_many(
                    query, 25, False)
            got = loaded.sample_many(query, 25, False,
                                     rng=np.random.default_rng(31))
            assert want.values == got.values
            assert want.ops == got.ops
