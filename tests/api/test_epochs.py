"""The epoch-versioned mutation pipeline of :class:`~repro.api.BloomDB`.

What the tentpole promises: occupancy mutations on a compiled engine
publish immutable :class:`~repro.api.EngineEpoch` snapshots behind one
atomic reference swap; compiled sampling keeps routing through
``descend_frontier`` (never a recompile, never the object-tree
fallback) while staying bit-identical to a from-scratch rebuild; and
``compact()`` folds the overlay away without changing a single bit.
"""

import threading

import numpy as np
import pytest

from repro.api import BloomDB, EngineConfig, SampleSpec
from repro.core import plan as plan_module

NAMESPACE = 12_000


def build_db(tree: str = "dynamic", compact_threshold: float = 0.5,
             occupied=None, install_from=None) -> BloomDB:
    rng = np.random.default_rng(9)
    if occupied is None:
        occupied = np.sort(rng.choice(NAMESPACE, 1_500,
                                      replace=False).astype(np.uint64))
    db = BloomDB(EngineConfig(
        namespace_size=NAMESPACE, accuracy=0.9, set_size=200,
        tree=tree, compact_threshold=compact_threshold, seed=5),
        occupied=occupied)
    if install_from is not None:
        for name in install_from.names():
            db.store.install(name, install_from.filter(name).copy())
    else:
        for i in range(4):
            db.add_set(f"s{i}", rng.choice(occupied, 200, replace=False))
    return db


def specs(seed_base: int = 0):
    return [SampleSpec(f"s{i}", 12, seed=seed_base + i, key=str(i))
            for i in range(4)]


def churn(db, seed: int = 1):
    rng = np.random.default_rng(seed)
    occupied = np.array(db.occupied)
    free = np.setdiff1d(np.arange(NAMESPACE, dtype=np.uint64), occupied)
    victims = rng.choice(occupied, 120, replace=False)
    fresh = rng.choice(free, 120, replace=False)
    db.retire_ids(victims)
    db.insert_ids(fresh)
    return victims, fresh


class TestEpochPublication:
    def test_epoch_ids_are_monotonic(self):
        db = build_db(compact_threshold=10.0)
        first = db.current_epoch()
        churn(db)
        second = db.current_epoch()
        assert second.epoch > first.epoch
        assert second.plan is first.plan  # same base, new delta
        assert second.delta is not None and not second.delta.is_empty

    def test_readers_pin_their_epoch(self):
        db = build_db()
        pinned = db.current_epoch()
        view_before = pinned.view()
        churn(db)
        # The pinned epoch (and its effective view) is untouched by the
        # mutation published behind it.
        assert pinned.view() is view_before
        assert db.current_epoch() is not pinned

    def test_mutation_never_recompiles_in_delta_mode(self, monkeypatch):
        db = build_db(compact_threshold=10.0)
        db.current_epoch()
        calls = []
        original = plan_module.CompiledTree.from_tree.__func__

        def counting_from_tree(cls, tree):
            calls.append(tree)
            return original(cls, tree)

        monkeypatch.setattr(plan_module.CompiledTree, "from_tree",
                            classmethod(counting_from_tree))
        churn(db)
        report = db.sample_many(specs())
        assert report.produced > 0
        assert not calls  # sampled through base ⊕ delta, no recompile


class TestBitIdentity:
    def test_churned_engine_matches_from_scratch_rebuild(self):
        db = build_db()
        db.current_epoch()
        churn(db)
        churn(db, seed=2)
        rebuilt = build_db(occupied=np.array(db.occupied), install_from=db)
        got = db.sample_many(specs(100))
        want = rebuilt.sample_many(specs(100))
        for i in range(4):
            assert got[str(i)].values == want[str(i)].values
            assert got[str(i)].ops == want[str(i)].ops

    def test_compact_is_bit_invisible(self):
        db = build_db(compact_threshold=10.0)  # no auto-compaction
        db.current_epoch()
        churn(db)
        before = db.sample_many(specs(3))
        epoch = db.current_epoch()
        assert epoch.delta is not None and not epoch.delta.is_empty
        db.compact()
        after_epoch = db.current_epoch()
        assert after_epoch.epoch > epoch.epoch
        assert after_epoch.delta is None
        after = db.sample_many(specs(3))
        for i in range(4):
            assert before[str(i)].values == after[str(i)].values
            assert before[str(i)].ops == after[str(i)].ops


class TestCompaction:
    def test_auto_compact_on_threshold(self):
        db = build_db(compact_threshold=0.01)
        db.current_epoch()
        churn(db)
        epoch = db.current_epoch()
        assert epoch.delta is None  # density crossed 0.01 -> compacted

    def test_compact_to_path_promotes_the_mmap(self, tmp_path):
        db = build_db(compact_threshold=10.0)
        db.current_epoch()
        churn(db)
        path = tmp_path / "plan.bst"
        fresh = db.compact(path)
        assert path.exists()
        assert not fresh.words.flags.writeable  # served plan is the map
        assert db.current_epoch().plan is fresh

    def test_save_folds_pending_delta(self, tmp_path):
        db = build_db(compact_threshold=10.0)
        db.current_epoch()
        churn(db)
        db.save(tmp_path / "engine")
        loaded = BloomDB.load(tmp_path / "engine")
        got = loaded.sample_many(specs(5))
        want = db.sample_many(specs(5))
        for i in range(4):
            assert got[str(i)].values == want[str(i)].values


class TestConcurrency:
    def test_concurrent_reads_during_mutations(self):
        """Readers never block, never crash, and every batch is
        internally consistent while a writer churns the engine."""
        db = build_db(compact_threshold=0.4)
        db.current_epoch()
        errors = []
        stop = threading.Event()

        def reader():
            i = 0
            while not stop.is_set():
                try:
                    report = db.sample_many(specs(i))
                    assert report.produced >= 0
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                i += 1

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for seed in range(8):
                churn(db, seed=seed + 10)
        finally:
            stop.set()
            for thread in threads:
                thread.join(10)
        assert not errors


class TestConfig:
    def test_compact_threshold_validation(self):
        with pytest.raises(ValueError, match="compact_threshold"):
            EngineConfig(namespace_size=1_000, compact_threshold=0.0)

    def test_knobs_roundtrip_through_save(self):
        config = EngineConfig(namespace_size=1_000, compact_threshold=0.25)
        assert EngineConfig.from_dict(config.to_dict()) == config


class TestChainBound:
    def test_hot_churn_bounds_the_epoch_chain(self):
        """Churn that re-dirties the same slots never raises density, so
        the chain-length cap must fold the overlay instead (regression:
        unbounded parent_frontier chains crashed frontier inheritance
        with RecursionError after ~1600 localized mutations)."""
        from repro.core.delta import MAX_EPOCH_CHAIN

        db = build_db(compact_threshold=10.0)
        db.current_epoch()
        hot = np.array(db.occupied)[:5]
        for _ in range(MAX_EPOCH_CHAIN + 10):
            db.retire_ids(hot)
            db.insert_ids(hot)
        epoch = db.current_epoch()
        assert (epoch.delta is None
                or epoch.delta.chain_length < MAX_EPOCH_CHAIN)
        # and a fresh-query read still works (no inheritance recursion)
        report = db.sample_many(specs(999))
        assert report.produced >= 0
