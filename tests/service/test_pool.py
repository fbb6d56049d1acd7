"""ProcessShardPool: routing, leader-to-worker replication, cross-set algebra.

Every worker process attaches the whole promoted snapshot; the ring only
decides which worker serves a read.  So the pool's invariants are:
each read runs on the shard the consistent-hash ring names, every worker
answers any request exactly as the leader engine would, and every write
the leader acknowledges reaches every worker.  The write tests ask each
worker in turn (a pool whose reads are pinned to one chosen shard) and
compare against direct calls on the leader.
"""

import numpy as np
import pytest

from repro.api import (
    BackendCapabilityError,
    BloomDB,
    EngineConfig,
    SampleSpec,
)
from repro.obs.prometheus import parse_exposition
from repro.service import BatchPolicy, ProcessService, ProcessShardPool
from repro.service.client import encode_result

NAMESPACE = 8_000


class PinnedPool(ProcessShardPool):
    """A pool that routes every read to shard ``pin``."""

    pin = 0

    def _route(self, key: str) -> int:
        return self.pin


def ask_every_worker(pool: PinnedPool, op: str, names, **kwargs) -> list:
    """One answer per worker process for the same read."""
    answers = []
    for shard in range(pool.num_workers):
        pool.pin = shard
        answers.append(pool.submit(op, tuple(names), **kwargs).result(60))
    return answers


def direct_sample(db: BloomDB, name: str, rounds: int, seed: int) -> dict:
    """The wire dict of one seeded sample computed on ``db`` directly."""
    spec = SampleSpec(name, rounds, True, seed=seed, key="0")
    return encode_result(db.sample_many([spec]).ordered()[0])


def assert_workers_match_leader(pool: PinnedPool, names, seed: int = 0):
    """Every worker's seeded samples (values + OpCounters) and
    exhaustive reconstructions equal direct calls on the leader."""
    for i, name in enumerate(names):
        want = direct_sample(pool.leader, name, 4, seed + i)
        assert ask_every_worker(pool, "sample", (name,), rounds=4,
                                seed=seed + i) == [want] * pool.num_workers
    want = [encode_result(result) for result in
            pool.leader.store.reconstruct_many(names, exhaustive=True)]
    for i, name in enumerate(names):
        assert ask_every_worker(pool, "reconstruct", (name,),
                                exhaustive=True) == \
            [want[i]] * pool.num_workers


def build_db(workload, tree: str) -> BloomDB:
    """A compiled/delta engine over ``tree`` holding the workload."""
    db = BloomDB.from_config(EngineConfig(
        namespace_size=NAMESPACE, accuracy=0.9, set_size=150, seed=5,
        plan="compiled", mutation="delta", tree=tree))
    for name, ids in workload:
        db.add_set(name, ids)
    return db


def start_pinned(db: BloomDB, directory, workers: int) -> PinnedPool:
    pool = PinnedPool.from_engine(
        db, directory, workers, policy=BatchPolicy(max_delay_ms=1.0))
    return pool.start()


@pytest.fixture(scope="module")
def pinned(workload, tmp_path_factory):
    """Three workers over a dynamic tree; reads pinned by the test."""
    directory = tmp_path_factory.mktemp("pinned") / "engine"
    pool = start_pinned(build_db(workload, "dynamic"), directory, 3)
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def pruned_pinned(tmp_path_factory):
    """Two workers over an empty pruned tree; reads pinned by the test."""
    db = BloomDB.from_config(EngineConfig(
        namespace_size=16_000, accuracy=0.9, set_size=100, seed=3,
        plan="compiled", tree="pruned"))
    directory = tmp_path_factory.mktemp("pruned") / "engine"
    pool = start_pinned(db, directory, 2)
    yield pool
    pool.close()


def served_per_worker(pool: ProcessShardPool) -> list[float]:
    """``requests_served`` of every worker, from the fleet scrape."""
    counts = [0.0] * pool.num_workers
    families = parse_exposition(pool.metrics_text())
    family = families.get("requests_served_total", {"samples": []})
    for _, labels, value in family["samples"]:
        if labels:
            counts[int(labels["worker"])] = value
    return counts


def served_on(pool: ProcessShardPool, op: str, names, **kwargs) -> list:
    """Run one read; return how many requests each worker served for it."""
    before = served_per_worker(pool)
    pool.submit(op, tuple(names), **kwargs).result(60)
    return [after - was for after, was in
            zip(served_per_worker(pool), before)]


def owned_by(shard: int, workers: int) -> list[float]:
    """The one-request-on-``shard`` served delta."""
    return [1.0 if i == shard else 0.0 for i in range(workers)]


class TestRouting:
    def test_every_set_lands_on_its_ring_shard(self, served, workload):
        pool = served.client.pool
        owners = set()
        for name, _ in workload:
            shard = pool.shard_of(name)
            owners.add(shard)
            assert served_on(pool, "sample", (name,), rounds=2, seed=1) \
                == owned_by(shard, pool.num_workers)
        assert owners == set(range(pool.num_workers))

    def test_contains_routes_to_owner(self, served, workload):
        pool = served.client.pool
        for name, ids in workload:
            assert served_on(pool, "contains", (name,), x=int(ids[0])) == \
                owned_by(pool.shard_of(name), pool.num_workers)

    def test_union_routes_by_its_first_set(self, served, workload):
        pool = served.client.pool
        names = [name for name, _ in workload]
        first = next(n for n in names if pool.shard_of(n) == 0)
        other = next(n for n in names if pool.shard_of(n) == 1)
        for pair in ((first, other), (other, first)):
            assert served_on(pool, "sample_union", pair, seed=3) == \
                owned_by(pool.shard_of(pair[0]), pool.num_workers)


class TestStaticTreeSharing:
    def test_every_worker_holds_every_set(self, pinned, workload):
        for name, ids in workload:
            assert ask_every_worker(pinned, "contains", (name,),
                                    x=int(ids[0])) == \
                [{"contains": True}] * pinned.num_workers


class TestAlgebra:
    def test_union_matches_unsharded_store(self, pinned, workload):
        names = [n for n, _ in workload[:3]]
        want = encode_result(pinned.leader.store.sample_union(names, rng=7))
        assert ask_every_worker(pinned, "sample_union", names, seed=7) == \
            [want] * pinned.num_workers

    def test_intersection_matches_unsharded_store(self, pinned, workload):
        names = [n for n, _ in workload[:2]]
        want = encode_result(
            pinned.leader.store.sample_intersection(names, rng=7))
        assert ask_every_worker(pinned, "sample_intersection", names,
                                seed=7) == [want] * pinned.num_workers


class TestWriteBroadcast:
    """Every acknowledged leader write is visible on every worker."""

    def free_ids(self, pool, count: int) -> np.ndarray:
        return np.setdiff1d(np.arange(NAMESPACE, dtype=np.uint64),
                            pool.leader.occupied)[:count]

    def test_insert_broadcast_keeps_workers_identical(self, pinned,
                                                      workload):
        before = pinned.leader.occupied.size
        pinned.insert_ids(self.free_ids(pinned, 200))
        assert pinned.leader.occupied.size == before + 200
        assert_workers_match_leader(pinned, [n for n, _ in workload[:4]],
                                    seed=300)

    def test_retire_broadcast_keeps_workers_identical(self, pinned,
                                                      workload):
        victims = self.free_ids(pinned, 150)
        pinned.insert_ids(victims)
        before = pinned.leader.occupied.size
        pinned.retire_ids(victims)
        assert pinned.leader.occupied.size == before - 150
        assert not np.isin(victims, pinned.leader.occupied).any()
        assert_workers_match_leader(pinned, [n for n, _ in workload[:4]],
                                    seed=400)

    def test_pool_compact_folds_the_leader_delta(self, pinned, workload):
        pinned.compact()
        pinned.insert_ids(self.free_ids(pinned, 5))
        delta = pinned.leader.current_epoch().delta
        assert delta is not None and not delta.is_empty
        names = [n for n, _ in workload[:4]]
        before = [direct_sample(pinned.leader, n, 4, 500) for n in names]
        gen = pinned.epoch_state()["gen"]
        pinned.compact()
        delta = pinned.leader.current_epoch().delta
        assert delta is None or delta.is_empty
        assert pinned.epoch_state()["gen"] == gen + 1
        assert [direct_sample(pinned.leader, n, 4, 500)
                for n in names] == before
        assert_workers_match_leader(pinned, names, seed=500)

    def test_add_set_reaches_every_worker(self, pinned):
        ids = self.free_ids(pinned, 120)
        pinned.add_set("broadcast", ids)
        assert_workers_match_leader(pinned, ["broadcast"], seed=600)
        assert ask_every_worker(pinned, "contains", ("broadcast",),
                                x=int(ids[7])) == \
            [{"contains": True}] * pinned.num_workers

    def test_extend_and_drop_reach_every_worker(self, pinned):
        pinned.add_set("grow", np.arange(10, dtype=np.uint64))
        pinned.extend_set("grow", np.arange(10, 20, dtype=np.uint64))
        assert ask_every_worker(pinned, "contains", ("grow",), x=15) == \
            [{"contains": True}] * pinned.num_workers
        assert_workers_match_leader(pinned, ["grow"], seed=700)
        pinned.drop_set("grow")
        for shard in range(pinned.num_workers):
            pinned.pin = shard
            with pytest.raises(KeyError, match="grow"):
                pinned.submit("sample", ("grow",)).result(60)


class TestOccupancyBackends:
    def test_pruned_pool_broadcasts_occupancy(self, pruned_pinned):
        rng = np.random.default_rng(9)
        ids = rng.choice(16_000, 400, replace=False).astype(np.uint64)
        pruned_pinned.add_set("alpha", ids[:200])
        pruned_pinned.add_set("beta", ids[200:])
        assert pruned_pinned.leader.occupied.size == 400
        # Each worker's tree saw every id: cross-set queries agree with
        # the leader whichever worker executes them.
        want = encode_result(
            pruned_pinned.leader.store.sample_union(["alpha", "beta"],
                                                    rng=7))
        assert ask_every_worker(pruned_pinned, "sample_union",
                                ("alpha", "beta"), seed=7) == \
            [want] * pruned_pinned.num_workers
        assert_workers_match_leader(pruned_pinned, ["alpha", "beta"],
                                    seed=800)

    def test_retire_requires_remove_support(self, pruned_pinned):
        state = pruned_pinned.epoch_state()
        with pytest.raises(BackendCapabilityError, match="dynamic"):
            pruned_pinned.retire_ids(np.arange(60, 65, dtype=np.uint64))
        assert pruned_pinned.epoch_state() == state


class TestLifecycle:
    def test_from_engine_reshards_a_loaded_db(self, reference_db, workload,
                                              tmp_path):
        reference_db.save(tmp_path / "saved")
        loaded = BloomDB.load(tmp_path / "saved")
        pool = ProcessShardPool.from_engine(loaded, tmp_path / "served", 3)
        try:
            assert pool.num_workers == 3
            assert pool.leader.names() == reference_db.names()
            for name, _ in workload:
                want = reference_db.filter(name)
                got = pool.leader.filter(name)
                assert np.array_equal(got.bits.words, want.bits.words)
                # Copied, not aliased: the pool's leader owns its state.
                assert got is not loaded.filter(name)
            name = workload[0][0]
            pool.extend_set(name, np.arange(7_990, 8_000, dtype=np.uint64))
            assert pool.leader.contains(name, 7_995)
            assert np.array_equal(loaded.filter(name).bits.words,
                                  reference_db.filter(name).bits.words)
            assert not np.array_equal(pool.leader.filter(name).bits.words,
                                      loaded.filter(name).bits.words)
        finally:
            pool.close()

    def test_writes_before_start_reach_the_workers(self, workload,
                                                   tmp_path):
        """A write on an idle pool applies on the leader at once and is
        replayed by workers started afterwards."""
        db = build_db(workload, "dynamic")
        pool = PinnedPool.from_engine(db, tmp_path / "engine", 2)
        try:
            victims = db.occupied[:50]
            pool.retire_ids(victims)
            assert pool.leader.occupied.size == db.occupied.size - 50
            assert pool.epoch_state()["wal_seq"] == 1
            pool.start()
            assert_workers_match_leader(pool, [n for n, _ in workload[:3]],
                                        seed=900)
        finally:
            pool.close()

    def test_service_restarts_after_stop(self, reference_db, workload,
                                         tmp_path):
        pool = ProcessShardPool.from_engine(reference_db,
                                            tmp_path / "engine", 1)
        service = ProcessService(pool)
        try:
            with service:
                first = service.sample(workload[0][0], r=3, seed=4)
                pid = pool.workers_info()[0]["pid"]
            assert service.readyz()["ready"] is False
            with service:
                second = service.sample(workload[0][0], r=3, seed=4)
                assert service.readyz()["ready"] is True
                assert pool.workers_info()[0]["pid"] != pid
            assert first == second
        finally:
            service.close()
