"""Cross-process bit-identity: the serving tier's correctness property.

The same seeded request batch must produce identical values *and*
operation counters through direct engine calls, a 1-process pool, a
4-process pool and a replicated (R=2) pool — on every tree backend.
Identity holds because every stochastic request carries its own seed,
every worker dispatches through the same batched kernels over the same
compiled plan, and worker processes replay the leader's mutations
through the recovery core — so batch composition, worker count and the
replica that served a read are all unobservable.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.api import BloomDB, EngineConfig, SampleSpec
from repro.replication import ReplicatedShardPool
from repro.service import BatchPolicy, ProcessService, ProcessShardPool
from repro.service.client import encode_result
from repro.service.procpool import (
    EPOCH_FILE,
    WORKER_WAL_DIR,
    read_epoch_state,
)

NAMESPACE = 8_000


def build_compiled(workload, tree: str) -> BloomDB:
    """A compiled/delta engine over ``tree`` holding the workload."""
    db = BloomDB.from_config(EngineConfig(
        namespace_size=NAMESPACE, accuracy=0.9, set_size=150, seed=5,
        plan="compiled", mutation="delta", tree=tree))
    for name, ids in workload:
        db.add_set(name, ids)
    return db


@pytest.fixture(scope="module")
def compiled_db(workload) -> BloomDB:
    return build_compiled(workload, "dynamic")


@pytest.fixture(scope="module")
def serving_dir(compiled_db, tmp_path_factory) -> pathlib.Path:
    directory = tmp_path_factory.mktemp("procpool") / "engine"
    compiled_db.save(directory)
    return directory


#: The seeded request batch every pool executes (mixed rounds,
#: replacement modes and seeds across all eight sets).
def request_plan(names):
    return [
        dict(name=names[i % len(names)], rounds=1 + i % 5,
             replacement=(i % 3 != 0), seed=20_000 + i)
        for i in range(48)
    ]


def run_direct(db, plan):
    specs = [SampleSpec(r["name"], r["rounds"], r["replacement"],
                        seed=r["seed"], key=str(i))
             for i, r in enumerate(plan)]
    return [encode_result(res) for res in db.sample_many(specs).ordered()]


def submit_plan(pool, plan):
    futures = [pool.submit("sample", (r["name"],), rounds=r["rounds"],
                           replacement=r["replacement"], seed=r["seed"])
               for r in plan]
    return [f.result(60) for f in futures]


#: Pool shapes the identity property sweeps: one worker, four workers,
#: and one shard group of two replicas (reads round-robin over both).
TOPOLOGIES = {
    "1-worker": lambda d: ProcessShardPool(
        d, 1, policy=BatchPolicy(max_batch=64, max_delay_ms=1.0)),
    "4-workers": lambda d: ProcessShardPool(
        d, 4, policy=BatchPolicy(max_batch=64, max_delay_ms=1.0)),
    "replicated-R2": lambda d: ReplicatedShardPool(
        d, 1, replication=2, heartbeat_s=0.05,
        policy=BatchPolicy(max_batch=64, max_delay_ms=1.0)),
}


#: Every tree backend through 1 and 4 workers, plus one replicated run
#: on the backend with the most mutable state.
CASES = [(tree, topology) for tree in ("static", "pruned", "dynamic")
         for topology in ("1-worker", "4-workers")] + [
    ("dynamic", "replicated-R2")]


class TestCrossProcessBitIdentity:
    @pytest.mark.parametrize("tree,topology", CASES)
    def test_pool_answers_equal_direct_engine_calls(self, tree, topology,
                                                    workload, tmp_path):
        """Samples (values + OpCounters), reconstructions and
        membership answers all equal direct engine calls."""
        db = build_compiled(workload, tree)
        names = [name for name, _ in workload]
        plan = request_plan(names)
        db.save(tmp_path / "engine")
        pool = TOPOLOGIES[topology](tmp_path / "engine")
        pool.start()
        try:
            # Dict equality covers values, requested, shortfall AND the
            # OpCounter payload (intersections/memberships/nodes/backtracks).
            assert submit_plan(pool, plan) == run_direct(db, plan)
            for exhaustive in (False, True):
                futures = [pool.submit("reconstruct", (name,),
                                       exhaustive=exhaustive)
                           for name in names]
                want = db.store.reconstruct_many(names,
                                                 exhaustive=exhaustive)
                assert [f.result(60) for f in futures] == \
                    [encode_result(result) for result in want]
            for name, ids in workload[:3]:
                for x in (int(ids[0]), int(ids[-1]), NAMESPACE - 1):
                    got = pool.submit("contains", (name,), x=x).result(60)
                    assert got == {"contains": db.contains(name, x)}
        finally:
            pool.close()


class TestServingDirectoryProtocol:
    def test_epoch_file_is_written_and_json(self, serving_dir):
        pool = ProcessShardPool(serving_dir, 2)
        try:
            state = read_epoch_state(serving_dir)
            assert state == pool.epoch_state()
            for key in ("gen", "epoch", "wal_seq", "snapshot_epoch",
                        "plan", "sets", "workers"):
                assert key in state
            # The EPOCH names a generation pair that actually exists.
            assert (serving_dir / state["plan"]).exists()
            assert (serving_dir / state["sets"]).exists()
            raw = json.loads((serving_dir / EPOCH_FILE).read_text())
            assert raw == state
        finally:
            pool.close()

    def test_generation_pair_shares_inodes_with_canonical(self, serving_dir):
        """Promotion hardlinks — one physical snapshot, two names."""
        pool = ProcessShardPool(serving_dir, 2)
        try:
            state = pool.epoch_state()
            assert (serving_dir / state["plan"]).stat().st_ino == \
                (serving_dir / "plan.bst").stat().st_ino
            assert (serving_dir / state["sets"]).stat().st_ino == \
                (serving_dir / "sets.bst").stat().st_ino
        finally:
            pool.close()

    def test_promotion_bumps_generation_and_resets_worker_logs(
            self, serving_dir):
        pool = ProcessShardPool(serving_dir, 2)
        pool.start()
        try:
            before = pool.epoch_state()
            pool.insert_ids(np.array([7000, 7001], dtype=np.uint64))
            assert pool.epoch_state()["wal_seq"] == 1
            pool.compact()
            after = pool.epoch_state()
            assert after["gen"] == before["gen"] + 1
            assert after["wal_seq"] == 0
            assert after["plan"] != before["plan"]
            # Per-worker logs exist, one directory per worker process.
            wal_root = serving_dir / WORKER_WAL_DIR
            assert sorted(p.name for p in wal_root.iterdir()) == ["00", "01"]
        finally:
            pool.close()

    def test_membership_changes_preserve_results(self, serving_dir,
                                                 compiled_db, workload):
        """Grow then shrink the ring; seeded results never change."""
        names = [name for name, _ in workload]
        plan = request_plan(names)[:12]
        direct = run_direct(compiled_db, plan)

        pool = ProcessShardPool(serving_dir, 2)
        pool.start()
        try:
            def probe():
                futures = [pool.submit("sample", (r["name"],),
                                       rounds=r["rounds"],
                                       replacement=r["replacement"],
                                       seed=r["seed"]) for r in plan]
                return [f.result(60) for f in futures]

            assert probe() == direct
            assert pool.add_worker() == 3
            assert probe() == direct
            assert pool.remove_worker() == 2
            assert probe() == direct
        finally:
            pool.close()


class TestGuardRails:
    def test_from_engine_rejects_object_plans(self, tmp_path, workload):
        db = BloomDB(EngineConfig(namespace_size=NAMESPACE, seed=5))
        with pytest.raises(ValueError, match="compiled"):
            ProcessShardPool.from_engine(db, tmp_path / "nope")

    def test_load_rejects_object_plan_directories(self, tmp_path):
        db = BloomDB(EngineConfig(namespace_size=NAMESPACE, seed=5))
        db.add_set("s", np.arange(10, dtype=np.uint64))
        db.save(tmp_path / "objects")
        with pytest.raises(ValueError, match="compiled"):
            ProcessShardPool(tmp_path / "objects", 2)

    def test_invalid_worker_count(self, serving_dir):
        with pytest.raises(ValueError, match="at least one worker"):
            ProcessShardPool(serving_dir, 0)

    def test_submit_before_start_is_rejected(self, serving_dir):
        pool = ProcessShardPool(serving_dir, 1)
        with pytest.raises(RuntimeError, match="not started"):
            pool.submit("sample", ("set0",))
        pool.close()

    def test_submit_rejects_malformed_reads(self, serving_dir):
        pool = ProcessShardPool(serving_dir, 1)
        pool.start()
        try:
            with pytest.raises(ValueError, match="unknown read op"):
                pool.submit("insert", ("set0",))
            with pytest.raises(ValueError, match="rounds"):
                pool.submit("sample", ("set0",), rounds=0)
            with pytest.raises(ValueError, match="seed"):
                pool.submit("sample", ("set0",), seed=-1)
            for op in ("reconstruct", "sample_union", "sample_intersection"):
                with pytest.raises(ValueError, match="set name"):
                    pool.submit(op, ())
            for op in ("sample_union", "sample_intersection"):
                with pytest.raises(ValueError, match="two set names"):
                    pool.submit(op, ("set0",))
            assert pool.workers_info()[0]["restarts"] == 0
        finally:
            pool.close()
        with pytest.raises(RuntimeError, match="not started"):
            pool.submit("sample", ("set0",))

    def test_unknown_set_maps_to_keyerror(self, serving_dir):
        pool = ProcessShardPool(serving_dir, 1)
        service = ProcessService(pool).start()
        try:
            with pytest.raises(KeyError, match="no-such-set"):
                service.sample("no-such-set")
        finally:
            service.close()

    def test_checkpoint_requires_durable_pool(self, serving_dir):
        from repro.api import DurabilityError

        pool = ProcessShardPool(serving_dir, 1)
        try:
            with pytest.raises(DurabilityError, match="durable"):
                pool.checkpoint()
        finally:
            pool.close()
