"""Fault injection for the process pool: kill -9 a worker, keep serving.

The contract under a worker SIGKILL:

* reads in flight on the dead worker are re-sent once to a live worker
  and answered bit-identically; with no live worker left they fail
  with a *clean* 503 (:class:`WorkerDiedError` →
  ``ServiceOverloadedError`` → retryable), never a hang or a torn
  result;
* new reads of the dead worker's sets route to a live worker, and
  requests on every other worker complete normally;
* the pool detects the death, respawns the worker, and the replacement
  replays its per-worker mutation log — so post-respawn answers are
  bit-identical to pre-kill answers, volatile or durable.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.api import BloomDB, EngineConfig, SampleSpec
from repro.service import (
    ProcessShardPool,
    ServiceOverloadedError,
    WorkerDiedError,
)
from repro.service.client import encode_result
from repro.service.http import status_for

NAMESPACE = 8_000
_RESPAWN_DEADLINE_S = 30.0


@pytest.fixture()
def volatile_pool(workload, tmp_path):
    config = EngineConfig(namespace_size=NAMESPACE, accuracy=0.9,
                          set_size=150, seed=5, tree="dynamic")
    db = BloomDB.from_config(config)
    for name, ids in workload:
        db.add_set(name, ids)
    pool = ProcessShardPool.from_engine(db, tmp_path / "engine", 2)
    pool.start()
    yield pool
    pool.close()


def probe(pool, name, seed=4242):
    return pool.submit("sample", (name,), rounds=3, replacement=False,
                       seed=seed).result(60)


def reference(pool, name, seed=4242):
    spec = SampleSpec(name, 3, False, seed=seed, key="ref")
    return encode_result(pool.leader.sample_many([spec]).ordered()[0])


def names_by_shard(pool, workload):
    """One set name per worker shard (consistent hash spreads 8 names)."""
    owners = {}
    for name, _ in workload:
        owners.setdefault(pool.shard_of(name), name)
    assert len(owners) == pool.num_workers, "workload missed a shard"
    return owners


def wait_for_respawn(pool, shard, restarts_before):
    deadline = time.monotonic() + _RESPAWN_DEADLINE_S
    while time.monotonic() < deadline:
        info = pool.workers_info()[shard]
        if info["alive"] and info["restarts"] > restarts_before:
            return info
        time.sleep(0.05)
    raise AssertionError(f"shard {shard} was not respawned in time")


class TestWorkerDeathIsA503:
    def test_worker_died_maps_to_service_overloaded_503(self):
        exc = WorkerDiedError("shard 0 worker process died")
        assert isinstance(exc, ServiceOverloadedError)
        assert status_for(exc) == 503

    def test_kill_nine_redispatches_inflight_reads_and_reroutes_new_ones(
            self, volatile_pool, workload):
        pool = volatile_pool
        owners = names_by_shard(pool, workload)
        victim_shard = 0
        victim_name = owners[victim_shard]
        other_name = owners[1]
        want_victim = reference(pool, victim_name)
        want_other = reference(pool, other_name)
        assert probe(pool, victim_name) == want_victim  # warm both workers
        assert probe(pool, other_name) == want_other

        restarts_before = pool.workers_info()[victim_shard]["restarts"]
        pid = pool.workers_info()[victim_shard]["pid"]
        os.kill(pid, signal.SIGSTOP)  # hold a read in flight on the victim
        inflight = pool.submit("sample", (victim_name,), rounds=3,
                               replacement=False, seed=4242)
        assert pool.kill_worker(victim_shard) == pid
        # The read the dead worker held is answered by the other worker,
        # bit for bit — never a hang, never a torn result.
        assert inflight.result(60) == want_victim

        # Its set keeps answering, bit for bit, from the other worker
        # while the victim respawns; the sibling's own sets too.
        assert probe(pool, victim_name) == want_victim
        assert probe(pool, other_name) == want_other

        info = wait_for_respawn(pool, victim_shard, restarts_before)
        assert info["pid"] != pid
        assert probe(pool, victim_name) == want_victim

    def test_respawned_worker_replays_buffered_mutations(
            self, volatile_pool, workload):
        """Writes after the last promotion survive the respawn (volatile).

        The replacement worker attaches to the promoted generation and
        replays its per-worker log, so un-promoted set mutations are
        still visible — bit-identical to the leader.
        """
        pool = volatile_pool
        rng = np.random.default_rng(99)
        fresh = rng.choice(NAMESPACE, size=120, replace=False)
        pool.add_set("post-promotion", fresh.astype(np.uint64))
        want = reference(pool, "post-promotion", seed=31337)
        assert probe(pool, "post-promotion", seed=31337) == want

        shard = pool.shard_of("post-promotion")
        restarts_before = pool.workers_info()[shard]["restarts"]
        pool.kill_worker(shard)
        wait_for_respawn(pool, shard, restarts_before)
        assert probe(pool, "post-promotion", seed=31337) == want


class TestFailedStart:
    def test_worker_dying_before_it_attaches_fails_start_at_once(
            self, workload, tmp_path):
        """A worker that exits before it attaches is not respawned:
        start() raises at once, naming it and its exit code, and leaves
        no worker process or pump thread (it used to wait out the whole
        ready timeout while the pump respawned the worker in a loop that
        outlived stop() and close())."""
        db = BloomDB.from_config(EngineConfig(
            namespace_size=NAMESPACE, accuracy=0.9, set_size=150, seed=5,
            tree="dynamic"))
        for name, ids in workload:
            db.add_set(name, ids)
        pool = ProcessShardPool.from_engine(db, tmp_path / "engine", 1)
        (tmp_path / "engine" / "plan.g000000.bst").unlink()
        started = time.monotonic()
        with pytest.raises(RuntimeError,
                           match="worker 0 exited with code 1 before it "
                                 "attached"):
            pool.start()
        assert time.monotonic() - started < _RESPAWN_DEADLINE_S
        pool.stop()
        pool.close()
        time.sleep(0.3)  # a respawn would have been spawned by now
        handle = pool._workers[0]
        assert handle.restarts == 0
        assert not handle.process.is_alive()
        assert not handle.pump.is_alive()
        assert pool.metrics.export()["counters"].get(
            "worker_restarts", {}) == {}

    def test_respawns_that_never_attach_stop_after_three(self, workload,
                                                         tmp_path):
        """A worker whose respawns keep exiting before they attach is
        respawned three times, then left down and unroutable (it used to
        be respawned once per worker import until stop())."""
        db = BloomDB.from_config(EngineConfig(
            namespace_size=NAMESPACE, accuracy=0.9, set_size=150, seed=5,
            tree="dynamic"))
        for name, ids in workload:
            db.add_set(name, ids)
        pool = ProcessShardPool.from_engine(db, tmp_path / "engine", 1)
        pool.start()
        try:
            (tmp_path / "engine" / "plan.g000000.bst").unlink()
            pool.kill_worker(0)
            deadline = time.monotonic() + 4 * _RESPAWN_DEADLINE_S
            while time.monotonic() < deadline:
                handle = pool._workers[0]
                if (handle.restarts >= 3 and not handle.process.is_alive()
                        and not handle.pump.is_alive()):
                    break
                time.sleep(0.05)
            handle = pool._workers[0]
            assert handle.restarts == 3
            assert not handle.pump.is_alive()  # nothing left to respawn
            assert pool.readyz()["ready"] is False
            assert pool.readyz()["alive"] == 0
        finally:
            pool.stop()
            pool.close()
        handle = pool._workers[0]
        assert handle.restarts == 3
        assert not handle.process.is_alive()
        assert not handle.pump.is_alive()


class TestDurableDeathAndRecovery:
    def test_kill_nine_then_replay_is_bit_identical(self, tmp_path):
        config = EngineConfig(namespace_size=NAMESPACE, accuracy=0.9,
                              set_size=150, seed=5, tree="dynamic")
        pool = ProcessShardPool(tmp_path / "durable", 2, durable=True,
                                config=config)
        pool.start()
        try:
            rng = np.random.default_rng(7)
            pool.add_set(
                "t", rng.choice(NAMESPACE, 150, replace=False).astype(
                    np.uint64))
            pool.insert_ids(
                rng.choice(NAMESPACE, 64, replace=False).astype(np.uint64))
            want = reference(pool, "t", seed=555)
            assert probe(pool, "t", seed=555) == want

            shard = pool.shard_of("t")
            restarts_before = pool.workers_info()[shard]["restarts"]
            pool.kill_worker(shard)
            wait_for_respawn(pool, shard, restarts_before)
            # The replacement replayed its WAL: acknowledged writes are
            # visible and the seeded answer is unchanged, bit for bit.
            assert probe(pool, "t", seed=555) == want

            # A durable checkpoint (promotion) afterwards still serves
            # the identical answer from the fresh generation.
            pool.checkpoint()
            assert probe(pool, "t", seed=555) == want
        finally:
            pool.close()
