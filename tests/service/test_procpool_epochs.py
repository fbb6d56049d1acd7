"""Epoch-promotion races: concurrent writes never tear a read.

The serving invariant under concurrent mutation: every sampled answer is
bit-identical to the answer some *complete* engine state gives — the
state after write 0, 1, ... k — never a blend of two epochs.  A twin
engine replays the identical write sequence up front to enumerate those
reference states; the concurrent phase then checks every observed wire
dict is (a) exactly one of them and (b) monotone — a worker can lag the
leader by whole writes, but can never travel back in time or serve a
mixture.  Read-your-writes holds at the ack boundary: once a mutation
returns, the very next read reflects it.
"""

import threading

import numpy as np
import pytest

from repro.api import BloomDB, EngineConfig, SampleSpec
from repro.service import ProcessShardPool, procpool
from repro.service.client import encode_result
from repro.service.procpool import _WorkerAttachment, write_epoch_state

NAMESPACE = 8_000
ROUNDS = 8  # mutation rounds; references enumerate ROUNDS + 1 states
PROBE_SEED = 777


def build_db(workload, target_ids):
    config = EngineConfig(namespace_size=NAMESPACE, accuracy=0.9,
                          set_size=150, seed=5, tree="dynamic")
    db = BloomDB.from_config(config)
    for name, ids in workload:
        db.add_set(name, ids)
    db.add_set("t", target_ids)
    return db


def probe_reference(db):
    spec = SampleSpec("t", 4, False, seed=PROBE_SEED, key="probe")
    return encode_result(db.sample_many([spec]).ordered()[0])


@pytest.fixture()
def race_setup(workload, tmp_path):
    """Pool + write batches + per-state references from a twin engine."""
    rng = np.random.default_rng(1234)
    universe = rng.permutation(NAMESPACE).astype(np.uint64)
    target = universe[:100]
    batches = [universe[100 + 40 * k: 140 + 40 * k]
               for k in range(ROUNDS)]

    # The twin replays the exact write sequence the pool will see; its
    # auto-compaction decisions are deterministic, so state k here is
    # bit-identical to the leader (and every caught-up worker) at k.
    twin = build_db(workload, target)
    references = [probe_reference(twin)]
    for batch in batches:
        twin.extend_set("t", batch)
        references.append(probe_reference(twin))
    assert len({str(r) for r in references}) > 1, \
        "write batches must actually change the probe answer"

    pool = ProcessShardPool.from_engine(
        build_db(workload, target), tmp_path / "engine", 2)
    pool.start()
    yield pool, batches, references
    pool.close()


def probe_pool(pool):
    return pool.submit("sample", ("t",), rounds=4, replacement=False,
                       seed=PROBE_SEED).result(60)


class TestEpochPromotionRaces:
    def test_reads_are_read_your_writes_at_every_ack(self, race_setup):
        """Sequential form: after each ack the next read serves state k."""
        pool, batches, references = race_setup
        assert probe_pool(pool) == references[0]
        for k, batch in enumerate(batches):
            pool.extend_set("t", batch)
            assert probe_pool(pool) == references[k + 1]

    def test_concurrent_inserts_never_tear_a_read(self, race_setup):
        """The satellite race: writer hammers, reader never sees a blend."""
        pool, batches, references = race_setup
        failures = []
        done = threading.Event()

        def writer():
            try:
                for batch in batches:
                    pool.extend_set("t", batch)
            except Exception as exc:  # surface in the main thread
                failures.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        observed_states = []
        try:
            while not done.is_set():
                observed_states.append(references.index(probe_pool(pool)))
        finally:
            thread.join(timeout=60)
        assert not failures, failures[0]

        # Every observed dict indexed into the reference list — a torn
        # epoch would have raised ValueError above.  And state only
        # moves forward: lag is allowed, time travel is not.
        assert observed_states == sorted(observed_states)
        # Read-your-writes after the final ack.
        assert probe_pool(pool) == references[-1]

    def test_promotions_during_reads_serve_identical_answers(self,
                                                             race_setup):
        """Generation swaps mid-traffic are invisible to the answers."""
        pool, batches, references = race_setup
        failures = []
        done = threading.Event()

        def writer():
            try:
                for k, batch in enumerate(batches):
                    pool.extend_set("t", batch)
                    if k % 2 == 1:  # interleave full promotions
                        pool.compact()
            except Exception as exc:
                failures.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        observed_states = []
        try:
            while not done.is_set():
                observed_states.append(references.index(probe_pool(pool)))
        finally:
            thread.join(timeout=120)
        assert not failures, failures[0]
        assert observed_states == sorted(observed_states)

        final = probe_pool(pool)
        assert final == references[-1]
        # The promotions really happened: generation moved past 0.
        assert pool.epoch_state()["gen"] >= 2


class TestWorkerLogReads:
    """The worker's view of ``EPOCH`` + its log, forced into the two
    interleavings a concurrent leader produces (no processes needed:
    the attachment is driven in-process)."""

    def test_records_no_epoch_published_are_not_replayed(self, workload,
                                                         tmp_path):
        """Mid-fanout, a log holds records ``EPOCH`` has not published
        yet; replaying them early would serve half a write."""
        db = build_db(workload, np.arange(100, 200, dtype=np.uint64))
        pool = ProcessShardPool.from_engine(db, tmp_path / "engine", 1)
        try:
            pool._wals[0].append("add_set", np.arange(5, dtype=np.uint64),
                                 epoch=0, name="half")
            att = _WorkerAttachment(tmp_path / "engine", 0)
            att.attach()
            assert "half" not in att.db.names()
            write_epoch_state(tmp_path / "engine",
                              dict(pool.epoch_state(), wal_seq=1))
            att.refresh()
            assert "half" in att.db.names()
            assert att.status()["applied"] == 1
        finally:
            pool.close()

    def test_a_log_reset_for_a_newer_generation_is_not_replayed(
            self, workload, tmp_path, monkeypatch):
        """The leader resets the logs before it publishes a generation;
        a worker holding the older ``EPOCH`` must not replay the new
        log onto the old snapshot, but retry until the two agree."""
        db = build_db(workload, np.arange(100, 200, dtype=np.uint64))
        pool = ProcessShardPool.from_engine(db, tmp_path / "engine", 1)
        try:
            att = _WorkerAttachment(tmp_path / "engine", 0)
            att.attach()
            stale = dict(pool.epoch_state(), wal_seq=1)
            pool.drop_set("set0")  # promotes generation 1
            pool.add_set("fresh", np.arange(300, 340, dtype=np.uint64))
            reads = iter([stale, stale])
            real = procpool.read_epoch_state
            monkeypatch.setattr(
                procpool, "read_epoch_state",
                lambda directory: next(reads, None) or real(directory))
            att.refresh()
            assert att.state["gen"] == pool.epoch_state()["gen"] == 1
            assert "set0" not in att.db.names()
            assert "fresh" in att.db.names()
        finally:
            pool.close()
