"""The chaos property: a faulted pool answers like a never-crashed one.

A seeded :class:`~repro.faultinject.FaultSchedule` drives kills, hangs
and pipe drops, each aimed at one worker, against a durable pool while
writes and seeded reads flow.  The property, checked continuously
and again after healing:

* every acknowledged write is durable — visible after any fault, after
  a full stop, and after a torn-WAL-tail recovery;
* every seeded read is bit-identical (values *and* OpCounters) to a
  reference engine that ran the same writes and never crashed.

The schedule reproduces from its seed alone; a failure here names the
seed, so the exact fault sequence replays in isolation.
"""

import time

import numpy as np

from repro.api import BloomDB, SampleSpec
from repro.durability.wal import WriteAheadLog
from repro.faultinject import FaultInjector, FaultSchedule, tear_wal_tail
from repro.service import ProcessShardPool, ServiceOverloadedError
from repro.service.client import encode_result
from tests.service.conftest import probe_via, wait_until

CHAOS_SEED = 20260808
STEPS = 20


def ref_answer(db: BloomDB, name: str, seed: int) -> dict:
    spec = SampleSpec(name, 3, False, seed=seed, key="ref")
    return encode_result(db.sample_many([spec]).ordered()[0])


def probe_with_retry(pool, name: str, seed: int, deadline_s: float = 60.0,
                     worker: int | None = None):
    """A seeded read that outlives faults: 503s retry, nothing hangs."""
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            if worker is not None:
                return probe_via(pool, worker, name, seed=seed)
            return pool.submit("sample", (name,), rounds=3,
                               replacement=False, seed=seed).result(60)
        except ServiceOverloadedError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def chaos_ids(step: int) -> np.ndarray:
    rng = np.random.default_rng(1_000 + step)
    return rng.choice(8_000, 60, replace=False).astype(np.uint64)


def test_chaos_schedule_preserves_acked_writes_and_bit_identity(
        fault_config, tmp_path):
    schedule = FaultSchedule.generate(CHAOS_SEED, steps=STEPS, workers=3,
                                      rate=0.35)
    assert {e.kind for e in schedule.events} == {"kill9", "hang",
                                                 "pipe_drop"}, \
        "the schedule must exercise every fault kind"

    reference = BloomDB.from_config(fault_config)
    pool = ProcessShardPool(
        tmp_path / "ring", 3, durable=True, config=fault_config,
        heartbeat_s=0.05, hang_timeout_s=1.0)
    pool.start()
    injector = FaultInjector(pool)

    try:
        for step in range(STEPS):
            for event in schedule.at(step):
                try:
                    injector.apply(event)
                except (ValueError, ProcessLookupError):
                    pass  # the worker is mid-respawn; the fault misses

            # Writes go through the parent-side write leader, so they
            # are acknowledged even mid-fault — and mirrored into the
            # never-crashed reference.
            name = f"chaos{step}"
            ids = chaos_ids(step)
            pool.add_set(name, ids)
            reference.add_set(name, ids)

            # Read-your-writes under fire, bit-identical to the
            # reference at the same logical state.
            assert probe_with_retry(pool, name, seed=500 + step) == \
                ref_answer(reference, name, seed=500 + step), \
                f"divergence at step {step} (schedule seed {CHAOS_SEED})"

        injector.clear()
        wait_until(lambda: pool.readyz()["ready"], deadline_s=60.0,
                   message="pool never healed after the chaos schedule")

        # Healed sweep: every acked write, read through every worker,
        # matches the reference exactly.
        for step in range(STEPS):
            name = f"chaos{step}"
            want = ref_answer(reference, name, seed=900 + step)
            for worker in range(pool.num_workers):
                assert probe_with_retry(pool, name, seed=900 + step,
                                        worker=worker) == want
    finally:
        injector.clear()
        pool.close()

    # -- torn-tail recovery: the offline half of the crash story -----------
    # Simulate a crash mid-append: an extra record lands in the durable
    # WAL but is torn before it is whole (it was never acknowledged).
    wal = WriteAheadLog(tmp_path / "ring" / "wal")
    wal.append("add_set", chaos_ids(99), epoch=999_999, name="never-acked")
    wal.flush()
    wal.close()
    tear_wal_tail(tmp_path / "ring" / "wal")

    revived = ProcessShardPool(
        tmp_path / "ring", 3, durable=True, config=fault_config,
        heartbeat_s=0.05, hang_timeout_s=1.0)
    revived.start()
    try:
        wait_until(lambda: revived.readyz()["ready"], deadline_s=60.0,
                   message="pool never became ready after recovery")
        # The torn, unacknowledged record is gone; every acked write
        # survived, still bit-identical to the never-crashed reference.
        assert "never-acked" not in revived.leader.names()
        assert sorted(revived.leader.names()) == sorted(reference.names())
        for step in range(STEPS):
            name = f"chaos{step}"
            assert probe_with_retry(revived, name, seed=700 + step) == \
                ref_answer(reference, name, seed=700 + step), \
                f"post-recovery divergence on {name}"
    finally:
        revived.close()
