"""Crash recovery: snapshot + WAL replay must equal the never-crashed run.

The central property (ISSUE 6 acceptance): after *any* crash — including
a WAL truncated at an arbitrary byte offset, mid-record — recovery comes
back bit-identical to a reference engine that simply stopped after the
same prefix of durable mutations, verified through seeded
``sample_many`` draws.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.api import BloomDB, DurabilityError, EngineConfig
from repro.api.batch import SampleSpec
from repro.durability import (
    CorruptWalError,
    inspect_wal,
    open_durable,
    recover_engine,
)
from repro.durability.recovery import WAL_DIR
from repro.service import ProcessService, ProcessShardPool
from repro.service.procpool import WORKER_WAL_DIR

NAMESPACE = 4_096
SET_IDS = np.arange(10, 2_000, 7, dtype=np.uint64)


def _config(**overrides) -> EngineConfig:
    knobs = dict(namespace_size=NAMESPACE, accuracy=0.9, set_size=200,
                 tree="dynamic", seed=11)
    knobs.update(overrides)
    return EngineConfig(**knobs)


def _draw(db: BloomDB, name: str = "s", seed: int = 99) -> np.ndarray:
    report = db.sample_many([SampleSpec(name=name, rounds=24, seed=seed)])
    (result,) = report.results.values()
    return np.asarray(result.values)


def _mutation_batches() -> list[tuple[str, np.ndarray]]:
    """Deterministic effective batches (every one journals one record)."""
    batches = []
    base = 2_100
    for j in range(6):
        ids = np.arange(base, base + 40, dtype=np.uint64)
        batches.append(("insert", ids))
        batches.append(("retire", ids[::2]))
        base += 50
    return batches


def _apply(db: BloomDB, batches) -> None:
    for kind, ids in batches:
        if kind == "insert":
            db.insert_ids(ids)
        else:
            db.retire_ids(ids)


# -- single-engine recovery -----------------------------------------------------


def test_open_durable_creates_then_recovers(tmp_path):
    db, report = open_durable(tmp_path / "e", _config())
    assert db.config.durability == "wal"
    assert db.config.plan == "compiled"
    assert db.wal is not None
    assert report.records_scanned == 0
    db.wal.close()

    db2, report2 = recover_engine(tmp_path / "e")
    assert report2.snapshot_epoch == 1
    db2.wal.close()


def test_recovery_restores_exact_epoch_and_samples(tmp_path):
    db, _ = open_durable(tmp_path / "e", _config())
    db.add_set("s", SET_IDS)
    _apply(db, _mutation_batches())
    expected_epoch = db.current_epoch().epoch
    expected = _draw(db)
    db.wal.close()  # crash: no checkpoint, no clean marker

    db2, report = recover_engine(tmp_path / "e")
    assert db2.current_epoch().epoch == expected_epoch
    assert report.recovered_epoch == expected_epoch
    assert not report.clean_shutdown
    assert np.array_equal(_draw(db2), expected)
    db2.wal.close()


def test_checkpoint_truncates_and_bounds_replay(tmp_path):
    db, _ = open_durable(tmp_path / "e", _config())
    db.add_set("s", SET_IDS)
    _apply(db, _mutation_batches()[:4])
    summary = db.checkpoint()
    assert summary["epoch"] == db.current_epoch().epoch
    assert summary["wal_segments_removed"] >= 1
    _apply(db, _mutation_batches()[4:6])
    expected = _draw(db)
    expected_epoch = db.current_epoch().epoch
    db.wal.close()

    db2, report = recover_engine(tmp_path / "e")
    assert report.snapshot_epoch == summary["epoch"]
    # Only the post-checkpoint tail replays.
    assert report.records_replayed == 2
    assert db2.current_epoch().epoch == expected_epoch
    assert np.array_equal(_draw(db2), expected)
    db2.wal.close()


def test_crash_recovery_property_random_truncation(tmp_path):
    """Truncate the WAL at random byte offsets; recovery must always
    equal a reference that stopped after the same whole-record prefix."""
    batches = _mutation_batches()
    origin = tmp_path / "origin"
    db, _ = open_durable(origin, _config())
    db.add_set("s", SET_IDS)
    db.checkpoint()  # the set travels in the snapshot, not the log
    _apply(db, batches)
    db.wal.flush()
    segment = db.wal.segment_path
    db.wal.close()
    full_size = segment.stat().st_size

    rng = np.random.default_rng(1234)
    offsets = sorted(set(int(v) for v in rng.integers(0, full_size + 1, 8))
                     | {0, full_size})
    for trial, offset in enumerate(offsets):
        crash = tmp_path / f"crash{trial}"
        shutil.copytree(origin, crash)
        with open(crash / WAL_DIR / segment.name, "r+b") as fh:
            fh.truncate(offset)

        recovered, report = recover_engine(crash / "")
        # Torn final records are repaired silently, never raised.
        replayed = report.records_replayed

        reference_dir = tmp_path / f"ref{trial}"
        reference, _ = open_durable(reference_dir, _config())
        reference.add_set("s", SET_IDS)
        reference.checkpoint()
        _apply(reference, batches[:replayed])

        assert recovered.current_epoch().epoch \
            == reference.current_epoch().epoch, f"offset {offset}"
        assert np.array_equal(recovered.occupied, reference.occupied), \
            f"offset {offset}"
        assert np.array_equal(_draw(recovered), _draw(reference)), \
            f"offset {offset}"
        recovered.wal.close()
        reference.wal.close()


def test_torn_final_record_skipped_without_error(tmp_path):
    db, _ = open_durable(tmp_path / "e", _config())
    db.add_set("s", SET_IDS)
    db.insert_ids(np.arange(2100, 2140, dtype=np.uint64))
    expected = _draw(db)
    expected_epoch = db.current_epoch().epoch
    tail = db.wal.segment_path
    db.wal.close()
    from repro.durability.wal import encode_record
    with open(tail, "ab") as fh:  # a kill -9 mid-append signature
        fh.write(encode_record(
            "insert", expected_epoch + 1, "",
            np.arange(3000, 3040, dtype=np.uint64))[:-7])

    db2, report = recover_engine(tmp_path / "e")
    assert report.torn_tail
    assert db2.current_epoch().epoch == expected_epoch
    assert np.array_equal(_draw(db2), expected)
    db2.wal.close()


def test_misaligned_log_raises_instead_of_serving_wrong_state(tmp_path):
    db, _ = open_durable(tmp_path / "e", _config())
    db.add_set("s", SET_IDS)
    # Forge a record whose claimed epoch cannot match what replay mints.
    db.wal.append("insert", np.array([2500], dtype=np.uint64), epoch=999)
    db.wal.close()
    with pytest.raises(CorruptWalError, match="diverged"):
        recover_engine(tmp_path / "e")


def test_recover_refuses_non_durable_engine(tmp_path):
    db = BloomDB(_config(plan="compiled", mutation="delta"))
    db.save(tmp_path / "plain")
    with pytest.raises(DurabilityError, match="durability"):
        recover_engine(tmp_path / "plain")


def test_verify_flag_detects_snapshot_corruption(tmp_path):
    from repro.core.mmapio import CorruptBlobError

    db, _ = open_durable(tmp_path / "e", _config())
    db.add_set("s", SET_IDS)
    db.checkpoint()
    db.wal.close()
    import json

    from repro.core.mmapio import MAGIC

    plan_path = tmp_path / "e" / "plan.bst"
    with open(plan_path, "rb") as fh:
        fh.seek(len(MAGIC))
        header_len = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(header_len))
    target = next(e for e in header["arrays"] if e["nbytes"] > 0)
    with open(plan_path, "r+b") as fh:
        fh.seek(target["offset"])
        byte = fh.read(1)
        fh.seek(target["offset"])
        fh.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(CorruptBlobError):
        recover_engine(tmp_path / "e", verify=True)


def test_inspect_wal_is_read_only(tmp_path):
    db, _ = open_durable(tmp_path / "e", _config())
    db.add_set("s", SET_IDS)
    db.insert_ids(np.arange(2100, 2130, dtype=np.uint64))
    db.wal.close()
    before = sorted((tmp_path / "e" / WAL_DIR).iterdir())

    info = inspect_wal(tmp_path / "e")
    assert info["records_by_op"]["insert"] >= 2  # add_set registration too
    assert info["records_by_op"]["add_set"] == 1
    assert info["snapshot_epoch"] == 1
    assert not info["clean_shutdown"]
    assert sorted((tmp_path / "e" / WAL_DIR).iterdir()) == before


# -- durability contract on the engine API --------------------------------------


def test_compact_redirects_to_checkpoint_on_durable_engine(tmp_path):
    db, _ = open_durable(tmp_path / "e", _config())
    db.add_set("s", SET_IDS)
    db.insert_ids(np.arange(2100, 2140, dtype=np.uint64))
    expected = _draw(db)
    plan = db.compact()  # must redirect to checkpoint(), not drop the WAL
    assert plan is db.compiled_tree() or plan is not None
    assert np.array_equal(_draw(db), expected)
    db.wal.close()
    # The redirect checkpointed: replay starts from the folded snapshot.
    _, report = recover_engine(tmp_path / "e")
    assert report.records_replayed == 0
    assert report.snapshot_epoch > 1


def test_compact_to_path_and_save_refused_on_durable_engine(tmp_path):
    db, _ = open_durable(tmp_path / "e", _config())
    db.add_set("s", SET_IDS)
    with pytest.raises(DurabilityError, match="checkpoint"):
        db.compact(path=tmp_path / "elsewhere")
    with pytest.raises(DurabilityError, match="checkpoint"):
        db.save(tmp_path / "elsewhere")
    db.wal.close()


def test_clean_shutdown_marker_round_trip(tmp_path):
    db, _ = open_durable(tmp_path / "e", _config())
    db.add_set("s", SET_IDS)
    db.checkpoint()
    db.wal.mark_clean()
    db.wal.close()
    _, report = recover_engine(tmp_path / "e")
    assert report.clean_shutdown
    assert not report.torn_tail


# -- serving directories ---------------------------------------------------------


def test_ring_layout_is_refused(tmp_path):
    """A directory in the removed ``ring.json`` + ``shards/NN`` layout is
    refused by name, never overwritten with a fresh engine."""
    ring = tmp_path / "ring"
    ring.mkdir()
    (ring / "ring.json").write_text('{"format": 1, "shards": 2}')
    for attempt in (lambda: open_durable(ring, _config()),
                    lambda: recover_engine(ring),
                    lambda: inspect_wal(ring)):
        with pytest.raises(DurabilityError, match="durable ring"):
            attempt()
    assert sorted(p.name for p in ring.iterdir()) == ["ring.json"]


def test_pool_checkpoint_and_graceful_close(tmp_path):
    """Checkpoint while serving, close, reopen: nothing left to replay,
    every log marked clean, and seeded answers unchanged throughout."""
    directory = tmp_path / "durable"
    db, _ = open_durable(directory, _config(plan="compiled",
                                            mutation="delta"))
    db.add_set("s", SET_IDS)
    db.checkpoint()
    db.wal.close()

    pool = ProcessShardPool(directory, 1, durable=True)
    with ProcessService(pool) as service:
        service.insert_ids(np.arange(2_100, 2_150, dtype=np.uint64))
        before = service.sample("s", r=12, seed=5)
        assert service.checkpoint()["ok"] is True
        assert service.sample("s", r=12, seed=5) == before
    pool.close()
    assert (directory / WAL_DIR / "CLEAN").exists()
    for log in (directory / WORKER_WAL_DIR).iterdir():
        assert (log / "CLEAN").exists()

    reopened = ProcessShardPool(directory, 1, durable=True)
    assert reopened.recovery_report.clean_shutdown
    assert reopened.recovery_report.records_replayed == 0
    with ProcessService(reopened) as service:
        assert service.sample("s", r=12, seed=5) == before
    reopened.close()


def _crashed_pool(directory):
    """A durable 1-worker pool that journalled writes, then died without
    a clean close; returns the seeded answer it acknowledged."""
    pool = ProcessShardPool(directory, 1, durable=True,
                            config=_config(plan="compiled",
                                           mutation="delta"))
    with ProcessService(pool) as service:
        service.add_set("late", SET_IDS)
        service.insert_ids(np.arange(2_100, 2_150, dtype=np.uint64))
        acked = service.sample("late", r=12, seed=5)
    # Die without close(): no final promotion and no CLEAN markers.
    for wal in [pool.leader.wal, *pool._wals]:
        wal.close()
    assert not (directory / WAL_DIR / "CLEAN").exists()
    return acked


def test_pool_crash_replays_the_leader_wal_on_reopen(tmp_path):
    """Reopening a crashed durable pool replays the leader's WAL, and
    the workers serve exactly the acknowledged state."""
    directory = tmp_path / "durable"
    acked = _crashed_pool(directory)

    reopened = ProcessShardPool(directory, 1, durable=True)
    report = reopened.recovery_report
    assert not report.clean_shutdown
    assert report.records_replayed >= 2
    with ProcessService(reopened) as service:
        assert service.sample("late", r=12, seed=5) == acked
    reopened.close()
    reopened.leader.wal.close()


def test_reopen_rebuilds_lagging_worker_logs_from_the_leader(tmp_path):
    """A crash mid-fanout leaves worker logs behind the leader's WAL
    (the leader journals first).  On reopen the worker logs are rebuilt
    from the recovered leader, never trusted."""
    directory = tmp_path / "durable"
    acked = _crashed_pool(directory)
    shutil.rmtree(directory / WORKER_WAL_DIR / "00")  # lost every record

    reopened = ProcessShardPool(directory, 1, durable=True)
    assert (directory / WORKER_WAL_DIR / "00").is_dir()
    with ProcessService(reopened) as service:
        assert service.sample("late", r=12, seed=5) == acked
    reopened.close()
    reopened.leader.wal.close()
