"""Cold-start recovery: snapshot load + WAL replay = pre-crash state.

The recovery contract (tested bit-for-bit in
``tests/durability/test_recovery.py``):

* the last durable snapshot is the engine directory's ``plan.bst`` /
  ``sets.bst`` pair, loaded through :mod:`repro.core.mmapio` exactly
  like a normal :meth:`~repro.api.BloomDB.load`;
* the epoch the snapshot was promoted at travels *inside* ``plan.bst``
  (``wal_epoch`` in the blob header), written by the same atomic rename
  as the snapshot itself — so the WAL-truncation bound can never
  disagree with the snapshot it belongs to, no matter where a
  checkpoint crashed;
* the WAL tail is replayed through the normal mutation pipeline
  (:meth:`~repro.api.BloomDB.insert_ids` / ``retire_ids`` building
  fresh :class:`~repro.core.delta.PlanDelta` overlays), with occupancy
  records at or below the snapshot epoch skipped and set records
  applied idempotently;
* replay re-mints the same epoch ids the original run published (the
  counter is re-seated to the snapshot epoch and every auto-compaction
  decision is deterministic), and recovery *verifies* that alignment
  record by record — a mismatch means the log and the snapshot do not
  belong together, which raises
  :class:`~repro.durability.wal.CorruptWalError` instead of serving
  silently wrong state;
* a torn final record (the ``kill -9`` signature) is truncated away and
  replay ends at the last whole record.
"""

from __future__ import annotations

import dataclasses
import pathlib
import time

import numpy as np

from repro.api.engine import (
    _ENGINE_FILE,
    _PLAN_FILE,
    _SETS_COMPILED_FILE,
    BloomDB,
    DurabilityError,
)
from repro.core.mmapio import read_blob, read_blob_meta
from repro.obs.runtime import RUNTIME
from repro.obs.trace import record_stage
from repro.durability.wal import (
    OCCUPANCY_OPS,
    SET_OPS,
    CorruptWalError,
    WriteAheadLog,
    scan_log,
)

#: Name of the WAL directory inside a durable engine directory.
WAL_DIR = "wal"

#: Manifest of the removed multi-directory ring layout (``shards/NN``).
_RING_MANIFEST = "ring.json"


def refuse_ring_layout(path) -> None:
    """Raise :class:`DurabilityError` if ``path`` holds a durable ring.

    Earlier releases laid durable serving out as one engine directory
    per thread-tier shard (``ring.json`` + ``shards/NN``).  That layout
    is no longer served or recovered; a durable directory is one leader
    engine directory.  Refusing it outright beats the alternative of
    writing a fresh engine next to the ring and serving that.
    """
    path = pathlib.Path(path)
    if (path / _RING_MANIFEST).exists():
        raise DurabilityError(
            f"{path} holds a durable ring ({_RING_MANIFEST} + shards/NN), "
            f"a layout that is no longer supported; a durable directory "
            f"is now one leader engine directory (engine.json, plan.bst, "
            f"sets.bst, wal/)")


@dataclasses.dataclass(frozen=True)
class RecoveryReport:
    """What one engine's recovery did.

    ``snapshot_epoch`` is the bound found inside ``plan.bst``;
    ``recovered_epoch`` the engine's published epoch after replay.
    ``clean_shutdown`` means a valid clean marker let recovery skip the
    torn-tail bookkeeping (the log is still scanned — a valid marker
    simply guarantees the scan finds nothing torn); ``torn_tail`` that
    a partial final record was truncated away.
    """

    path: str
    snapshot_epoch: int
    recovered_epoch: int
    records_scanned: int
    records_replayed: int
    records_skipped: int
    set_records: int
    ids_applied: int
    torn_tail: bool
    clean_shutdown: bool
    elapsed_s: float

    def describe(self) -> dict:
        """JSON-able summary (the ``repro recover`` output)."""
        return dataclasses.asdict(self)


def _replay_set_record(db: BloomDB, record, rows: np.ndarray) -> None:
    """Apply one set record idempotently, store-only.

    Create replaces (the snapshot may already hold the set), extend ORs
    into the filter (re-adding the same items is a no-op for a plain
    Bloom filter) — so replaying records the snapshot already covers
    converges instead of corrupting.  Occupancy registration is *not*
    repeated here: it was journalled as its own insert record.  ``rows``
    are the record's ids already hashed (:func:`_set_record_rows`).
    """
    if record.op == "add_set" and record.name in db.store:
        db.store.discard(record.name)
    if record.name not in db.store:
        db.store.create(record.name)
    db.store.add_positions(record.name, rows)


def _set_record_rows(db: BloomDB, records) -> list:
    """The position rows of every set record's ids, in record order.

    Hashed in one kernel pass over all of them: per-record passes over
    a few dozen ids cost mostly call overhead, and a worker tailing a
    burst of ``add_set`` writes replays hundreds at once.
    """
    ids = [record.ids for record in records if record.op in SET_OPS]
    if not ids:
        return []
    rows = db.store.family.positions_many(np.concatenate(ids))
    return np.split(rows, np.cumsum([part.size for part in ids])[:-1])


def replay_records(db: BloomDB, records, snapshot_epoch: int, *,
                   origin: str = "") -> dict:
    """Replay decoded WAL records into an engine, verifying alignment.

    The shared replay core of :func:`recover_engine` and the
    multi-process serving workers (:mod:`repro.service.procpool`), which
    catch up on their per-worker log tails with exactly the recovery
    semantics: occupancy records at or below ``snapshot_epoch`` are
    skipped (the snapshot already holds them), set records apply
    idempotently, ``checkpoint`` markers carry no state, and after every
    occupancy record the engine's re-minted epoch must equal the
    recorded one — a mismatch raises :class:`CorruptWalError` instead of
    serving silently diverged state.  Mutations run with durability
    suspended (they are already in the log).  Returns a counters dict
    (``replayed`` / ``skipped`` / ``set_records`` / ``ids_applied``).
    """
    replayed = skipped = set_records = ids_applied = 0
    set_rows = iter(_set_record_rows(db, records))
    with db.suspend_durability():
        for record in records:
            if record.op in SET_OPS:
                _replay_set_record(db, record, next(set_rows))
                set_records += 1
            elif record.op in OCCUPANCY_OPS:
                if record.epoch <= snapshot_epoch:
                    skipped += 1
                    continue
                if record.op == "insert":
                    db.insert_ids(record.ids)
                else:
                    db.retire_ids(record.ids)
                current = db.current_epoch().epoch
                if current != record.epoch:
                    raise CorruptWalError(
                        f"{origin}: replay diverged — record for epoch "
                        f"{record.epoch} left the engine at epoch "
                        f"{current}; the log and the snapshot do not "
                        f"belong together")
                replayed += 1
                ids_applied += int(record.ids.size)
            # checkpoint records carry no state; the snapshot's own
            # wal_epoch is the authoritative bound.
    RUNTIME.inc("recovery_records_replayed", replayed)
    RUNTIME.inc("recovery_records_skipped", skipped)
    RUNTIME.inc("recovery_ids_applied", ids_applied)
    return {"replayed": replayed, "skipped": skipped,
            "set_records": set_records, "ids_applied": ids_applied}


def recover_engine(path, *, sync: str | None = None,
                   verify: bool = False) -> tuple[BloomDB, RecoveryReport]:
    """Recover one durable engine directory; returns ``(engine, report)``.

    Loads the snapshot, re-seats the epoch counter, replays the WAL
    tail, verifies epoch alignment, then attaches the WAL so the engine
    is immediately writable-durable.  ``sync`` overrides the config's
    ``wal_sync`` policy; ``verify`` additionally checks every snapshot
    blob segment against its recorded CRC32 before trusting it
    (reads all bytes — meant for post-crash paranoia, not hot starts).
    """
    start = time.perf_counter()
    path = pathlib.Path(path)
    refuse_ring_layout(path)
    if not (path / _ENGINE_FILE).exists():
        raise FileNotFoundError(f"{path} is not an engine directory "
                                f"(no {_ENGINE_FILE})")
    plan_path = path / _PLAN_FILE
    if not plan_path.exists():
        raise FileNotFoundError(f"{path} holds no snapshot ({_PLAN_FILE})")
    if verify:
        read_blob(plan_path, mmap=False, verify=True)
        sets_path = path / _SETS_COMPILED_FILE
        if sets_path.exists():
            read_blob(sets_path, mmap=False, verify=True)
    snapshot_epoch = int(read_blob_meta(plan_path).get("wal_epoch", 1))

    db = BloomDB.load(path)
    if db.config.durability == "off":
        raise DurabilityError(
            f"engine at {path} has durability=\"off\"; nothing to recover "
            f"(use repro.durability.open_durable to create durable engines)")
    db.restore_epoch(snapshot_epoch)
    db.current_epoch()

    wal = WriteAheadLog(path / WAL_DIR,
                        sync=sync if sync is not None else db.config.wal_sync)
    records = wal.replay()
    counters = replay_records(db, records, snapshot_epoch, origin=str(path))

    db.attach_wal(wal, path)
    report = RecoveryReport(
        path=str(path),
        snapshot_epoch=snapshot_epoch,
        recovered_epoch=db.current_epoch().epoch,
        records_scanned=len(records),
        records_replayed=counters["replayed"],
        records_skipped=counters["skipped"],
        set_records=counters["set_records"],
        ids_applied=counters["ids_applied"],
        torn_tail=wal.torn_tail,
        clean_shutdown=wal.was_clean,
        elapsed_s=time.perf_counter() - start,
    )
    RUNTIME.inc("recoveries")
    record_stage("recovery", report.elapsed_s)
    return db, report


def open_durable(path, config=None, *, sync: str | None = None,
                 ) -> tuple[BloomDB, RecoveryReport]:
    """Open-or-create a durable engine at ``path``.

    An existing engine directory is recovered (:func:`recover_engine`);
    otherwise ``config`` seeds a fresh engine whose config is upgraded
    to ``durability="wal"`` and saved, then trivially recovered —
    creation and recovery share one code path by construction.
    """
    path = pathlib.Path(path)
    refuse_ring_layout(path)
    if (path / _ENGINE_FILE).exists():
        return recover_engine(path, sync=sync)
    if config is None:
        raise ValueError(f"{path} holds no engine and no config was given")
    config = dataclasses.replace(
        config, durability="wal",
        wal_sync=sync if sync is not None else config.wal_sync)
    db = BloomDB(config)
    db.save(path)
    return recover_engine(path, sync=sync)


def inspect_wal(path) -> dict:
    """Read-only summary of a durable directory's log (``repro recover``).

    Touches nothing: no tail truncation, no marker consumption — safe
    to run against a directory another process is serving from.
    """
    path = pathlib.Path(path)
    refuse_ring_layout(path)
    wal_dir = path / WAL_DIR if (path / WAL_DIR).is_dir() else path
    scan = scan_log(wal_dir)
    by_op: dict[str, int] = {}
    ids_total = 0
    for record in scan.records:
        by_op[record.op] = by_op.get(record.op, 0) + 1
        ids_total += int(record.ids.size)
    epochs = [r.epoch for r in scan.records if r.op in OCCUPANCY_OPS]
    info = {
        "path": str(path),
        "segments": list(scan.segments),
        "records": len(scan.records),
        "records_by_op": by_op,
        "ids_total": ids_total,
        "torn_tail": scan.torn_tail,
        "clean_shutdown": scan.clean,
        "first_epoch": min(epochs) if epochs else None,
        "last_epoch": max(epochs) if epochs else None,
    }
    plan_path = path / _PLAN_FILE
    if plan_path.exists():
        info["snapshot_epoch"] = int(
            read_blob_meta(plan_path).get("wal_epoch", 1))
    workers_root = path / "wal-workers"
    if workers_root.is_dir():
        # A process-pool serving directory: summarise every shipped
        # per-worker log alongside the leader's WAL.
        logs = []
        for log_dir in sorted(p for p in workers_root.iterdir()
                              if p.is_dir()):
            worker_scan = scan_log(log_dir)
            logs.append({
                "worker": log_dir.name,
                "segments": len(worker_scan.segments),
                "records": len(worker_scan.records),
                "torn_tail": worker_scan.torn_tail,
                "clean_shutdown": worker_scan.clean,
            })
        info["worker_logs"] = logs
    return info
