"""Durability subsystem: WAL, checksummed snapshots and crash recovery.

The epoch-versioned mutation pipeline makes occupancy writes cheap but,
on its own, volatile: a crash between compactions would lose every
insert/retire since the last one.  This package turns the serving layer
from a cache into a database:

:mod:`repro.durability.wal`
    An append-only write-ahead log of insert/retire and set-mutation
    batches — length-prefixed, CRC-checksummed records, configurable
    fsync policy (``always`` / ``batch`` / ``off``), segment rotation
    and truncated-tail tolerance on replay.
:mod:`repro.durability.recovery`
    Cold-start recovery: load the last durable snapshot (the mmap blob
    of :mod:`repro.core.mmapio`), replay the WAL tail through the
    normal mutation pipeline, and restore the exact pre-crash epoch.

Checkpoints — snapshot plus WAL truncation bound to the promoted epoch
id — are :meth:`repro.api.BloomDB.checkpoint`.  A durable directory is
one leader engine directory; ``repro serve --durable DIR`` serves it
through :class:`~repro.service.ProcessShardPool`, which adds one
shipped log per worker process under ``wal-workers/``.

Entry points: :func:`open_durable` (create-or-recover one engine) and
:func:`recover_engine` (explicit recovery).  See ``docs/durability.md``.
"""

from repro.api.engine import DurabilityError
from repro.durability.recovery import (
    RecoveryReport,
    inspect_wal,
    open_durable,
    recover_engine,
    replay_records,
)
from repro.durability.wal import (
    CorruptWalError,
    WalRecord,
    WalScan,
    WriteAheadLog,
)

__all__ = [
    "CorruptWalError",
    "DurabilityError",
    "RecoveryReport",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "inspect_wal",
    "open_durable",
    "recover_engine",
    "replay_records",
]
