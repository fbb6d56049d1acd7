"""The write-ahead log: append-only, checksummed, segment-rotated.

One :class:`WriteAheadLog` journals every mutation of one engine (a
serving pool's leader, or a standalone :class:`~repro.api.BloomDB`)
*before* the corresponding epoch is published; a process pool also
ships the same records to one log per worker process.  The format is built for
exactly one reader — crash recovery — and optimises for append cost and
torn-write detection, not random access:

* a log is a directory of segment files ``wal-00000001.log``,
  ``wal-00000002.log``, … rotated when the active segment exceeds
  ``segment_bytes``;
* each record is ``u32 payload_length | u32 crc32(payload) | payload``,
  with the payload ``u8 opcode | u64 epoch | u16 name_length |
  name utf-8 | u64[] ids`` (little-endian throughout, CRC32 via
  :func:`repro.core.mmapio.checksum`);
* a torn final record — the tail a ``kill -9`` mid-append leaves behind
  — is tolerated: opening the log truncates the tail back to the last
  whole record, and replay simply ends there.  Corruption anywhere
  *before* the tail is not survivable write order and raises
  :class:`CorruptWalError`.

The ``sync`` policy trades durability for append latency:

``always``
    ``write + flush + fsync`` per append — survives power loss.
``batch`` (default)
    ``write + flush`` per append (survives process death, e.g.
    ``kill -9``); ``fsync`` on :meth:`WriteAheadLog.flush`, rotation,
    truncation and close.
``off``
    Buffered writes only; the OS flushes when it pleases.  For bulk
    loads that checkpoint at the end.

A checkpoint calls :meth:`WriteAheadLog.truncate` with the promoted
epoch id: the log rotates to a fresh segment that starts with a
``checkpoint`` record and deletes the older segments — pure garbage
collection, crash-safe at any interleaving because recovery filters
replay by the epoch id stored *inside* the snapshot blob, not by what
the log happens to contain.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import struct
import threading
import time

import numpy as np

from repro.core.mmapio import checksum
from repro.obs.runtime import RUNTIME
from repro.obs.trace import record_stage

#: Rotate the active segment once it exceeds this many bytes.
DEFAULT_SEGMENT_BYTES = 16 * 1024 * 1024

#: Fsync policies accepted by :class:`WriteAheadLog`.
SYNC_POLICIES = ("always", "batch", "off")

#: Name of the clean-shutdown marker file inside a log directory.
CLEAN_MARKER = "CLEAN"

#: Fault-injection hook: every fsync stalls this many seconds first.
#: Installed by :func:`set_fsync_stall` (see :mod:`repro.faultinject`);
#: zero means no stall.  Process-local — worker processes that never
#: fsync are unaffected.
_FSYNC_STALL_S = 0.0


def set_fsync_stall(seconds: float) -> float:
    """Install a slow-fsync stall (fault injection); returns the old value.

    Every subsequent :meth:`WriteAheadLog._fsync` in this process sleeps
    ``seconds`` before syncing, modelling a saturated or degraded disk.
    Pass ``0`` to clear.  The stalls are counted in the runtime registry
    (``wal_fsync_stalls``) so a test can assert the fault actually hit.
    """
    global _FSYNC_STALL_S
    previous = _FSYNC_STALL_S
    _FSYNC_STALL_S = max(0.0, float(seconds))
    return previous

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"

#: ``payload_length, crc32`` — the fixed per-record header.
_RECORD_HEADER = struct.Struct("<II")
#: ``opcode, epoch, name_length`` — the fixed payload prefix.
_PAYLOAD_PREFIX = struct.Struct("<BQH")

#: Opcode table.  ``insert`` / ``retire`` are the epoch-stamped
#: occupancy mutations recovery replays; ``add_set`` / ``extend_set``
#: journal store-only set content (replayed idempotently); a
#: ``checkpoint`` record opens every post-truncation segment and carries
#: the epoch the snapshot was promoted at.
OP_CODES = {
    "insert": 1,
    "retire": 2,
    "add_set": 3,
    "extend_set": 4,
    "checkpoint": 5,
}
_OP_NAMES = {code: name for name, code in OP_CODES.items()}

#: Ops whose replay mutates tree occupancy (epoch-aligned).
OCCUPANCY_OPS = ("insert", "retire")
#: Ops whose replay mutates stored set content (idempotent).
SET_OPS = ("add_set", "extend_set")


class CorruptWalError(RuntimeError):
    """A WAL record failed validation somewhere other than the tail.

    A torn *final* record is the expected signature of a crash
    mid-append and is tolerated silently; a bad length or checksum with
    valid records after it means the log itself is damaged, which replay
    must not paper over.
    """


@dataclasses.dataclass(frozen=True)
class WalRecord:
    """One decoded log record.

    ``op`` is a key of :data:`OP_CODES`; ``epoch`` the engine epoch the
    mutation published (occupancy ops), the snapshot's promoted epoch
    (``checkpoint``), or the epoch current at journal time (set ops,
    informational); ``name`` the target set (set ops only); ``ids`` the
    affected element ids as ``uint64``.
    """

    op: str
    epoch: int
    name: str = ""
    ids: np.ndarray = dataclasses.field(
        default_factory=lambda: np.empty(0, dtype=np.uint64))

    def describe(self) -> dict:
        """JSON-able summary (ids reduced to a count)."""
        return {"op": self.op, "epoch": int(self.epoch),
                "name": self.name, "ids": int(self.ids.size)}


@dataclasses.dataclass(frozen=True)
class WalScan:
    """Read-only scan result of a log directory (see ``inspect_wal``).

    ``records`` are every whole record in order; ``torn_tail`` is true
    when the final segment ends in a partial record; ``clean`` when a
    valid clean-shutdown marker is present; ``segments`` the segment
    file names scanned.
    """

    records: list
    torn_tail: bool
    clean: bool
    segments: list


def encode_record(op: str, epoch: int, name: str, ids) -> bytes:
    """Serialise one record (header + checksummed payload)."""
    code = OP_CODES.get(op)
    if code is None:
        raise ValueError(f"unknown WAL op {op!r} (known: {sorted(OP_CODES)})")
    name_bytes = name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise ValueError("set name too long for a WAL record")
    ids = np.ascontiguousarray(np.asarray(ids, dtype=np.uint64))
    if ids.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
        ids = ids.astype(ids.dtype.newbyteorder("<"))
    payload = (_PAYLOAD_PREFIX.pack(code, int(epoch), len(name_bytes))
               + name_bytes + ids.tobytes())
    return _RECORD_HEADER.pack(len(payload), checksum(payload)) + payload


def decode_payload(payload: bytes) -> WalRecord:
    """Deserialise one record payload (the checksummed part)."""
    if len(payload) < _PAYLOAD_PREFIX.size:
        raise CorruptWalError("record payload shorter than its prefix")
    code, epoch, name_len = _PAYLOAD_PREFIX.unpack_from(payload)
    op = _OP_NAMES.get(code)
    if op is None:
        raise CorruptWalError(f"unknown WAL opcode {code}")
    body = payload[_PAYLOAD_PREFIX.size:]
    if len(body) < name_len or (len(body) - name_len) % 8:
        raise CorruptWalError("record payload has inconsistent lengths")
    name = body[:name_len].decode("utf-8")
    ids = np.frombuffer(body[name_len:], dtype="<u8").astype(
        np.uint64, copy=False)
    return WalRecord(op=op, epoch=int(epoch), name=name, ids=ids)


def _segment_index(path: pathlib.Path) -> int:
    return int(path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def _list_segments(directory: pathlib.Path) -> list[pathlib.Path]:
    segments = [p for p in directory.glob(
        f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}") if p.is_file()]
    return sorted(segments, key=_segment_index)


def _scan_segment(path: pathlib.Path) -> tuple[list[WalRecord], int, bool]:
    """Decode one segment: ``(records, valid_end_offset, torn)``.

    ``torn`` marks a trailing partial/corrupt record; whether that is
    tolerable (last segment) or fatal (earlier segment) is the caller's
    call — truncation from a crash can only ever hit the newest segment.
    """
    records: list[WalRecord] = []
    data = path.read_bytes()
    offset = 0
    while offset < len(data):
        header = data[offset:offset + _RECORD_HEADER.size]
        if len(header) < _RECORD_HEADER.size:
            return records, offset, True
        length, crc = _RECORD_HEADER.unpack(header)
        start = offset + _RECORD_HEADER.size
        payload = data[start:start + length]
        if length < _PAYLOAD_PREFIX.size or len(payload) < length \
                or checksum(payload) != crc:
            return records, offset, True
        try:
            records.append(decode_payload(payload))
        except CorruptWalError:
            return records, offset, True
        offset = start + length
    return records, offset, False


def _read_clean_marker(directory: pathlib.Path) -> dict | None:
    marker = directory / CLEAN_MARKER
    if not marker.exists():
        return None
    try:
        return json.loads(marker.read_text())
    except (OSError, ValueError):
        return None


def _marker_matches(meta: dict | None,
                    segments: list[pathlib.Path]) -> bool:
    """A clean marker counts only if the log did not move after it."""
    if not meta or not segments:
        return False
    tail = segments[-1]
    try:
        return (meta.get("segment") == tail.name
                and int(meta.get("size", -1)) == tail.stat().st_size)
    except (OSError, TypeError, ValueError):
        return False


def scan_log(directory) -> WalScan:
    """Read-only scan of a log directory (no truncation, no markers).

    Tolerates a torn tail in the final segment; raises
    :class:`CorruptWalError` for damage in any earlier segment.
    """
    directory = pathlib.Path(directory)
    segments = _list_segments(directory)
    marker = _read_clean_marker(directory)
    records: list[WalRecord] = []
    torn = False
    for position, segment in enumerate(segments):
        seg_records, _, seg_torn = _scan_segment(segment)
        records.extend(seg_records)
        if seg_torn:
            if position != len(segments) - 1:
                raise CorruptWalError(
                    f"{segment}: corrupt record in a non-final WAL segment "
                    f"(damage, not a crash tail)")
            torn = True
    return WalScan(records=records, torn_tail=torn,
                   clean=_marker_matches(marker, segments),
                   segments=[s.name for s in segments])


class WriteAheadLog:
    """An append handle over one log directory.

    Opening the log performs crash repair: the final segment's torn
    tail (if any) is truncated back to the last whole record, the
    clean-shutdown marker is consumed (``was_clean``) and removed —
    once a writer is attached the marker would lie.  Appends then
    continue where the valid log ended.
    """

    def __init__(self, directory, *, sync: str = "batch",
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES):
        if sync not in SYNC_POLICIES:
            raise ValueError(
                f"unknown sync policy {sync!r} (known: {SYNC_POLICIES})")
        if segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        self.directory = pathlib.Path(directory)
        self.sync = sync
        self.segment_bytes = int(segment_bytes)
        self._lock = threading.Lock()
        self._closed = False
        self.directory.mkdir(parents=True, exist_ok=True)

        segments = _list_segments(self.directory)
        marker = _read_clean_marker(self.directory)
        self.was_clean = _marker_matches(marker, segments)
        try:
            (self.directory / CLEAN_MARKER).unlink()
        except FileNotFoundError:
            pass

        self.torn_tail = False
        if segments:
            tail = segments[-1]
            _, valid_end, torn = _scan_segment(tail)
            if torn:
                self.torn_tail = True
                os.truncate(tail, valid_end)
            self._segment_index = _segment_index(tail)
        else:
            self._segment_index = 1
        self._open_segment()

    # -- segment plumbing -----------------------------------------------------

    @property
    def segment_path(self) -> pathlib.Path:
        """Path of the active (append) segment."""
        return self.directory / _segment_name(self._segment_index)

    def segments(self) -> list[pathlib.Path]:
        """Every segment file, oldest first."""
        return _list_segments(self.directory)

    def _open_segment(self) -> None:
        self._fh = open(self.segment_path, "ab")

    def _fsync(self) -> None:
        started = time.perf_counter()
        if _FSYNC_STALL_S:
            RUNTIME.inc("wal_fsync_stalls")
            time.sleep(_FSYNC_STALL_S)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        RUNTIME.inc("wal_fsyncs")
        record_stage("wal_fsync", time.perf_counter() - started)

    def _rotate(self) -> None:
        self._fsync()
        self._fh.close()
        self._segment_index += 1
        self._open_segment()

    # -- writing --------------------------------------------------------------

    def append(self, op: str, ids=None, *, epoch: int = 0,
               name: str = "") -> int:
        """Append one record; returns the bytes written.

        Durability on return depends on the ``sync`` policy (see the
        module docstring); callers that need a hard guarantee at a
        specific point call :meth:`flush`.
        """
        started = time.perf_counter()
        record = encode_record(
            op, epoch, name,
            np.empty(0, dtype=np.uint64) if ids is None else ids)
        with self._lock:
            if self._closed:
                raise ValueError("WAL is closed")
            if self._fh.tell() >= self.segment_bytes:
                self._rotate()
            self._fh.write(record)
            if self.sync == "always":
                self._fsync()
            elif self.sync == "batch":
                self._fh.flush()
        RUNTIME.inc("wal_records")
        RUNTIME.inc("wal_bytes", len(record))
        record_stage("wal_append", time.perf_counter() - started)
        return len(record)

    def flush(self) -> None:
        """Push buffered records to disk (fsync unless ``sync="off"``)."""
        with self._lock:
            if self._closed:
                return
            if self.sync == "off":
                self._fh.flush()
            else:
                self._fsync()

    def truncate(self, epoch: int) -> int:
        """Drop segments made obsolete by a checkpoint at ``epoch``.

        Rotates to a fresh segment whose first record is
        ``checkpoint(epoch)`` (fsync'd before anything is deleted), then
        removes every older segment.  Returns the number of segments
        deleted.  Crash-safe at any point: recovery filters occupancy
        replay by the epoch bound inside the snapshot, so a log that
        still carries pre-checkpoint records merely wastes scan time.
        """
        with self._lock:
            if self._closed:
                raise ValueError("WAL is closed")
            self._fsync()
            self._fh.close()
            self._segment_index += 1
            self._open_segment()
            self._fh.write(encode_record(
                "checkpoint", epoch, "", np.empty(0, dtype=np.uint64)))
            self._fsync()
            removed = 0
            for segment in _list_segments(self.directory):
                if _segment_index(segment) < self._segment_index:
                    segment.unlink()
                    removed += 1
            return removed

    def mark_clean(self) -> None:
        """Record a clean shutdown so the next open can skip replay work.

        Flushes, fsyncs, then writes the ``CLEAN`` marker naming the
        active segment and its exact size; recovery honours the marker
        only when both still match.
        """
        with self._lock:
            if self._closed:
                raise ValueError("WAL is closed")
            self._fsync()
            marker = self.directory / CLEAN_MARKER
            tmp = marker.with_name(marker.name + ".tmp")
            tmp.write_text(json.dumps({
                "segment": self.segment_path.name,
                "size": self._fh.tell(),
            }))
            os.replace(tmp, marker)

    def close(self) -> None:
        """Flush and close the append handle (idempotent)."""
        with self._lock:
            if self._closed:
                return
            if self.sync == "off":
                self._fh.flush()
            else:
                self._fsync()
            self._fh.close()
            self._closed = True

    # -- reading --------------------------------------------------------------

    def replay(self) -> list[WalRecord]:
        """Every whole record across all segments, oldest first.

        The open-time repair already truncated any torn tail, so this
        sees only whole records; damage in earlier segments raises
        :class:`CorruptWalError` via :func:`scan_log`.
        """
        with self._lock:
            self._fh.flush()
        return scan_log(self.directory).records

    def tail_bytes(self) -> int:
        """Total size of the live log (all segments), in bytes."""
        return sum(s.stat().st_size for s in self.segments())

    def __repr__(self) -> str:
        return (f"WriteAheadLog({str(self.directory)!r}, sync={self.sync!r}, "
                f"segment={self._segment_index})")
