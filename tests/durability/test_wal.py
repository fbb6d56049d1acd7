"""WAL format and handle behaviour: records, rotation, torn tails, markers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.durability.wal import (
    _PAYLOAD_PREFIX,
    _RECORD_HEADER,
    CLEAN_MARKER,
    OP_CODES,
    CorruptWalError,
    LogTail,
    WalRecord,
    WriteAheadLog,
    checksum,
    decode_payload,
    encode_record,
    scan_log,
)

IDS = np.arange(10, 60, 3, dtype=np.uint64)


def test_record_roundtrip():
    blob = encode_record("insert", 42, "", IDS)
    record = decode_payload(blob[8:])
    assert record.op == "insert"
    assert record.epoch == 42
    assert record.name == ""
    assert np.array_equal(record.ids, IDS)


def test_record_roundtrip_with_name_and_empty_ids():
    blob = encode_record("add_set", 3, "café/sets", np.empty(0, np.uint64))
    record = decode_payload(blob[8:])
    assert record.op == "add_set"
    assert record.name == "café/sets"
    assert record.ids.size == 0
    assert record.describe() == {"op": "add_set", "epoch": 3,
                                 "name": "café/sets", "ids": 0}


def test_unknown_op_rejected():
    with pytest.raises(ValueError, match="unknown WAL op"):
        encode_record("destroy", 1, "", IDS)


def test_append_replay_across_rotation(tmp_path):
    wal = WriteAheadLog(tmp_path, sync="off", segment_bytes=64)
    for epoch in range(2, 12):
        wal.append("insert", IDS, epoch=epoch)
    assert len(wal.segments()) > 1  # 64-byte segments force rotation
    records = wal.replay()
    assert [r.epoch for r in records] == list(range(2, 12))
    assert all(np.array_equal(r.ids, IDS) for r in records)
    wal.close()

    # Reopening appends to the same log.
    wal2 = WriteAheadLog(tmp_path, sync="off", segment_bytes=64)
    wal2.append("retire", IDS[:4], epoch=12)
    assert [r.epoch for r in wal2.replay()] == list(range(2, 13))
    wal2.close()


def test_torn_tail_truncated_on_open(tmp_path):
    wal = WriteAheadLog(tmp_path, sync="batch")
    wal.append("insert", IDS, epoch=2)
    wal.append("insert", IDS, epoch=3)
    wal.close()
    # A kill -9 mid-append leaves a partial record at the tail.
    with open(wal.segment_path, "ab") as fh:
        fh.write(encode_record("insert", 4, "", IDS)[:11])

    scan = scan_log(tmp_path)
    assert scan.torn_tail
    assert [r.epoch for r in scan.records] == [2, 3]

    repaired = WriteAheadLog(tmp_path)
    assert repaired.torn_tail
    assert [r.epoch for r in repaired.replay()] == [2, 3]
    # The tail was physically truncated: appends continue cleanly.
    repaired.append("insert", IDS, epoch=4)
    assert [r.epoch for r in repaired.replay()] == [2, 3, 4]
    repaired.close()


def test_corruption_in_non_final_segment_is_fatal(tmp_path):
    wal = WriteAheadLog(tmp_path, sync="off", segment_bytes=64)
    for epoch in range(2, 8):
        wal.append("insert", IDS, epoch=epoch)
    wal.close()
    segments = wal.segments()
    assert len(segments) > 2
    # Damage the middle of the FIRST segment: not a crash signature.
    with open(segments[0], "r+b") as fh:
        fh.seek(12)
        fh.write(b"\xde\xad\xbe\xef")
    with pytest.raises(CorruptWalError, match="non-final"):
        scan_log(tmp_path)


def test_truncate_garbage_collects_and_stamps_checkpoint(tmp_path):
    wal = WriteAheadLog(tmp_path, sync="off", segment_bytes=64)
    for epoch in range(2, 10):
        wal.append("insert", IDS, epoch=epoch)
    before = len(wal.segments())
    removed = wal.truncate(9)
    assert removed == before
    records = wal.replay()
    assert [r.op for r in records] == ["checkpoint"]
    assert records[0].epoch == 9
    # Post-truncation appends land after the checkpoint record.
    wal.append("insert", IDS, epoch=10)
    assert [r.op for r in wal.replay()] == ["checkpoint", "insert"]
    wal.close()


def test_clean_marker_honoured_only_if_log_unmoved(tmp_path):
    wal = WriteAheadLog(tmp_path)
    wal.append("insert", IDS, epoch=2)
    wal.mark_clean()
    wal.close()
    assert scan_log(tmp_path).clean

    wal2 = WriteAheadLog(tmp_path)
    assert wal2.was_clean
    # The marker is consumed at open: it would lie once we append.
    assert not (tmp_path / CLEAN_MARKER).exists()
    wal2.append("insert", IDS, epoch=3)
    wal2.mark_clean()
    # A marker describing a shorter log than reality is ignored.
    wal2.append("insert", IDS, epoch=4)
    wal2.close()
    assert not scan_log(tmp_path).clean
    wal3 = WriteAheadLog(tmp_path)
    assert not wal3.was_clean
    wal3.close()


@pytest.mark.parametrize("sync", ["always", "batch", "off"])
def test_sync_policies_all_append_and_flush(tmp_path, sync):
    wal = WriteAheadLog(tmp_path / sync, sync=sync)
    wal.append("insert", IDS, epoch=2)
    wal.flush()
    assert [r.epoch for r in wal.replay()] == [2]
    wal.close()


def test_invalid_parameters_rejected(tmp_path):
    with pytest.raises(ValueError, match="sync policy"):
        WriteAheadLog(tmp_path, sync="sometimes")
    with pytest.raises(ValueError, match="segment_bytes"):
        WriteAheadLog(tmp_path, segment_bytes=0)


def test_closed_wal_refuses_writes(tmp_path):
    wal = WriteAheadLog(tmp_path)
    wal.close()
    wal.close()  # idempotent
    with pytest.raises(ValueError, match="closed"):
        wal.append("insert", IDS, epoch=2)
    with pytest.raises(ValueError, match="closed"):
        wal.truncate(2)


def test_tail_bytes_counts_all_segments(tmp_path):
    wal = WriteAheadLog(tmp_path, sync="off", segment_bytes=64)
    for epoch in range(2, 8):
        wal.append("insert", IDS, epoch=epoch)
    wal.flush()
    assert wal.tail_bytes() == sum(
        s.stat().st_size for s in wal.segments())
    wal.close()


def _framed(payload: bytes) -> bytes:
    """``payload`` behind a valid length + CRC header (a whole record)."""
    return _RECORD_HEADER.pack(len(payload), checksum(payload)) + payload


def test_non_utf8_name_is_a_corrupt_record(tmp_path):
    """A checksum-valid record whose name is not UTF-8 is corruption:
    a torn tail in the last segment, fatal in an earlier one."""
    bad = (_PAYLOAD_PREFIX.pack(OP_CODES["add_set"], 1, 2) + b"\xff\xfe"
           + IDS.tobytes())
    with pytest.raises(CorruptWalError, match="UTF-8"):
        decode_payload(bad)

    wal = WriteAheadLog(tmp_path / "tail", sync="off")
    wal.append("insert", IDS, epoch=2)
    wal.close()
    (segment,) = (tmp_path / "tail").glob("wal-*.log")
    with open(segment, "ab") as fh:
        fh.write(_framed(bad))
    scan = scan_log(tmp_path / "tail")
    assert scan.torn_tail and len(scan.records) == 1

    wal = WriteAheadLog(tmp_path / "early", sync="off", segment_bytes=64)
    for epoch in range(2, 6):
        wal.append("insert", IDS, epoch=epoch)
    wal.close()
    first = min((tmp_path / "early").glob("wal-*.log"))
    first.write_bytes(_framed(bad))
    with pytest.raises(CorruptWalError, match="non-final"):
        scan_log(tmp_path / "early")


def test_decoder_fuzz_yields_records_or_corrupt_wal_errors():
    """Seeded fuzz: any payload behind a valid length and CRC decodes to
    a :class:`WalRecord` or raises :class:`CorruptWalError` — never
    anything else."""
    rng = np.random.default_rng(20261019)
    outcomes = {"record": 0, "corrupt": 0}
    for _ in range(3_000):
        if rng.random() < 0.5:
            payload = rng.bytes(int(rng.integers(0, 64)))
        else:  # a plausible prefix over a random body
            payload = (_PAYLOAD_PREFIX.pack(
                int(rng.integers(0, 8)), int(rng.integers(0, 2**63)),
                int(rng.integers(0, 12)))
                + rng.bytes(int(rng.integers(0, 40))))
        try:
            record = decode_payload(payload)
        except CorruptWalError:
            outcomes["corrupt"] += 1
        else:
            assert isinstance(record, WalRecord)
            outcomes["record"] += 1
    assert outcomes["record"] and outcomes["corrupt"], outcomes


def test_log_tail_reads_each_record_once_across_rotation_and_truncate(
        tmp_path):
    wal = WriteAheadLog(tmp_path, sync="batch", segment_bytes=64)
    tail = LogTail(tmp_path)
    assert tail.read() == []
    for epoch in range(2, 6):
        wal.append("insert", IDS, epoch=epoch)
    assert len(wal.segments()) > 1
    assert [r.epoch for r in tail.read()] == [2, 3, 4, 5]
    assert tail.read() == []
    wal.append("retire", IDS[:3], epoch=6)
    assert [(r.op, r.epoch) for r in tail.read()] == [("retire", 6)]
    wal.truncate(6, name="g000001")
    wal.append("insert", IDS, epoch=7)
    assert [(r.op, r.name) for r in tail.read()] == [
        ("checkpoint", "g000001"), ("insert", "")]
    wal.close()
