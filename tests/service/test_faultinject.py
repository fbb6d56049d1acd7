"""The fault-injection harness itself: seeded schedules and torn tails.

The chaos suite's credibility rests on these primitives being
deterministic (a schedule reproduces from its seed alone) and honest
(a torn tail really is the on-disk signature of a crash mid-append),
so they get direct tests before anything is injected into a pool.
"""

import numpy as np
import pytest

from repro.durability.wal import WriteAheadLog, scan_log, set_fsync_stall
from repro.faultinject import (
    DEFAULT_KINDS,
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    tear_wal_tail,
)


class TestFaultSchedule:
    def test_same_seed_same_schedule(self):
        a = FaultSchedule.generate(7, steps=60, workers=4)
        b = FaultSchedule.generate(7, steps=60, workers=4)
        assert a == b
        assert a.describe() == b.describe()

    def test_different_seeds_differ(self):
        a = FaultSchedule.generate(7, steps=60, workers=4)
        b = FaultSchedule.generate(8, steps=60, workers=4)
        assert a.events != b.events

    def test_events_stay_in_bounds(self):
        schedule = FaultSchedule.generate(
            11, steps=200, workers=6, kinds=FAULT_KINDS, rate=0.5)
        assert schedule.events, "rate=0.5 over 200 steps produced nothing"
        assert {e.worker for e in schedule.events} == set(range(6))
        for event in schedule.events:
            assert 0 <= event.step < 200
            assert event.kind in FAULT_KINDS
            assert 0 <= event.worker < 6
            if event.kind == "slow_fsync":
                assert 0.005 <= event.seconds <= 0.05
            else:
                assert event.seconds == 0.0

    def test_at_partitions_the_events(self):
        schedule = FaultSchedule.generate(3, steps=50, workers=6, rate=0.4)
        gathered = [e for step in range(50) for e in schedule.at(step)]
        assert gathered == list(schedule.events)

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSchedule.generate(1, steps=10, workers=2, rate=1.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultSchedule.generate(1, steps=10, workers=2,
                                   kinds=("kill9", "meteor"))

    def test_default_kinds_skip_pacing_faults(self):
        assert "slow_fsync" not in DEFAULT_KINDS
        assert "resume" not in DEFAULT_KINDS

    def test_event_describe_is_jsonable(self):
        event = FaultEvent(step=4, kind="hang", worker=3)
        assert event.describe() == {"step": 4, "kind": "hang", "worker": 3,
                                    "seconds": 0.0}


class TestFaultInjectorDispatch:
    def test_unknown_kind_raises(self):
        injector = FaultInjector(pool=None)
        with pytest.raises(ValueError, match="unknown fault kind"):
            injector.apply(FaultEvent(step=0, kind="meteor"))

    def test_resume_with_nothing_stopped_is_a_noop(self):
        assert FaultInjector(pool=None).resume() == 0


class TestSlowFsync:
    def test_set_returns_previous_value(self):
        assert set_fsync_stall(0.01) == 0.0
        try:
            assert set_fsync_stall(0.02) == 0.01
        finally:
            assert set_fsync_stall(0.0) == 0.02

    def test_injector_clear_removes_the_stall(self):
        injector = FaultInjector(pool=None)
        injector.slow_fsync(0.01)
        injector.clear()
        # A fresh set sees 0.0 as the previous value: the stall is gone.
        assert set_fsync_stall(0.0) == 0.0

    def test_negative_stall_clamps_to_zero(self):
        set_fsync_stall(-1.0)
        assert set_fsync_stall(0.0) == 0.0


class TestTearWalTail:
    def _write_log(self, directory, records=5):
        wal = WriteAheadLog(directory, sync="batch")
        for i in range(records):
            wal.append("insert", np.arange(i, i + 8, dtype=np.uint64),
                       epoch=i, name=f"set{i}")
        wal.flush()
        wal.mark_clean()
        wal.close()
        return wal

    def test_tear_produces_a_torn_tail(self, tmp_path):
        self._write_log(tmp_path / "wal")
        before = scan_log(tmp_path / "wal")
        assert before.clean and not before.torn_tail
        assert len(before.records) == 5

        summary = tear_wal_tail(tmp_path / "wal")
        after = scan_log(tmp_path / "wal")
        assert after.torn_tail, "the cut must land inside the last record"
        assert not after.clean, "a torn log must not claim a clean shutdown"
        # Replay ends at the last *whole* record; only the torn one is
        # lost — exactly what a kill -9 mid-append costs.
        assert len(after.records) == 4
        assert summary["lost"] > 0
        assert summary["record_start"] < summary["cut"]

    def test_tear_is_seeded(self, tmp_path):
        import random
        self._write_log(tmp_path / "a")
        self._write_log(tmp_path / "b")
        cut_a = tear_wal_tail(tmp_path / "a", random.Random(99))["cut"]
        cut_b = tear_wal_tail(tmp_path / "b", random.Random(99))["cut"]
        assert cut_a == cut_b

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="no WAL segments"):
            tear_wal_tail(tmp_path / "empty")

    def test_writer_repairs_a_torn_tail(self, tmp_path):
        """The torn log is exactly what crash repair already absorbs."""
        self._write_log(tmp_path / "wal")
        tear_wal_tail(tmp_path / "wal")
        wal = WriteAheadLog(tmp_path / "wal")
        try:
            assert wal.torn_tail, "reopen must detect (and truncate) the tear"
            assert not wal.was_clean
            assert len(wal.replay()) == 4
        finally:
            wal.close()
