"""Regression tests: BENCH file emission is atomic (temp + rename).

``BENCH_history.json`` is the only copy of every earlier run's numbers;
the pre-fix appender truncated it with a plain ``write_text`` before the
new bytes landed, so a crash (or a concurrent ``repro bench``) in that
window destroyed the whole cross-PR trajectory.  These tests pin the
fix: a failed write — at any stage — leaves the previous document
intact, readers never observe a torn file, and nothing leaks temp
litter into the output directory.
"""

import json
import os
import threading

import pytest

from repro.bench import HISTORY_FILE, HISTORY_SCHEMA, atomic_write_json
from repro.bench.runner import load_history


def _history(n_runs: int) -> dict:
    return {"schema": HISTORY_SCHEMA,
            "runs": [{"version": f"1.{i}.0", "mode": "quick",
                      "scenarios": {}} for i in range(n_runs)]}


class TestAtomicWriteJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / HISTORY_FILE
        atomic_write_json(path, _history(2))
        assert load_history(path)["runs"][1]["version"] == "1.1.0"
        assert path.read_text().endswith("\n")

    def test_overwrites_in_place(self, tmp_path):
        path = tmp_path / HISTORY_FILE
        atomic_write_json(path, _history(1))
        atomic_write_json(path, _history(3))
        assert len(load_history(path)["runs"]) == 3

    def test_crash_during_rename_preserves_old_document(self, tmp_path,
                                                        monkeypatch):
        path = tmp_path / HISTORY_FILE
        atomic_write_json(path, _history(2))
        before = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("simulated crash at the rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_json(path, _history(5))
        # The pre-fix appender would have left a truncated/partial file
        # here; the atomic writer must leave the old document untouched.
        assert path.read_text() == before
        assert json.loads(path.read_text())["schema"] == HISTORY_SCHEMA

    def test_crash_during_temp_write_preserves_old_document(self, tmp_path,
                                                            monkeypatch):
        import pathlib

        path = tmp_path / HISTORY_FILE
        atomic_write_json(path, _history(2))
        before = path.read_text()

        real_write_text = pathlib.Path.write_text

        def exploding_write_text(self, text, *args, **kwargs):
            if ".tmp." in self.name:
                raise OSError(28, "No space left on device")
            return real_write_text(self, text, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text",
                            exploding_write_text)
        with pytest.raises(OSError):
            atomic_write_json(path, _history(5))
        assert path.read_text() == before

    def test_no_temp_litter_after_failure(self, tmp_path, monkeypatch):
        path = tmp_path / HISTORY_FILE
        atomic_write_json(path, _history(1))

        def exploding_replace(src, dst):
            raise OSError("simulated crash at the rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_json(path, _history(2))
        assert [p.name for p in tmp_path.iterdir()] == [HISTORY_FILE]

    def test_concurrent_readers_never_see_a_torn_file(self, tmp_path):
        """Writer loop + reader loop: every read parses completely."""
        path = tmp_path / HISTORY_FILE
        atomic_write_json(path, _history(1))
        stop = threading.Event()
        torn: list[Exception] = []

        def reader():
            while not stop.is_set():
                try:
                    document = json.loads(path.read_text())
                except ValueError as exc:  # a torn read — the regression
                    torn.append(exc)
                    return
                assert document["schema"] == HISTORY_SCHEMA

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for i in range(200):
                atomic_write_json(path, _history(i % 7 + 1))
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not torn, f"reader saw a torn history file: {torn[0]}"


class TestRunnerUsesAtomicWrites:
    def test_history_append_goes_through_atomic_writer(self, tmp_path,
                                                       monkeypatch):
        """The appender itself must route through atomic_write_json."""
        from repro.bench import runner as runner_module
        from repro.bench.runner import BenchRunner

        calls = []
        real = runner_module.atomic_write_json

        def spying(path, obj, **kwargs):
            calls.append(str(path))
            return real(path, obj, **kwargs)

        monkeypatch.setattr(runner_module, "atomic_write_json", spying)
        runner = BenchRunner(cache_dir=tmp_path / "cache",
                             output_dir=tmp_path, quick=True)
        runner._append_history({"sampling": {"scenarios": {"s": {
            "cached": False, "elapsed_s": 0.1, "result": {}}}}})
        assert any(call.endswith(HISTORY_FILE) for call in calls)
        assert load_history(tmp_path / HISTORY_FILE)["runs"]
