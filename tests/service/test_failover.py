"""Every worker is a supervised replica: reroute, hang and pipe healing.

Every scenario here is the failover story in miniature: break one
worker of a pool under traffic and prove that (a) no acknowledged write
is lost, (b) seeded reads stay bit-identical to the pre-fault answers
whichever worker serves them, and (c) the pool heals back to ready.
"""

import os
import queue
import signal
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.durability.recovery import inspect_wal
from repro.faultinject import FaultInjector
from repro.obs.metrics import Metrics, label_items
from repro.service import (
    ProcessShardPool,
    ReplicationLagError,
    ServiceOverloadedError,
    Supervisor,
    WorkerDiedError,
)
from repro.service.http import status_for
from repro.service.procpool import _worker_main
from tests.service.conftest import (
    counter_total,
    probe,
    probe_via,
    reference,
    wait_until,
)


@pytest.fixture()
def pool(engine_dir):
    pool = ProcessShardPool(engine_dir, 2, heartbeat_s=0.05,
                            hang_timeout_s=1.0)
    pool.start()
    yield pool
    pool.close()


def snapshot_reads(pool, workload, seed_base=123):
    return {name: probe(pool, name, seed=seed_base + i)
            for i, (name, _) in enumerate(workload)}


def owned_by(pool, workload, worker):
    names = [name for name, _ in workload if pool.shard_of(name) == worker]
    assert names, f"workload gives worker {worker} no set"
    return names


class TestSupervisorUnit:
    """Deterministic supervision passes against scripted handles.

    Real subprocesses (so the SIGKILL lands somewhere) but fake handle
    state, driven through one explicit ``check()`` — no background loop,
    no races.
    """

    def _handle(self, shard_id=0, *, ready=True, stale=False,
                pipe_torn=False, stop_requested=False):
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])

        class _Process:
            pid = proc.pid

            @staticmethod
            def is_alive():
                return proc.poll() is None

        event = threading.Event()
        if ready:
            event.set()
        return types.SimpleNamespace(
            shard_id=shard_id, process=_Process, ready=event,
            stop_requested=stop_requested, pipe_torn=pipe_torn,
            last_heartbeat=time.monotonic() - (10.0 if stale else 0.0),
            _popen=proc)

    def _supervise(self, *handles):
        pool = types.SimpleNamespace(_workers=list(handles),
                                     _stopping=False, metrics=Metrics())
        return pool, Supervisor(pool, hang_timeout_s=2.0)

    def _reap(self, *handles):
        for handle in handles:
            handle._popen.kill()
            handle._popen.wait()

    def test_fresh_heartbeat_is_left_alone(self):
        handle = self._handle()
        pool, supervisor = self._supervise(handle)
        try:
            assert supervisor.check() == []
            assert handle.process.is_alive()
        finally:
            self._reap(handle)

    def test_stale_ready_worker_is_shot(self):
        handle = self._handle(stale=True)
        pool, supervisor = self._supervise(handle)
        try:
            assert supervisor.check() == [0]
            handle._popen.wait(timeout=10)
            assert not handle.process.is_alive()
            assert counter_total(pool, "worker_hangs") == 1
        finally:
            self._reap(handle)

    def test_attaching_worker_is_not_a_hang(self):
        """A spawning worker cannot post yet; silence there is not
        evidence — killing it would loop the respawn forever."""
        handle = self._handle(stale=True, ready=False)
        pool, supervisor = self._supervise(handle)
        try:
            assert supervisor.check() == []
            assert handle.process.is_alive()
        finally:
            self._reap(handle)

    def test_torn_pipe_is_shot_even_with_fresh_heartbeat(self):
        handle = self._handle(pipe_torn=True)
        pool, supervisor = self._supervise(handle)
        try:
            assert supervisor.check() == [0]
            handle._popen.wait(timeout=10)
            assert counter_total(pool, "worker_pipe_drops") == 1
        finally:
            self._reap(handle)

    def test_draining_worker_is_left_alone(self):
        handle = self._handle(stale=True, stop_requested=True)
        pool, supervisor = self._supervise(handle)
        try:
            assert supervisor.check() == []
            assert handle.process.is_alive()
        finally:
            self._reap(handle)


class TestSteadyState:
    def test_validation_rejects_bad_options(self, tmp_path):
        with pytest.raises(ValueError, match="at least one worker"):
            ProcessShardPool(tmp_path, 0)
        with pytest.raises(ValueError, match="ack policy"):
            ProcessShardPool(tmp_path, 2, ack="eventually")
        with pytest.raises(ValueError, match="heartbeat_s"):
            ProcessShardPool(tmp_path, 2, heartbeat_s=0.0)

    def test_default_pool_is_supervised(self, engine_dir):
        pool = ProcessShardPool(engine_dir, 2)
        assert pool.ack == "leader"
        assert pool.hang_timeout_s == max(10 * pool.heartbeat_s, 2.0)
        pool.start()
        try:
            assert isinstance(pool.supervisor, Supervisor)
            assert pool.supervisor.running
        finally:
            pool.close()
        assert not pool.supervisor.running

    def test_readiness_and_worker_status(self, pool):
        payload = pool.readyz()
        assert payload == {"ready": True, "mode": "process", "workers": 2,
                           "alive": 2, "lag_max": 0}
        infos = pool.workers_info()
        assert [w["shard"] for w in infos] == [0, 1]
        for info in infos:
            assert info["alive"] and info["restarts"] == 0
            assert info["lag"] == 0 and info["applied_seq"] == 0
            assert info["generation"] == pool.epoch_state()["gen"]

    def test_reads_are_bit_identical_on_every_worker(self, pool,
                                                     fault_workload):
        for name, _ in fault_workload:
            want = reference(pool, name)
            for worker in range(pool.num_workers):
                assert probe_via(pool, worker, name) == want

    def test_read_your_writes_on_every_worker(self, pool):
        rng = np.random.default_rng(7)
        pool.add_set("fresh", rng.choice(
            8_000, 120, replace=False).astype(np.uint64))
        want = reference(pool, "fresh", seed=31337)
        # Every worker must already see the write: the fanout flushed
        # the record into each worker's log before the ack, and each
        # worker refreshes to its log tail before executing a batch.
        for worker in range(pool.num_workers):
            assert probe_via(pool, worker, "fresh", seed=31337) == want

    def test_idle_workers_tail_their_logs(self, pool):
        pool.insert_ids(np.arange(7000, 7032, dtype=np.uint64))
        # No reads: the idle heartbeat tick applies the record.
        wait_until(lambda: pool.lag_max() == 0,
                   message="idle workers never applied the write")
        assert "replication_lag_max 0" in pool.metrics_text()

    def test_fleet_export_labels_every_worker(self, pool, fault_workload):
        for worker in range(pool.num_workers):
            probe_via(pool, worker, fault_workload[0][0])
        served = {dict(label_items(key)).get("worker"): value
                  for key, value in
                  pool.fleet_export()["counters"]["requests_served"].items()}
        assert served["00"] >= 1 and served["01"] >= 1
        assert served[None] == served["00"] + served["01"]


class TestWorkerMessages:
    def test_a_busy_worker_posts_one_status_per_batch(self, engine_dir,
                                                      fault_workload):
        """Liveness adds no message to a busy worker's batches: one
        ``-3`` (metrics, trace and status together) plus one result per
        request, bracketed by the ready and goodbye messages."""
        ProcessShardPool(engine_dir, 1)  # writes EPOCH + the worker log
        requests, responses = queue.Queue(), queue.Queue()
        for i in range(6):
            requests.put({"id": i, "op": "sample",
                          "names": (fault_workload[i][0],), "rounds": 2,
                          "replacement": True, "seed": i, "x": 0,
                          "exhaustive": False,
                          "t_submit": time.perf_counter()})
        requests.put(None)
        sigint = signal.getsignal(signal.SIGINT)
        try:
            _worker_main(0, str(engine_dir), (4, 0.0, 64), requests,
                         responses, heartbeat_s=60.0)
        finally:
            signal.signal(signal.SIGINT, sigint)
        kinds = []
        while not responses.empty():
            rid, ok, payload = responses.get_nowait()
            kinds.append(rid if rid < 0 else "result")
            if rid == -3:
                assert {"metrics", "trace", "applied", "epoch",
                        "gen"} <= set(payload)
        assert kinds == [-1, -3, *["result"] * 4, -3, *["result"] * 2, -2]


class TestOwnerFailover:
    def test_killed_owner_is_rerouted_bit_identically(self, pool,
                                                      fault_workload):
        rng = np.random.default_rng(17)
        pool.add_set("acked", rng.choice(
            8_000, 100, replace=False).astype(np.uint64))
        pre = snapshot_reads(pool, fault_workload)
        pre["acked"] = probe(pool, "acked", seed=999)

        victim = pool.shard_of(fault_workload[0][0])
        restarts = pool.workers_info()[victim]["restarts"]
        pid = pool.kill_worker(victim)
        # Reads of the dead worker's sets go to the other worker at
        # once — no waiting out the respawn — and every acked write is
        # there, bit for bit.
        post = snapshot_reads(pool, fault_workload)
        post["acked"] = probe(pool, "acked", seed=999)
        assert post == pre

        wait_until(lambda: pool.readyz()["ready"],
                   message="pool never became ready after the kill")
        info = pool.workers_info()[victim]
        assert info["restarts"] == restarts + 1 and info["pid"] != pid
        healed = snapshot_reads(pool, fault_workload)
        healed["acked"] = probe(pool, "acked", seed=999)
        assert healed == pre

    def test_inflight_reads_on_a_dying_worker_are_redispatched(
            self, pool, fault_workload):
        victim = 0
        name = owned_by(pool, fault_workload, victim)[0]
        want = reference(pool, name, seed=5)
        pid = pool.workers_info()[victim]["pid"]
        os.kill(pid, signal.SIGSTOP)  # hold the read in flight
        future = pool.submit("sample", (name,), rounds=3,
                             replacement=False, seed=5)
        pool.kill_worker(victim)
        # The read carries its seed, so the next worker on the ring
        # answers it exactly as the dead one would have.
        assert future.result(30) == want

    def test_one_worker_pool_fails_inflight_reads_with_a_503(
            self, engine_dir, fault_workload):
        pool = ProcessShardPool(engine_dir, 1, heartbeat_s=0.05,
                                hang_timeout_s=30.0)
        pool.start()
        try:
            os.kill(pool.workers_info()[0]["pid"], signal.SIGSTOP)
            future = pool.submit("sample", (fault_workload[0][0],),
                                 rounds=3, seed=5)
            pool.kill_worker(0)
            with pytest.raises(WorkerDiedError):
                future.result(30)
        finally:
            pool.close()

    def test_a_read_whose_second_worker_dies_too_gets_a_503(
            self, engine_dir, fault_workload):
        pool = ProcessShardPool(engine_dir, 2, heartbeat_s=0.05,
                                hang_timeout_s=30.0)
        pool.start()
        try:
            name = fault_workload[0][0]
            owner = pool.shard_of(name)
            for info in pool.workers_info():
                os.kill(info["pid"], signal.SIGSTOP)
            future = pool.submit("sample", (name,), rounds=3, seed=5)
            pool.kill_worker(owner)
            # The death handler re-sends the read, then respawns.
            wait_until(lambda: pool.workers_info()[owner]["restarts"],
                       message="the owner's death was never handled")
            pool.kill_worker(1 - owner)
            with pytest.raises(WorkerDiedError):
                future.result(30)
        finally:
            pool.close()


class TestHangDetection:
    def test_hung_owner_is_shot_and_its_reads_rerouted(self, pool,
                                                       fault_workload):
        pre = snapshot_reads(pool, fault_workload)
        victim = pool.shard_of(fault_workload[0][0])
        injector = FaultInjector(pool)
        injector.hang(victim)
        try:
            # SIGSTOP leaves the process alive, so only the supervisor
            # can catch it: stale stamp -> SIGKILL -> the death path.
            wait_until(lambda: counter_total(pool, "worker_hangs") >= 1,
                       message="the hang was never detected")
            assert snapshot_reads(pool, fault_workload) == pre
            wait_until(lambda: pool.readyz()["ready"],
                       message="pool never healed after the hang")
            assert snapshot_reads(pool, fault_workload) == pre
        finally:
            injector.clear()

    def test_default_pool_answers_a_stopped_owners_read(self, engine_dir,
                                                        fault_workload):
        """No liveness options: the read parked on a SIGSTOPped owner is
        answered by another worker once the supervisor shoots the owner
        (the read is redispatched, not failed)."""
        pool = ProcessShardPool(engine_dir, 2)
        pool.start()
        try:
            name = fault_workload[0][0]
            want = reference(pool, name)
            victim = pool.shard_of(name)
            pid = pool.workers_info()[victim]["pid"]
            started = time.monotonic()
            os.kill(pid, signal.SIGSTOP)
            try:
                answer = probe(pool, name)
            finally:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert answer == want
            assert time.monotonic() - started < pool.hang_timeout_s + 10
            assert counter_total(pool, "worker_hangs") == 1
            assert pool.workers_info()[victim]["restarts"] == 1
        finally:
            pool.close()


class TestPipeDropRecovery:
    def test_dropped_pipe_heals_on_a_default_pool(self, engine_dir,
                                                  fault_workload):
        pool = ProcessShardPool(engine_dir, 2)
        pool.start()
        try:
            pre = snapshot_reads(pool, fault_workload)
            victim = pool.shard_of(fault_workload[0][0])
            FaultInjector(pool).pipe_drop(victim)
            assert pool._workers[victim].pipe_torn
            # Routing skips the torn worker at once...
            assert snapshot_reads(pool, fault_workload) == pre
            # ...and the supervisor respawns it with fresh queues.
            wait_until(
                lambda: counter_total(pool, "worker_pipe_drops") >= 1,
                message="the torn pipe was never detected")
            wait_until(lambda: pool.readyz()["ready"],
                       message="worker never rejoined after the pipe drop")
            assert not pool._workers[victim].pipe_torn
            assert pool.workers_info()[victim]["restarts"] == 1
            assert probe_via(pool, victim, fault_workload[0][0],
                             seed=123) == pre[fault_workload[0][0]]
        finally:
            pool.close()


class TestQuorumAcks:
    def test_lag_error_is_a_503(self):
        exc = ReplicationLagError("no quorum")
        assert isinstance(exc, ServiceOverloadedError)
        assert status_for(exc) == 503

    def test_quorum_blocks_without_majority_and_recovers(
            self, engine_dir, monkeypatch):
        monkeypatch.setattr("repro.service.procpool._ACK_TIMEOUT_S", 1.5)
        # Default heartbeat; the hang timeout only outlasts the SIGSTOPs.
        pool = ProcessShardPool(engine_dir, 3, ack="quorum",
                                hang_timeout_s=60.0)
        pool.start()
        injector = FaultInjector(pool)
        try:
            rng = np.random.default_rng(23)
            ids_a = rng.choice(8_000, 90, replace=False).astype(np.uint64)
            ids_b = rng.choice(8_000, 90, replace=False).astype(np.uint64)

            # Healthy pool: the majority confirms within a heartbeat.
            pool.add_set("healthy", ids_a)
            assert sum(w["lag"] == 0 for w in pool.workers_info()) >= 2

            # Stop 2 of 3 workers: alive but silent, so the quorum of 2
            # cannot form (the hang timeout is huge so the supervisor
            # does not bail the test out by shooting them).
            injector.hang(1)
            injector.hang(2)
            with pytest.raises(ReplicationLagError):
                pool.add_set("unacked", ids_b)

            # Refused an ack, not lost: the leader holds the write and
            # every worker log has it.
            want = reference(pool, "unacked", seed=77)
            injector.resume()
            for worker in range(3):
                assert probe_via(pool, worker, "unacked", seed=77) == want
            # Once the workers catch up, acks flow again.
            pool.add_set("after", rng.choice(
                8_000, 50, replace=False).astype(np.uint64))
        finally:
            injector.clear()
            pool.close()

    def test_default_ack_waits_for_no_worker(self, engine_dir):
        pool = ProcessShardPool(engine_dir, 2, hang_timeout_s=60.0)
        pool.start()
        injector = FaultInjector(pool)
        try:
            injector.hang(0)
            injector.hang(1)
            pool.insert_ids(np.arange(7000, 7016, dtype=np.uint64))
        finally:
            injector.clear()
            pool.close()


class TestCleanShutdownMarkers:
    def test_every_worker_log_is_marked_clean_after_faults(
            self, fault_config, tmp_path):
        """A graceful stop marks every worker log CLEAN — also the logs
        of workers that were kill -9'd and respawned mid-run."""
        pool = ProcessShardPool(
            tmp_path / "durable", 3, durable=True, config=fault_config,
            heartbeat_s=0.05, hang_timeout_s=1.0)
        pool.start()
        try:
            rng = np.random.default_rng(31)
            pool.add_set("a", rng.choice(
                8_000, 120, replace=False).astype(np.uint64))
            FaultInjector(pool).kill9(1)
            wait_until(
                lambda: (pool.workers_info()[1]["alive"]
                         and pool.workers_info()[1]["restarts"] == 1),
                message="killed worker never respawned")
            wait_until(lambda: pool.readyz()["ready"],
                       message="pool never healed before shutdown")
            pool.add_set("b", rng.choice(
                8_000, 80, replace=False).astype(np.uint64))
        finally:
            pool.close()

        report = inspect_wal(tmp_path / "durable")
        assert report["clean_shutdown"], "leader WAL lost its CLEAN marker"
        logs = report["worker_logs"]
        assert len(logs) == 3
        for entry in logs:
            assert entry["clean_shutdown"], \
                f"worker log {entry['worker']} missing its CLEAN marker"
            assert not entry["torn_tail"]
