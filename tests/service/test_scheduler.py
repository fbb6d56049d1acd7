"""Coalescing semantics on the worker pool: identity, batching, admission.

The load-bearing test is the property test: any interleaving of N
concurrent single requests must return bit-identical results to the same
requests issued as one direct :meth:`repro.api.BloomDB.sample_many`
batch — that is the serving layer's correctness contract, whatever the
batching policy coalesced.
"""

import json
import os
import random
import signal
import threading
import types
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import SampleSpec
from repro.core.store import DuplicateSetError
from repro.service import (
    BatchPolicy,
    HTTPServiceClient,
    ServiceOverloadedError,
)
from repro.service.client import encode_result
from repro.service.procpool import _execute_batch
from tests.service.conftest import serve


def post(url: str, path: str, body: dict):
    """POST raw JSON; returns ``(status, headers, payload)``."""
    request = urllib.request.Request(
        url + path, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (response.status, response.headers,
                    json.loads(response.read().decode("utf-8")))
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, json.loads(exc.read().decode("utf-8"))


@pytest.fixture(scope="module")
def slow(reference_db, tmp_path_factory):
    """One worker, a 20 ms gather window and an 8-deep queue.

    The long window makes requests sent together land in one batch;
    the shallow queue makes admission control reachable.  Tests here
    SIGSTOP the worker on purpose, so the hang timeout outlasts them.
    """
    directory = tmp_path_factory.mktemp("slow") / "engine"
    with serve(reference_db, directory, workers=1, hang_timeout_s=60.0,
               max_batch=256, max_delay_ms=20.0,
               queue_depth=8) as server:
        yield server


@pytest.fixture(scope="module")
def nodelay(reference_db, tmp_path_factory):
    """Two workers with no gather window: a batch is only what is
    already queued when the worker looks."""
    directory = tmp_path_factory.mktemp("nodelay") / "engine"
    with serve(reference_db, directory, workers=2, max_batch=256,
               max_delay_ms=0.0) as server:
        yield server


@pytest.fixture(scope="module")
def unbatched(reference_db, tmp_path_factory):
    """One worker with ``max_batch=1``: coalescing disabled."""
    directory = tmp_path_factory.mktemp("unbatched") / "engine"
    with serve(reference_db, directory, workers=1, max_batch=1) as server:
        yield server


class TestInterleavingProperty:
    @pytest.mark.parametrize("server", ["served", "slow", "nodelay",
                                        "unbatched"])
    def test_concurrent_singles_match_one_direct_batch(
            self, server, request, workload, reference_db):
        """N concurrent requests == one direct sample_many spec batch."""
        service = request.getfixturevalue(server).client
        names = [name for name, _ in workload]
        specs = [
            SampleSpec(names[i % len(names)], rounds=1 + i % 5,
                       replacement=(i % 3 != 0), seed=10_000 + i,
                       key=str(i))
            for i in range(48)
        ]
        want = [encode_result(result)
                for result in reference_db.sample_many(specs).ordered()]

        for trial in range(3):  # three different submission interleavings
            order = list(range(len(specs)))
            random.Random(trial).shuffle(order)
            got: dict[int, dict] = {}
            barrier = threading.Barrier(8)

            def run_block(block, got=got, barrier=barrier, order=order):
                barrier.wait()  # maximise submission concurrency
                for i in order[block::8]:
                    spec = specs[i]
                    got[i] = service.sample(spec.name, spec.rounds,
                                            spec.replacement, seed=spec.seed)

            with ThreadPoolExecutor(max_workers=8) as executor:
                for handle in [executor.submit(run_block, b)
                               for b in range(8)]:
                    handle.result(60)
            assert [got[i] for i in range(len(specs))] == want, \
                f"trial {trial} diverged on {server}"

    def test_reconstruction_matches_direct_calls(self, served, workload,
                                                 reference_db):
        names = [name for name, _ in workload]
        for exhaustive in (False, True):
            got = [served.client.reconstruct(name, exhaustive)
                   for name in names]
            want = reference_db.store.reconstruct_many(
                names, exhaustive=exhaustive)
            assert got == [encode_result(result) for result in want]

    def test_contains_and_union_match_direct_calls(self, served, workload,
                                                   reference_db):
        service = served.client
        name, ids = workload[0]
        assert service.contains(name, int(ids[0])) == {"contains": True}
        names = [w[0] for w in workload[:3]]
        assert service.sample_union(names, seed=77) == encode_result(
            reference_db.store.sample_union(names, rng=77))
        assert service.sample_intersection(names, seed=77) == \
            encode_result(reference_db.store.sample_intersection(
                names, rng=77))


class TestBatching:
    def test_coalescing_actually_happens(self, slow, workload):
        pool = slow.client.pool
        futures = [pool.submit("sample", (workload[i % 8][0],), rounds=2,
                               seed=i, block=True, timeout=30)
                   for i in range(32)]
        for future in futures:
            future.result(30)
        batch = slow.client.stats()["histograms"]["batch_size"]
        assert batch["max"] > 1  # at least one multi-request dispatch

    def test_max_batch_one_still_serves(self, unbatched, workload):
        values = unbatched.client.sample(workload[0][0], r=3,
                                         seed=5)["values"]
        assert len(values) == 3
        assert unbatched.client.stats()["histograms"]["batch_size"][
            "max"] == 1

    def test_batch_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_delay_ms=-1)
        with pytest.raises(ValueError):
            BatchPolicy(queue_depth=0)


class TestAdmissionControl:
    def test_full_queue_rejects_with_503_and_retry_after(self, slow,
                                                         workload):
        pool = slow.client.pool
        name = workload[0][0]
        pid = pool.workers_info()[0]["pid"]
        rejected = pool.metrics.counter("rejected_total")
        os.kill(pid, signal.SIGSTOP)  # the worker stops draining its queue
        try:
            queued = [pool.submit("sample", (name,), seed=i)
                      for i in range(pool.policy.queue_depth)]
            with pytest.raises(ServiceOverloadedError):
                pool.submit("sample", (name,), seed=99)
            status, headers, payload = post(
                slow.url, "/sample", {"set": name, "r": 1, "seed": 98})
            assert status == 503
            assert headers.get("Retry-After") == "1"
            assert "queue is full" in payload["error"]
        finally:
            os.kill(pid, signal.SIGCONT)
        for future in queued:  # admitted requests still complete
            assert len(future.result(30)["values"]) == 1
        assert pool.metrics.counter("rejected_total") == rejected + 2

    def test_unknown_set_fails_that_request_only(self, slow, workload):
        pool = slow.client.pool
        errors = pool.metrics.counter("errors_total")
        # Sent together: the 20 ms window puts both in one batch.
        bad = pool.submit("sample", ("no-such-set",), rounds=2, seed=1)
        good = pool.submit("sample", (workload[0][0],), rounds=2, seed=1)
        assert len(good.result(30)["values"]) == 2
        with pytest.raises(KeyError, match="no-such-set"):
            bad.result(30)
        assert pool.metrics.counter("errors_total") == errors + 1

    def test_malformed_sample_is_a_400_and_spares_the_worker(self, slow,
                                                            workload):
        """``r: 0`` fails alone at admission; the worker never sees it."""
        name = workload[0][0]
        before = slow.client.pool.workers_info()[0]
        with ThreadPoolExecutor(max_workers=2) as executor:
            bad = executor.submit(post, slow.url, "/sample",
                                  {"set": name, "r": 0, "seed": 1})
            good = executor.submit(post, slow.url, "/sample",
                                   {"set": name, "r": 4, "seed": 1})
            bad_status, _, bad_payload = bad.result(30)
            good_status, _, good_payload = good.result(30)
        assert bad_status == 400
        assert "rounds must be positive" in bad_payload["error"]
        assert good_status == 200
        assert len(good_payload["values"]) == 4
        after = slow.client.pool.workers_info()[0]
        assert after["pid"] == before["pid"]
        assert after["restarts"] == before["restarts"] == 0

    def test_worker_batch_survives_a_malformed_message(self, reference_db,
                                                       workload):
        """Nothing a client sends can raise out of ``_execute_batch``."""
        name = workload[0][0]
        base = {"op": "sample", "names": (name,), "replacement": True,
                "seed": 3, "x": 0, "exhaustive": False}
        batch = [dict(base, id=1, rounds=0), dict(base, id=2, rounds=2),
                 dict(base, id=3, op="contains", x="not-a-number")]
        out = []
        _execute_batch(types.SimpleNamespace(db=reference_db), batch,
                       out.append)
        # Each failed alone or with its kernel group, marshalled back
        # as an error reply rather than raised.
        assert {rid: (ok, error[0]) for rid, ok, error in out} == {
            1: (False, "ValueError"), 2: (False, "ValueError"),
            3: (False, "ValueError")}


class TestCancellation:
    def test_cancelled_future_does_not_kill_the_worker(self, slow,
                                                       workload):
        pool = slow.client.pool
        before = pool.workers_info()[0]
        doomed = pool.submit("sample", (workload[0][0],), rounds=2, seed=1)
        doomed.cancel()  # wins: the result is still 20 ms away
        for i in range(5):
            values = slow.client.sample(workload[1][0], r=2,
                                        seed=i)["values"]
            assert len(values) == 2
        assert doomed.cancelled()
        assert pool.workers_info()[0] == before


class TestServingSafeMutations:
    def test_add_set_while_serving(self, dynamic_served):
        service = dynamic_served.client
        ids = np.arange(1, 8_000, 97, dtype=np.uint64)
        service.add_set("fresh", ids)
        values = service.sample("fresh", r=8, seed=3)["values"]
        assert values
        assert set(values) <= set(ids.tolist())
        elements = HTTPServiceClient(dynamic_served.url).reconstruct(
            "fresh", exhaustive=True)["elements"]
        assert set(ids.tolist()) <= set(elements)

    def test_failed_add_set_registers_no_occupancy(self, dynamic_served):
        pool = dynamic_served.client.pool
        occupied = pool.leader.occupied.copy()
        state = pool.epoch_state()
        unused = np.setdiff1d(np.arange(8_000, dtype=np.uint64),
                              occupied)[:50]
        with pytest.raises(DuplicateSetError):
            pool.add_set("alpha", unused)
        with pytest.raises(KeyError):
            pool.extend_set("ghost", unused)
        assert np.array_equal(pool.leader.occupied, occupied)
        assert pool.epoch_state() == state  # nothing shipped to workers

    def test_extend_and_drop_while_serving(self, dynamic_served):
        pool = dynamic_served.client.pool
        pool.add_set("churning", np.arange(3, 400, 11, dtype=np.uint64))
        pool.extend_set("churning", np.arange(5, 400, 13, dtype=np.uint64))
        merged = set(range(3, 400, 11)) | set(range(5, 400, 13))
        values = dynamic_served.client.sample("churning", r=16,
                                              seed=4)["values"]
        assert values and set(values) <= merged
        pool.drop_set("churning")  # drops have no log opcode: promotes
        with pytest.raises(KeyError, match="churning"):
            dynamic_served.client.sample("churning", r=1, seed=4)

    def test_insert_and_retire_while_serving(self, dynamic_served):
        """Readers keep getting answers while occupancy churns."""
        service = dynamic_served.client
        leader = service.pool.leader
        before = leader.occupied.copy()
        free = np.setdiff1d(np.arange(8_000, dtype=np.uint64), before)
        errors = []
        stop = threading.Event()

        def hammer():
            i = 0
            while not stop.is_set():
                try:
                    service.sample("alpha", r=4, seed=i)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                i += 1

        readers = [threading.Thread(target=hammer) for _ in range(3)]
        for reader in readers:
            reader.start()
        try:
            for cycle in range(6):
                batch = free[cycle * 25:(cycle + 1) * 25]
                service.insert_ids(batch)
                service.retire_ids(batch)
        finally:
            stop.set()
            for reader in readers:
                reader.join(10)
        assert not errors
        assert np.array_equal(leader.occupied, before)
