"""The serving tier: a process-per-shard pool over shared mmap plans.

Each shard worker is a real OS *process* that attaches to the promoted
``plan.bst`` / ``sets.bst`` snapshot via ``np.memmap`` — the page cache
gives every worker the same physical read-only bytes, so N workers cost
one plan in RAM — while the parent process runs the front end and owns
all writes.

Serving directory layout (one engine directory, extended)::

    dir/
      engine.json  plan.bst  sets.bst     # canonical snapshot
      plan.g000042.bst  sets.g000042.bst  # promoted generation (hardlinks)
      EPOCH                               # version file (JSON, atomic)
      wal/                                # leader WAL (durable mode only)
      wal-workers/00/  01/  ...           # one mutation log per worker

The coordination protocol, in full:

* **Reads** are routed by a consistent-hash ring over set names,
  enqueued on the owning worker's ``multiprocessing`` queue, gathered
  under the :class:`~repro.service.scheduler.BatchPolicy` and dispatched
  through the batched engine entry points — per-request
  :class:`~repro.api.SampleSpec` seeds make every result (values *and*
  OpCounters) bit-identical to direct engine calls, whatever the batch
  composition, worker count or replica that served it.
* **Writes** route through the leader (the parent process): the leader
  engine applies the mutation through the normal epoch pipeline, the
  record is appended to *every worker's own WAL* (one log per worker
  process), and the ``EPOCH`` version file's ``wal_seq`` is bumped by
  atomic rename *before* the write is acknowledged.  A worker checks
  ``EPOCH`` after gathering each batch — so any read submitted after a
  write ack executes against state that includes the write
  (read-your-writes) — and replays its log tail through
  :func:`repro.durability.recovery.replay_records`, i.e. with
  recovery's exact epoch-alignment verification.
* **Epoch promotion** (checkpoint / compact / membership change) writes
  a fresh snapshot pair, hardlinks it under generation names, truncates
  the worker logs and atomically renames a new ``EPOCH`` naming the
  pair.  Workers detect the generation change at the next batch
  boundary and remap; in-flight batches keep the old inode (POSIX), so
  a read pins exactly one snapshot — never a torn mix.
* **Observability** piggybacks on the result pipe: before posting a
  batch's results, each worker ships a metrics *delta*
  (:func:`repro.obs.metrics.diff_exports` of its registry plus the
  process-global runtime registry) and the batch's slowest trace under
  a reserved sentinel id.  The leader folds deltas into cumulative
  per-shard exports keyed by shard id — so ``GET /metrics`` serves
  fleet-wide totals plus per-worker ``{worker="NN"}`` series whose sums
  match exactly, and the totals survive kill-9/respawn.  Because the
  delta lands on the queue *before* the results it covers, a scrape
  performed after a client's future resolves always includes that
  request.
* **Worker death** is detected by the parent's response pumps; in-flight
  requests for the dead shard fail with :class:`WorkerDiedError` (a 503
  at the HTTP layer — never a hang), and the worker is respawned: it
  reattaches the promoted snapshot and replays its WAL, landing
  bit-identically on the pre-kill state.
* **Durable mode** opens the leader through
  :func:`repro.durability.open_durable`: every write journals to the
  leader's own WAL *before* the fanout, checkpoints bind the truncation
  epoch inside ``plan.bst``'s atomic rename, and a parent crash
  recovers through ``repro recover`` /
  :func:`~repro.durability.recover_engine` unchanged.

:class:`ProcessService` is the client-shaped facade
(:func:`repro.service.http.route_request` dispatches against it), served
over HTTP by the asyncio front end of :mod:`repro.service.aserver` via
``repro serve --workers N``.  To embed the tier in a Python program
(tests, notebooks), persist an engine into a directory with
:meth:`ProcessShardPool.from_engine` and wrap the pool in a
:class:`ProcessService`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import os
import pathlib
import queue
import shutil
import signal
import threading
import time
from concurrent.futures import Future

import numpy as np

from repro.api.batch import SampleSpec
from repro.api.engine import (
    _PLAN_FILE,
    _SETS_COMPILED_FILE,
    BackendCapabilityError,
    BloomDB,
    DurabilityError,
)
from repro.core.store import DuplicateSetError
from repro.obs.metrics import (
    BATCH_BUCKETS,
    Metrics,
    diff_exports,
    empty_export,
    export_snapshot,
    merge_exports,
    relabel_export,
    stage_summaries,
)
from repro.obs.prometheus import render_prometheus
from repro.obs.runtime import RUNTIME
from repro.obs.trace import Trace, TraceBuffer, collect_stages
from repro.service.client import DEFAULT_TIMEOUT_S, encode_result
from repro.service.hashring import ConsistentHashRing
from repro.service.scheduler import (
    BatchPolicy,
    ServiceOverloadedError,
    gather_batch,
)

#: The version file coordinating workers with the leader.
EPOCH_FILE = "EPOCH"

#: Directory of per-worker mutation logs inside a serving directory.
WORKER_WAL_DIR = "wal-workers"

#: How long to wait for a spawned worker to attach and report ready.
_READY_TIMEOUT_S = 60.0

#: Response-pump poll interval; also bounds death-detection latency.
_PUMP_POLL_S = 0.05

#: Read ops a worker process understands (writes stay with the leader).
_READ_OPS = ("sample", "reconstruct", "contains", "sample_union",
             "sample_intersection")

#: Exception classes a worker may marshal back to the parent, by name.
_WIRE_ERRORS = {
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
    "BackendCapabilityError": BackendCapabilityError,
    "DuplicateSetError": DuplicateSetError,
    "DurabilityError": DurabilityError,
}


class WorkerDiedError(ServiceOverloadedError):
    """A shard worker process died with this request in flight.

    Subclasses :class:`ServiceOverloadedError` so the HTTP layer maps it
    to a clean 503 — the shard is temporarily unavailable while the
    parent respawns the worker; clients retry.
    """


def derive_seed(*parts) -> int:
    """A stable 63-bit seed from arbitrary request parts.

    SHA-256 over the ``repr`` of the parts: process-independent (unlike
    builtin ``hash``), collision-resistant enough that distinct requests
    get independent streams, and small enough for
    ``numpy.random.default_rng``.  Every stochastic request executes
    with an explicit seed — the caller's, or one derived here — so its
    result is a pure function of (engine state, request), independent
    of how requests were batched.
    """
    blob = "\x1f".join(repr(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def read_epoch_state(directory) -> dict:
    """Read and decode the serving directory's ``EPOCH`` version file."""
    return json.loads(
        (pathlib.Path(directory) / EPOCH_FILE).read_text())


def write_epoch_state(directory, state: dict) -> None:
    """Atomically replace the ``EPOCH`` version file (temp + rename).

    Workers only ever observe a complete old or complete new version —
    the same torn-write discipline :mod:`repro.core.mmapio` applies to
    the snapshots the file points at.
    """
    path = pathlib.Path(directory) / EPOCH_FILE
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(state))
    os.replace(tmp, path)


def worker_wal_path(directory, worker_id: int) -> pathlib.Path:
    """The mutation-log directory of one worker process."""
    return pathlib.Path(directory) / WORKER_WAL_DIR / f"{worker_id:02d}"


# ---------------------------------------------------------------------------
# Worker process side
# ---------------------------------------------------------------------------


class _WorkerAttachment:
    """One worker's view of the serving directory: snapshot + log tail.

    ``attach()`` mmaps the generation snapshot the ``EPOCH`` file names
    and replays the worker's own WAL through the recovery core;
    ``refresh()`` is the per-batch-boundary check — remap on a
    generation change, replay the new tail on a ``wal_seq`` change,
    do nothing (one ``EPOCH`` read) otherwise.
    """

    def __init__(self, directory, worker_id: int,
                 wal_dir: str | None = None):
        self.directory = pathlib.Path(directory)
        self.worker_id = int(worker_id)
        self.wal_dir = (pathlib.Path(wal_dir) if wal_dir is not None
                        else worker_wal_path(directory, worker_id))
        self.db: BloomDB | None = None
        self.state: dict = {}
        self._cursor = 0

    def attach(self) -> None:
        """Load the promoted snapshot and replay this worker's log."""
        state = read_epoch_state(self.directory)
        self._load(state)

    def _load(self, state: dict) -> None:
        from repro.durability.recovery import replay_records
        from repro.durability.wal import scan_log

        db = BloomDB.load(self.directory, plan_file=state["plan"],
                          sets_file=state["sets"])
        snapshot_epoch = int(state["snapshot_epoch"])
        db.restore_epoch(snapshot_epoch)
        db.current_epoch()
        records = scan_log(self.wal_dir).records if self.wal_dir.is_dir() \
            else []
        replay_records(db, records, snapshot_epoch,
                       origin=f"worker {self.worker_id}")
        self.db = db
        self.state = state
        self._cursor = len(records)

    def refresh(self) -> None:
        """Catch up with the leader at a batch boundary (cheap when idle)."""
        from repro.durability.recovery import replay_records
        from repro.durability.wal import scan_log

        state = read_epoch_state(self.directory)
        if state["gen"] != self.state["gen"]:
            # New promoted snapshot: remap.  The old mapping stays valid
            # for any result already being serialised (POSIX keeps the
            # unlinked inode alive), the new one serves the next batch.
            self._load(state)
            return
        if state["wal_seq"] != self.state["wal_seq"]:
            records = scan_log(self.wal_dir).records
            replay_records(self.db, records[self._cursor:],
                           int(self.state["snapshot_epoch"]),
                           origin=f"worker {self.worker_id}")
            self._cursor = len(records)
            self.state = state

    def applied_seq(self) -> int:
        """Records of this worker's log applied so far (replication lag)."""
        return self._cursor


def _encode_error(exc: Exception) -> tuple:
    return (type(exc).__name__,
            str(exc.args[0]) if exc.args else str(exc))


def _execute_batch(att: _WorkerAttachment, batch: list,
                   respond) -> None:
    """Partition one gathered batch by op and dispatch batch kernels.

    Sampling requests share one ``sample_many`` dispatch over
    per-request :class:`~repro.api.SampleSpec` seeds, reconstructions
    group into ``reconstruct_many`` passes — which is what makes every
    answer bit-identical to a direct engine call per request.  Nothing a
    client sent can raise out of here: a malformed request fails only
    itself (or, if it slipped past :meth:`ProcessShardPool.submit`, its
    kernel group), and the worker process keeps serving.
    """
    db = att.db
    samples: list[dict] = []
    recon: dict[bool, list[dict]] = {}
    for msg in batch:
        try:
            op = msg["op"]
            if op not in _READ_OPS:
                raise ValueError(f"worker cannot serve op {op!r}")
            if op != "sample_union" and op != "sample_intersection":
                for name in msg["names"]:
                    if name not in db.store:
                        raise KeyError(f"no set named {name!r}")
        except Exception as exc:  # noqa: BLE001 - marshalled to parent
            respond((msg["id"], False, _encode_error(exc)))
            continue
        if op == "sample":
            samples.append(msg)
        elif op == "reconstruct":
            recon.setdefault(bool(msg["exhaustive"]), []).append(msg)
        else:
            _run_single(db, msg, respond)
    if samples:
        try:
            specs = [SampleSpec(m["names"][0], int(m["rounds"]),
                                bool(m["replacement"]), seed=int(m["seed"]),
                                key=str(i))
                     for i, m in enumerate(samples)]
            report = db.sample_many(specs)
        except Exception as exc:  # noqa: BLE001 - marshalled to parent
            for msg in samples:
                respond((msg["id"], False, _encode_error(exc)))
        else:
            for msg, result in zip(samples, report.ordered()):
                respond((msg["id"], True, encode_result(result)))
    for exhaustive, group in recon.items():
        names = [m["names"][0] for m in group]
        try:
            results = db.store.reconstruct_many(names, exhaustive=exhaustive)
        except Exception as exc:  # noqa: BLE001 - marshalled to parent
            for msg in group:
                respond((msg["id"], False, _encode_error(exc)))
        else:
            for msg, result in zip(group, results):
                respond((msg["id"], True, encode_result(result)))


def _run_single(db: BloomDB, msg: dict, respond) -> None:
    """Per-request ops: contains and the cross-set merge samples."""
    try:
        op = msg["op"]
        names = list(msg["names"])
        if op == "contains":
            payload = {"contains": db.contains(names[0], int(msg["x"]))}
        else:
            if not names:
                raise ValueError("need at least one set name")
            merged = db.store.copy_filter(names[0])
            for name in names[1:]:
                if op == "sample_union":
                    merged.union_update(db.store.copy_filter(name))
                else:
                    merged = merged.intersection(db.store.copy_filter(name))
            payload = encode_result(
                db.store.sample_filter(merged, rng=int(msg["seed"])))
    except Exception as exc:  # noqa: BLE001 - marshalled to parent
        respond((msg["id"], False, _encode_error(exc)))
        return
    respond((msg["id"], True, payload))


def _record_batch(metrics: Metrics, batch: list, out: list,
                  assembly_s: float, execute_s: float,
                  gathered_at: float, deep_stages: dict) -> dict | None:
    """Record one executed batch into the worker's metric registry.

    Counts served/failed requests, sizes the batch, and decomposes the
    latency into the stage histograms (queue wait per request, assembly
    and execution per batch).  Returns the trace dict of the batch's
    slowest-queued request — with the batch-level spans and the deep
    spans captured during execution attached — or ``None`` when no
    request carried a submit timestamp.
    """
    metrics.inc("batches")
    metrics.observe("batch_size", len(batch), buckets=BATCH_BUCKETS)
    served = sum(1 for _, ok, _ in out if ok)
    if served:
        metrics.inc("requests_served", served)
    if len(out) - served:
        metrics.inc("requests_failed", len(out) - served)
    metrics.observe("stage.batch_assembly_s", assembly_s)
    metrics.observe("stage.execute_s", execute_s)
    slowest = None
    for msg in batch:
        submitted = msg.get("t_submit")
        if submitted is None:
            continue
        queue_s = max(gathered_at - float(submitted), 0.0)
        metrics.observe("stage.queue_s", queue_s)
        if slowest is None or queue_s > slowest[0]:
            slowest = (queue_s, msg)
    if slowest is None:
        return None
    queue_s, msg = slowest
    trace = Trace(int(msg["id"]), str(msg["op"]),
                  msg["names"][0] if msg.get("names") else None)
    trace.add_span("queue", queue_s)
    trace.add_span("batch_assembly", assembly_s)
    trace.add_span("execute", execute_s)
    for stage, seconds in deep_stages.items():
        trace.add_span(stage, seconds)
    return trace.finish(queue_s + assembly_s + execute_s).to_dict()


def _worker_main(worker_id: int, directory: str, policy_args: tuple,
                 requests, responses, heartbeat_s: float | None = None,
                 wal_dir: str | None = None) -> None:
    """Entry point of one shard worker process.

    Loop: block for the first request, gather a batch under the shared
    policy, *then* check the ``EPOCH`` file (so a request enqueued after
    a write ack always executes against post-write state), execute, and
    post encoded results.  A ``None`` message is the graceful-shutdown
    sentinel.

    Each batch additionally ships a metrics delta (worker registry plus
    this process's runtime registry) and the batch's slowest trace under
    the reserved id ``-3`` — enqueued *before* the batch's results, so
    any scrape taken after a result is visible already counts it.

    With ``heartbeat_s`` set (the replicated tier), the blocking wait is
    replaced by a timed wait: every interval the worker *refreshes* even
    while idle — this is what tails newly shipped log records without
    read traffic — and posts a heartbeat under the reserved id ``-4``
    carrying its applied record count.  The supervisor uses heartbeat
    silence (not process death) to detect hung workers, and the ack
    policies gate writes on the applied counts.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    policy = BatchPolicy(*policy_args)
    att = _WorkerAttachment(directory, worker_id, wal_dir=wal_dir)
    att.attach()
    metrics = Metrics()
    shipped = empty_export()

    def _heartbeat() -> None:
        responses.put((-4, True, {
            "worker": worker_id,
            "applied": att.applied_seq(),
            "epoch": att.db.current_epoch().epoch,
            "gen": att.state.get("gen"),
        }))

    responses.put((-1, True, {"ready": worker_id, "pid": os.getpid()}))
    if heartbeat_s is not None:
        _heartbeat()
    while True:
        if heartbeat_s is None:
            msg = requests.get()
        else:
            try:
                msg = requests.get(timeout=heartbeat_s)
            except queue.Empty:
                try:
                    att.refresh()
                except Exception:  # noqa: BLE001 - stay alive; the lag
                    # the stale applied count reports is the signal.
                    metrics.inc("replica_refresh_errors")
                _heartbeat()
                continue
        if msg is None:
            break
        gather_started = time.perf_counter()
        batch = gather_batch(requests, msg, policy)
        gathered_at = time.perf_counter()
        stopping = any(m is None for m in batch)
        batch = [m for m in batch if m is not None]
        if batch:
            out: list[tuple] = []
            deep_stages: dict = {}
            execute_s = 0.0
            try:
                att.refresh()
            except Exception as exc:  # noqa: BLE001 - fail batch, not worker
                for m in batch:
                    out.append((m["id"], False, _encode_error(exc)))
            else:
                exec_started = time.perf_counter()
                with collect_stages() as deep_stages:
                    _execute_batch(att, batch, out.append)
                execute_s = time.perf_counter() - exec_started
            trace = _record_batch(metrics, batch, out,
                                  gathered_at - gather_started, execute_s,
                                  gathered_at, deep_stages)
            current = merge_exports(
                merge_exports(empty_export(), metrics.export()),
                RUNTIME.export())
            responses.put((-3, True, {
                "metrics": diff_exports(current, shipped),
                "trace": trace,
            }))
            shipped = current
            for item in out:
                responses.put(item)
            if heartbeat_s is not None:
                _heartbeat()
        if stopping:
            break
    responses.put((-2, True, {"bye": worker_id}))


# ---------------------------------------------------------------------------
# Parent (leader) side
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process.

    ``last_heartbeat`` / ``applied_seq`` are maintained by the response
    pump from ``-4`` heartbeat messages (the replicated tier);
    ``pipe_torn`` is set when a submit finds the request queue torn down
    — the supervisor kills and respawns such a worker, restoring fresh
    queues.
    """

    def __init__(self, shard_id: int, ctx, queue_depth: int):
        self.shard_id = shard_id
        self.requests = ctx.Queue(maxsize=queue_depth)
        self.responses = ctx.Queue()
        self.process = None
        self.pump: threading.Thread | None = None
        self.ready = threading.Event()
        self.stop_requested = False
        self.restarts = 0
        self.last_heartbeat = time.monotonic()
        self.applied_seq = 0
        self.pipe_torn = False

    def discard_queues(self) -> None:
        """Drop the queues of a dead worker without blocking exit."""
        for q in (self.requests, self.responses):
            q.close()
            q.cancel_join_thread()


class ProcessShardPool:
    """A process-per-shard serving pool over one engine directory.

    The parent (this object) is the write leader and request router;
    each shard is a worker process attached read-only to the promoted
    snapshot.  See the module docstring for the full protocol.  Build
    with :meth:`from_engine` (persist a live engine, then serve it) or
    directly from an existing directory (``repro serve --db --workers``);
    pass ``durable=True`` to open-or-recover the directory as a durable
    engine whose leader journals every write.
    """

    def __init__(self, directory, workers: int = 4, *,
                 policy: BatchPolicy | None = None, replicas: int = 64,
                 durable: bool = False, config=None,
                 sync: str | None = None, start_method: str = "spawn",
                 metrics: Metrics | None = None):
        if workers <= 0:
            raise ValueError("need at least one worker process")
        self.directory = pathlib.Path(directory)
        self.policy = policy if policy is not None else BatchPolicy()
        self.replicas = int(replicas)
        self.metrics = metrics if metrics is not None else Metrics()
        self.traces = TraceBuffer()
        self._metrics_lock = threading.Lock()
        self._worker_exports: dict[int, dict] = {}
        self._ctx = multiprocessing.get_context(start_method)
        self._mutation_lock = threading.RLock()
        self._inflight_lock = threading.Lock()
        self._inflight: dict[int, tuple[Future, int, float]] = {}
        self._request_ids = itertools.count()
        self._started = False
        self._stopping = False

        if durable:
            from repro.durability.recovery import open_durable

            self.leader, self.recovery_report = open_durable(
                self.directory, config, sync=sync)
        else:
            self.recovery_report = None
            self.leader = BloomDB.load(self.directory)
            if self.leader.config.plan != "compiled":
                raise ValueError(
                    f"process serving needs a plan=\"compiled\" engine; "
                    f"{self.directory} was saved with "
                    f"plan={self.leader.config.plan!r} "
                    f"(convert it with `repro compile`)")

        self._workers: list[_WorkerHandle] = [
            _WorkerHandle(i, self._ctx, self.policy.queue_depth)
            for i in range(int(workers))
        ]
        self._wals: list = []
        self.ring = ConsistentHashRing(len(self._workers), self.replicas)
        for stale in itertools.chain(self.directory.glob("plan.g*.bst"),
                                     self.directory.glob("sets.g*.bst")):
            stale.unlink()
        self._state = {"gen": 0, "epoch": 0, "wal_seq": 0,
                       "snapshot_epoch": 0, "plan": _PLAN_FILE,
                       "sets": _SETS_COMPILED_FILE,
                       "workers": len(self._workers)}
        self._promote(initial=True)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_engine(cls, db: BloomDB, directory, workers: int = 4,
                    **kwargs) -> "ProcessShardPool":
        """Persist a live engine into ``directory`` and pool-serve it."""
        if db.config.plan != "compiled":
            raise ValueError(
                "process serving needs plan=\"compiled\" (the workers "
                "attach to the compiled artefacts via np.memmap); rebuild "
                "the engine with plan=\"compiled\"")
        db.save(directory)
        return cls(directory, workers, **kwargs)

    # -- promotion protocol ---------------------------------------------------

    def _promote(self, initial: bool = False) -> dict:
        """Write a fresh snapshot generation and point ``EPOCH`` at it.

        Durable leaders checkpoint (snapshot + leader-WAL truncation in
        one atomic rename); volatile leaders fold their delta and
        persist the canonical pair.  Either way the fresh pair is then
        hardlinked under generation names (``plan.g000003.bst`` /
        ``sets.g000003.bst``) — the *pair* a worker opens is whichever
        single ``EPOCH`` read it performed, so plan and sets can never
        mix across generations — every worker log is reset to a bare
        checkpoint marker, and the new ``EPOCH`` lands by atomic rename:
        the swap workers remap from at their next batch boundary.  The
        previous generation's links survive one more promotion (a worker
        may hold a just-read ``EPOCH`` naming them); only gen-2 is
        unlinked, and its pages stay mapped in any worker mid-batch.
        """
        with self._mutation_lock:
            if self.leader.wal is not None:
                self.leader.checkpoint()
            else:
                self.leader.compact()
                epoch = self.leader.current_epoch().epoch
                self.leader.compiled_tree().save(
                    self.directory / _PLAN_FILE,
                    extra_meta={"wal_epoch": epoch})
                self.leader.store.save_compiled(
                    self.directory / _SETS_COMPILED_FILE)
            epoch = self.leader.current_epoch().epoch
            gen = int(self._state["gen"]) + (0 if initial else 1)
            plan_name = f"plan.g{gen:06d}.bst"
            sets_name = f"sets.g{gen:06d}.bst"
            for canonical, link in ((_PLAN_FILE, plan_name),
                                    (_SETS_COMPILED_FILE, sets_name)):
                target = self.directory / link
                if target.exists():
                    target.unlink()
                os.link(self.directory / canonical, target)
            self._reset_worker_wals(epoch, initial=initial)
            self._state = {"gen": gen, "epoch": epoch, "wal_seq": 0,
                           "snapshot_epoch": epoch, "plan": plan_name,
                           "sets": sets_name, "workers": len(self._workers)}
            write_epoch_state(self.directory, self._state)
            self._unlink_generation(gen - 2)
            return dict(self._state)

    def _unlink_generation(self, gen: int) -> None:
        """Drop a superseded generation's hardlinks (mappings persist)."""
        if gen < 0:
            return
        for name in (f"plan.g{gen:06d}.bst", f"sets.g{gen:06d}.bst"):
            try:
                (self.directory / name).unlink()
            except FileNotFoundError:
                pass

    def _reset_worker_wals(self, epoch: int, initial: bool) -> None:
        """Rotate every worker log down to a bare checkpoint marker."""
        from repro.durability.wal import WriteAheadLog

        if initial:
            root = self.directory / WORKER_WAL_DIR
            if root.exists():
                shutil.rmtree(root)
            self._wals = [
                WriteAheadLog(worker_wal_path(self.directory, h.shard_id),
                              sync="batch")
                for h in self._workers
            ]
        for wal in self._wals:
            wal.truncate(epoch)

    def _fanout(self, records: list[tuple]) -> None:
        """Append records to every worker log, then publish the ack point.

        Order matters: the records must be readable (flushed) before the
        ``EPOCH`` bump that makes workers look for them, and the bump
        must land before the caller's write is acknowledged.
        """
        if not records:
            return
        for wal in self._wals:
            for op, ids, epoch, name in records:
                wal.append(op, ids, epoch=epoch, name=name)
        self._state = dict(self._state,
                           wal_seq=int(self._state["wal_seq"]) + 1,
                           epoch=self.leader.current_epoch().epoch)
        write_epoch_state(self.directory, self._state)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ProcessShardPool":
        """Spawn every worker process and wait until all attached."""
        if self._started:
            return self
        self._stopping = False
        for handle in self._workers:
            self._spawn(handle)
        self._await_ready(self._workers)
        self._started = True
        return self

    def _spawn(self, handle: _WorkerHandle) -> None:
        handle.ready.clear()
        handle.stop_requested = False
        handle.last_heartbeat = time.monotonic()
        handle.process = self._ctx.Process(
            target=_worker_main, args=self._worker_args(handle),
            name=f"repro-worker-{handle.shard_id}", daemon=True)
        handle.process.start()
        handle.pump = threading.Thread(
            target=self._pump, args=(handle,),
            name=f"repro-pump-{handle.shard_id}", daemon=True)
        handle.pump.start()

    def _worker_args(self, handle: _WorkerHandle) -> tuple:
        """The ``_worker_main`` arguments for one handle (override hook)."""
        policy_args = (self.policy.max_batch, self.policy.max_delay_ms,
                       self.policy.queue_depth)
        return (handle.shard_id, str(self.directory), policy_args,
                handle.requests, handle.responses)

    def _await_ready(self, handles) -> None:
        deadline = time.monotonic() + _READY_TIMEOUT_S
        for handle in handles:
            remaining = max(0.0, deadline - time.monotonic())
            if not handle.ready.wait(remaining):
                raise RuntimeError(
                    f"worker {handle.shard_id} failed to attach within "
                    f"{_READY_TIMEOUT_S:.0f}s")

    def stop(self) -> None:
        """Drain and stop every worker process (idempotent)."""
        if not self._started:
            return
        self._stopping = True
        for handle in self._workers:
            handle.stop_requested = True
            try:
                handle.requests.put_nowait(None)
            except (queue.Full, ValueError, OSError):
                # Worker gone/backlogged, or the queue was torn down by
                # fault injection — the join below still bounds the wait.
                pass
        for handle in self._workers:
            if handle.process is not None:
                handle.process.join(timeout=10.0)
                if handle.process.is_alive():  # pragma: no cover - stuck
                    handle.process.terminate()
                    handle.process.join(timeout=5.0)
            if handle.pump is not None:
                handle.pump.join(timeout=5.0)
        self._started = False

    def close(self) -> None:
        """Stop workers, promote a final snapshot, release the logs.

        Every per-worker log gets a clean-shutdown marker, not just the
        leader's WAL — a graceful ``SIGTERM`` of the whole process tree
        must leave *all* logs marked, so the next attach (and any
        offline inspection) can prove no worker state was lost.
        """
        self.stop()
        if self.leader.wal is not None:
            self._promote()
            self.leader.wal.mark_clean()
        for wal in self._wals:
            wal.mark_clean()
            wal.close()
        self._wals = []

    # -- death handling -------------------------------------------------------

    def _pump(self, handle: _WorkerHandle) -> None:
        """Drain one worker's responses; detect and survive its death."""
        while True:
            try:
                rid, ok, payload = handle.responses.get(timeout=_PUMP_POLL_S)
            except queue.Empty:
                if handle.process is None or not handle.process.is_alive():
                    if handle.stop_requested or self._stopping:
                        return
                    self._on_worker_death(handle)
                    return
                continue
            except (EOFError, OSError):  # pragma: no cover - queue torn down
                return
            if rid == -1:
                handle.last_heartbeat = time.monotonic()
                handle.ready.set()
                continue
            if rid == -2:
                if handle.stop_requested or self._stopping:
                    return
                continue
            if rid == -3:
                self._absorb(handle.shard_id, payload)
                continue
            if rid == -4:
                self._on_heartbeat(handle, payload)
                continue
            self._resolve(rid, ok, payload)

    def _on_heartbeat(self, handle: _WorkerHandle, payload: dict) -> None:
        """Record one worker heartbeat (hang detection + applied seq)."""
        handle.last_heartbeat = time.monotonic()
        handle.applied_seq = int(payload.get("applied", 0))

    def _absorb(self, shard: int, payload: dict) -> None:
        """Fold one worker's shipped metrics delta / trace into the leader.

        Per-shard exports are *cumulative* (deltas merge in), keyed by
        shard id rather than process identity — which is what keeps the
        fleet totals monotone across kill-9 and respawn.
        """
        delta = payload.get("metrics")
        if delta:
            with self._metrics_lock:
                merge_exports(
                    self._worker_exports.setdefault(shard, empty_export()),
                    delta)
        trace = payload.get("trace")
        if trace:
            self.traces.offer(trace)

    def _resolve(self, rid: int, ok: bool, payload) -> None:
        with self._inflight_lock:
            entry = self._inflight.pop(rid, None)
        if entry is None:
            return
        future, _, submitted = entry
        if not future.set_running_or_notify_cancel():
            self.metrics.inc("cancelled_total")
            return
        self.metrics.observe("stage.total_s",
                             max(time.perf_counter() - submitted, 0.0))
        if ok:
            self.metrics.inc("served_total")
            future.set_result(payload)
        else:
            self.metrics.inc("errors_total")
            name, message = payload
            future.set_exception(_WIRE_ERRORS.get(name, RuntimeError)(message))

    def _on_worker_death(self, handle: _WorkerHandle) -> None:
        """Fail the dead shard's in-flight requests, then respawn it.

        The respawned process reattaches the promoted snapshot and
        replays its own WAL (see :class:`_WorkerAttachment`), landing on
        exactly the state the dead worker served.  Requests already
        routed to the dead worker resolve to :class:`WorkerDiedError`
        (503) rather than hanging; other shards are untouched.
        """
        shard = handle.shard_id
        with self._inflight_lock:
            doomed = [rid for rid, (_, s, _) in self._inflight.items()
                      if s == shard]
            entries = [self._inflight.pop(rid) for rid in doomed]
        for future, _, _ in entries:
            if future.set_running_or_notify_cancel():
                future.set_exception(WorkerDiedError(
                    f"shard {shard} worker process died mid-request; "
                    f"the pool is respawning it — retry"))
        self.metrics.inc("worker_deaths")
        handle.discard_queues()
        if self._stopping:
            return
        replacement = _WorkerHandle(shard, self._ctx,
                                    self.policy.queue_depth)
        replacement.restarts = handle.restarts + 1
        self._workers[shard] = replacement
        self._spawn(replacement)
        self.metrics.inc("worker_restarts")

    def kill_worker(self, shard: int) -> int:
        """SIGKILL one worker process (fault-injection hook); returns pid."""
        handle = self._workers[shard]
        pid = handle.process.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    # -- routing --------------------------------------------------------------

    @property
    def num_workers(self) -> int:
        """Number of shard worker processes."""
        return len(self._workers)

    def shard_of(self, name: str) -> int:
        """The worker shard owning a routing key (consistent hash)."""
        return self.ring.shard_for(name)

    def _route(self, key: str) -> int:
        """Worker index to serve one read (override hook for fan-out)."""
        return self.ring.shard_for(key)

    def submit(self, op: str, names, *, rounds: int = 1,
               replacement: bool = True, seed: int = 0, x: int = 0,
               exhaustive: bool = False, block: bool = False,
               timeout: float | None = None) -> Future:
        """Enqueue one read on the owning worker; returns a Future.

        Requests are validated here, in the caller's thread: malformed
        input raises :class:`ValueError` (a 400 over HTTP) and never
        reaches a worker.  Admission control: a full worker queue
        rejects with :class:`ServiceOverloadedError` unless ``block``.
        """
        if not self._started:
            raise RuntimeError("process pool is not started")
        if op not in _READ_OPS:
            raise ValueError(f"unknown read op {op!r}")
        names = tuple(str(n) for n in names)
        if not names:
            raise ValueError("request needs at least one set name")
        if op in ("sample_union", "sample_intersection") and len(names) < 2:
            raise ValueError(f"{op} needs at least two set names")
        if int(rounds) <= 0:
            raise ValueError("rounds must be positive")
        if int(seed) < 0:
            raise ValueError("seed must be non-negative")
        shard = self._route(names[0])
        handle = self._workers[shard]
        rid = next(self._request_ids)
        future: Future = Future()
        submitted = time.perf_counter()
        msg = {"id": rid, "op": op, "names": names, "rounds": int(rounds),
               "replacement": bool(replacement), "seed": int(seed),
               "x": int(x), "exhaustive": bool(exhaustive),
               "t_submit": submitted}
        with self._inflight_lock:
            self._inflight[rid] = (future, shard, submitted)
        try:
            if block:
                handle.requests.put(msg, timeout=timeout)
            else:
                handle.requests.put_nowait(msg)
        except queue.Full:
            with self._inflight_lock:
                self._inflight.pop(rid, None)
            self.metrics.inc("rejected_total")
            raise ServiceOverloadedError(
                f"shard {shard} worker queue is full "
                f"({self.policy.queue_depth} pending requests)") from None
        except (OSError, ValueError):
            # The queue was torn down under us: the worker died and its
            # handle is being replaced — or the pipe itself was dropped
            # while the process lives, which the supervisor (replicated
            # tier) recovers by killing and respawning the worker.  Same
            # contract either way: a clean 503, retry after respawn.
            handle.pipe_torn = True
            with self._inflight_lock:
                self._inflight.pop(rid, None)
            self.metrics.inc("rejected_total")
            raise WorkerDiedError(
                f"shard {shard} worker process died; the pool is "
                f"respawning it — retry") from None
        self.metrics.inc("requests_total")
        return future

    # -- writes (leader path) -------------------------------------------------

    def insert_ids(self, ids) -> int:
        """Register ids as occupied; fan out to every worker log.

        Returns the number of ids submitted (0 for backends without
        occupancy: inserting into a static tree is a silent no-op).
        """
        return self._occupancy("insert", ids)

    def retire_ids(self, ids) -> int:
        """Retire ids from the occupied namespace on every worker."""
        if not self.leader.spec.supports_remove:
            raise BackendCapabilityError(
                f"tree backend {self.leader.config.tree!r} cannot remove "
                f"ids; use tree=\"dynamic\"")
        return self._occupancy("retire", ids)

    def _occupancy(self, kind: str, ids) -> int:
        ids = np.asarray(ids, dtype=np.uint64)
        if not self.leader.spec.requires_occupied or not ids.size:
            return 0
        with self._mutation_lock:
            before = self.leader.current_epoch().epoch
            if kind == "insert":
                self.leader.insert_ids(ids)
            else:
                self.leader.retire_ids(ids)
            after = self.leader.current_epoch().epoch
            if after != before:
                self._fanout([(kind, ids, after, "")])
        self._await_ack()
        return int(ids.size)

    def add_set(self, name: str, ids) -> None:
        """Create a named set on the leader; fan out store + occupancy."""
        self._set_mutation("add_set", name, ids)

    def extend_set(self, name: str, ids) -> None:
        """Insert elements into an existing named set on every worker."""
        self._set_mutation("extend_set", name, ids)

    def _set_mutation(self, op: str, name: str, ids) -> None:
        ids = np.asarray(ids, dtype=np.uint64)
        with self._mutation_lock:
            before = self.leader.current_epoch().epoch
            if op == "add_set":
                self.leader.add_set(name, ids)
            else:
                self.leader.extend_set(name, ids)
            after = self.leader.current_epoch().epoch
            records = [(op, ids, after, str(name))]
            if after != before:
                # The occupancy registration advanced the epoch; workers
                # must replay it as its own aligned record, exactly as
                # the leader's own WAL journals it.
                records.append(("insert", ids, after, ""))
            self._fanout(records)
        self._await_ack()

    def _await_ack(self) -> None:
        """Gate a write acknowledgement on the configured ack policy.

        The base tier acks once the fanout is durable (records flushed,
        ``EPOCH`` bumped) — a no-op here.  The replicated tier overrides
        this to additionally wait for follower confirmations under
        ``ack="quorum"``; it runs *outside* the mutation lock so death
        handling and promotion can proceed while a writer waits.
        """

    def drop_set(self, name: str) -> None:
        """Forget a named set (promotes: drops have no log opcode)."""
        with self._mutation_lock:
            self.leader.drop_set(name)
            self._promote()

    def compact(self) -> dict:
        """Fold the leader's delta and promote a fresh generation."""
        return self._promote()

    def checkpoint(self) -> dict:
        """Durable snapshot + promotion (durable pools only)."""
        if self.leader.wal is None:
            raise DurabilityError(
                "checkpoint() needs a durable pool; start with "
                "durable=True (repro serve --workers N --durable)")
        return self._promote()

    @property
    def durable(self) -> bool:
        """Whether the leader journals every write to its own WAL."""
        return self.leader.wal is not None

    # -- membership -----------------------------------------------------------

    def add_worker(self) -> int:
        """Grow the pool by one worker process (graceful rebalance).

        Promotes a fresh generation first (so the newcomer's log starts
        at the new snapshot), then spawns the worker and rebuilds the
        ring — consistent hashing moves only ~1/(N+1) of the keys.
        Returns the new worker count.
        """
        from repro.durability.wal import WriteAheadLog

        with self._mutation_lock:
            shard = len(self._workers)
            handle = _WorkerHandle(shard, self._ctx, self.policy.queue_depth)
            self._workers.append(handle)
            self._wals.append(WriteAheadLog(
                worker_wal_path(self.directory, shard), sync="batch"))
            self._promote()
            self.ring = ConsistentHashRing(len(self._workers), self.replicas)
            if self._started:
                self._spawn(handle)
                self._await_ready([handle])
        return len(self._workers)

    def remove_worker(self) -> int:
        """Shrink the pool by one worker (the highest shard), gracefully.

        The ring is rebuilt first so no new request routes to the
        leaving shard, its queue is drained by the worker before the
        shutdown sentinel, and its log directory is deleted.  Returns
        the new worker count.
        """
        with self._mutation_lock:
            if len(self._workers) <= 1:
                raise ValueError("cannot remove the last worker")
            handle = self._workers[-1]
            self.ring = ConsistentHashRing(len(self._workers) - 1,
                                           self.replicas)
            handle.stop_requested = True
            if self._started and handle.process is not None:
                handle.requests.put(None)
                handle.process.join(timeout=10.0)
                if handle.process.is_alive():  # pragma: no cover - stuck
                    handle.process.terminate()
                    handle.process.join(timeout=5.0)
            if handle.pump is not None:
                handle.pump.join(timeout=5.0)
            self._workers.pop()
            wal = self._wals.pop()
            wal.close()
            shutil.rmtree(worker_wal_path(self.directory, handle.shard_id),
                          ignore_errors=True)
            self._state = dict(self._state, workers=len(self._workers))
            write_epoch_state(self.directory, self._state)
        return len(self._workers)

    # -- introspection --------------------------------------------------------

    def fleet_export(self) -> dict:
        """Leader, runtime, and every worker's cumulative export, merged.

        Worker counters additionally appear as per-worker series labeled
        ``{worker="NN"}`` — keyed by shard id, so both the labeled
        series and the unlabeled fleet totals are monotone across
        kill-9/respawn, and the fleet total of any worker counter equals
        the sum of its per-worker series exactly.
        """
        merged = merge_exports(empty_export(), self.metrics.export())
        merge_exports(merged, RUNTIME.export())
        with self._metrics_lock:
            for shard in sorted(self._worker_exports):
                export = self._worker_exports[shard]
                merge_exports(merged, export)
                merge_exports(merged, relabel_export(
                    {"counters": export.get("counters", {})},
                    {"worker": f"{shard:02d}"}))
        return merged

    def queued(self) -> int:
        """Requests sitting in worker queues (best effort)."""
        total = 0
        for handle in self._workers:
            try:
                total += handle.requests.qsize()
            except (NotImplementedError, OSError):  # pragma: no cover
                return 0
        return total

    def metrics_text(self) -> str:
        """The ``/metrics`` payload: fleet-wide Prometheus exposition."""
        self.metrics.set_gauge("queue_depth", self.queued())
        self.metrics.set_gauge("workers", self.num_workers)
        self.metrics.set_gauge("uptime_seconds",
                               time.time() - self.metrics.started_at)
        return render_prometheus(self.fleet_export())

    def trace(self) -> dict:
        """The ``/trace`` payload: slowest requests + fleet stage stats."""
        return {"slowest": self.traces.snapshot(),
                "stages": stage_summaries(self.fleet_export())}

    def epoch_state(self) -> dict:
        """The current ``EPOCH`` version-file contents (leader's view)."""
        return dict(self._state)

    def readyz(self) -> dict:
        """The ``/readyz`` payload: is the pool fully attached and serving?

        Distinct from liveness (``/healthz``): ready means every worker
        process is spawned, attached to the promoted snapshot, and
        alive.  The replicated tier extends this with per-shard leader
        liveness and a replication-lag threshold.
        """
        alive = sum(
            1 for handle in self._workers
            if handle.process is not None and handle.process.is_alive()
            and handle.ready.is_set())
        ready = self._started and alive == len(self._workers)
        return {"ready": bool(ready), "mode": "process",
                "workers": len(self._workers), "alive": alive}

    def describe(self) -> dict:
        """Pool summary: engine config + process-tier state."""
        info = self.leader.config.describe()
        info.update(
            mode="process",
            workers=self.num_workers,
            sets=len(self.leader.store),
            durable=self.durable,
            epoch=self._state["epoch"],
            generation=self._state["gen"],
            wal_seq=self._state["wal_seq"],
        )
        return info

    def workers_info(self) -> list[dict]:
        """Liveness, pid and restart count of every worker process."""
        return [
            {"shard": handle.shard_id,
             "pid": None if handle.process is None else handle.process.pid,
             "alive": (handle.process is not None
                       and handle.process.is_alive()),
             "restarts": handle.restarts}
            for handle in self._workers
        ]

    def __repr__(self) -> str:
        return (f"ProcessShardPool(workers={self.num_workers}, "
                f"dir={str(self.directory)!r}, durable={self.durable})")


class ProcessService:
    """Client-shaped facade over a :class:`ProcessShardPool`.

    One method per route, each returning the route's wire dict, so
    :func:`repro.service.http.route_request` — and therefore the HTTP
    front end — dispatches against it directly; embedders call the
    same methods in-process.  Seeds are the caller's, or derived from
    a per-facade ticket (:func:`derive_seed`) so identical concurrent
    requests still get independent streams.

    >>> pool = ProcessShardPool.from_engine(db, "serving-dir",
    ...                                     workers=1)  # doctest: +SKIP
    >>> with ProcessService(pool) as service:           # doctest: +SKIP
    ...     service.sample("community", r=5, seed=11)["values"]
    """

    def __init__(self, pool: ProcessShardPool,
                 timeout: float = DEFAULT_TIMEOUT_S):
        self.pool = pool
        self.timeout = timeout
        self._tickets = itertools.count()
        self._ticket_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ProcessService":
        """Start the worker processes (idempotent)."""
        self.pool.start()
        return self

    def stop(self) -> None:
        """Drain and stop the worker processes."""
        self.pool.stop()

    def close(self) -> None:
        """Graceful shutdown: stop workers, final snapshot, clean marker."""
        self.pool.close()

    def __enter__(self) -> "ProcessService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- plumbing -------------------------------------------------------------

    def _seed_for(self, op: str, names: tuple, rounds: int,
                  replacement: bool, seed) -> int:
        if seed is not None:
            return int(seed)
        with self._ticket_lock:
            ticket = next(self._tickets)
        return derive_seed(self.pool.leader.config.seed, op, names, rounds,
                           replacement, ticket)

    def _await(self, future: Future):
        return future.result(self.timeout)

    # -- reads ----------------------------------------------------------------

    def sample(self, name: str, r: int = 1, replacement: bool = True,
               seed: int | None = None) -> dict:
        """Draw ``r`` samples from a named set."""
        names = (str(name),)
        return self._await(self.pool.submit(
            "sample", names, rounds=int(r), replacement=bool(replacement),
            seed=self._seed_for("sample", names, int(r), bool(replacement),
                                seed)))

    def reconstruct(self, name: str, exhaustive: bool = False) -> dict:
        """Recover a named set's contents."""
        return self._await(self.pool.submit(
            "reconstruct", (str(name),), exhaustive=bool(exhaustive)))

    def contains(self, name: str, x: int) -> dict:
        """Membership query against one named set."""
        return self._await(self.pool.submit(
            "contains", (str(name),), x=int(x)))

    def sample_union(self, names, seed: int | None = None) -> dict:
        """Sample from the union of named sets."""
        names = tuple(str(n) for n in names)
        return self._await(self.pool.submit(
            "sample_union", names,
            seed=self._seed_for("sample_union", names, 1, True, seed)))

    def sample_intersection(self, names, seed: int | None = None) -> dict:
        """Sample from the intersection sketch of named sets."""
        names = tuple(str(n) for n in names)
        return self._await(self.pool.submit(
            "sample_intersection", names,
            seed=self._seed_for("sample_intersection", names, 1, True,
                                seed)))

    # -- writes ---------------------------------------------------------------

    def add_set(self, name: str, ids) -> dict:
        """Store a new named set (leader applies, workers replay)."""
        self.pool.add_set(str(name), ids)
        return {"ok": True, "set": str(name)}

    def insert_ids(self, ids) -> dict:
        """Register ids as occupied across every worker process."""
        ids = [int(v) for v in ids]
        self.pool.insert_ids(ids)
        return {"ok": True, "inserted": len(ids)}

    def retire_ids(self, ids) -> dict:
        """Retire ids from the occupied namespace across workers."""
        ids = [int(v) for v in ids]
        self.pool.retire_ids(ids)
        return {"ok": True, "retired": len(ids)}

    def compact(self) -> dict:
        """Promote a fresh compacted snapshot generation."""
        state = self.pool.compact()
        return {"ok": True, "epoch": state["epoch"],
                "generation": state["gen"]}

    def checkpoint(self) -> dict:
        """Durable snapshot + promotion (durable pools only)."""
        state = self.pool.checkpoint()
        return {"ok": True, "epoch": state["epoch"],
                "generation": state["gen"]}

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """The ``/stats`` payload: fleet metrics + pool + policy + epoch."""
        snapshot = export_snapshot(self.pool.fleet_export())
        snapshot["uptime_s"] = round(
            time.time() - self.pool.metrics.started_at, 3)
        snapshot["pool"] = self.pool.describe()
        snapshot["policy"] = {
            "shards": self.pool.num_workers,
            "max_batch": self.pool.policy.max_batch,
            "max_delay_ms": self.pool.policy.max_delay_ms,
            "queue_depth": self.pool.policy.queue_depth,
        }
        snapshot["epoch_state"] = self.pool.epoch_state()
        snapshot["workers"] = self.pool.workers_info()
        return snapshot

    def metrics_text(self) -> str:
        """The ``/metrics`` payload (fleet-wide Prometheus exposition)."""
        return self.pool.metrics_text()

    def trace(self) -> dict:
        """The ``/trace`` payload (slowest requests + stage histograms)."""
        return self.pool.trace()

    def workers(self) -> dict:
        """The ``/workers`` payload: per-process pid / liveness."""
        return {"mode": "process", "workers": self.pool.workers_info()}

    def readyz(self) -> dict:
        """The ``/readyz`` payload (see :meth:`ProcessShardPool.readyz`)."""
        return self.pool.readyz()

    def __repr__(self) -> str:
        return f"ProcessService({self.pool!r})"
