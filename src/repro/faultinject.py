"""Deterministic fault injection for the process-pool serving tier.

Robustness claims are only as good as the faults they were tested
against, so this module makes fault testing *seeded and repeatable*
instead of ad hoc: a :class:`FaultSchedule` expands a seed into a fixed
sequence of :class:`FaultEvent`\\ s, and a :class:`FaultInjector` applies
them to a live pool.  The same seed always yields the same schedule, so
a chaos-test failure reproduces from its seed alone.

Faults covered (the crash menagerie of ``docs/replication.md``):

``kill9``
    ``SIGKILL`` a worker process — the classic crash.  Death is detected
    by the pool's response pump; reads route past the dead worker until
    its respawn has replayed.
``hang``
    ``SIGSTOP`` a worker — alive but silent, the failure mode liveness
    checks miss.  Only the heartbeat supervisor catches these (and
    ``SIGKILL`` works fine on a stopped process).
``pipe_drop``
    Tear down a worker's request queue parent-side — routing skips the
    torn handle, and the supervisor kills the worker so the respawn
    rebuilds fresh queues.
``slow_fsync``
    Stall every WAL fsync in this process by a fixed delay (a degraded
    disk) via :func:`repro.durability.wal.set_fsync_stall`.
``resume``
    ``SIGCONT`` previously stopped workers (useful for schedules that
    hang-and-release rather than letting the supervisor shoot).

Plus :func:`tear_wal_tail`, the offline fault: truncate a log's final
segment strictly *inside* its last record, producing exactly the torn
tail a ``kill -9`` mid-append leaves — the recovery path must absorb it.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import random
import signal

from repro.durability import wal as _wal
from repro.obs.logs import get_logger

_log = get_logger("faultinject")

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "tear_wal_tail",
]

#: Fault kinds a schedule may contain.
FAULT_KINDS = ("kill9", "hang", "pipe_drop", "slow_fsync", "resume")

#: Kinds :meth:`FaultSchedule.generate` draws from by default —
#: ``slow_fsync`` / ``resume`` are opt-in because they change pacing
#: rather than membership.
DEFAULT_KINDS = ("kill9", "hang", "pipe_drop")


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *what* to break, *which worker*, at which step."""

    step: int
    kind: str
    worker: int = 0
    seconds: float = 0.0

    def describe(self) -> dict:
        """JSON-able form (schedules are loggable artifacts)."""
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """A seeded, immutable sequence of fault events.

    Built by :meth:`generate`; the chaos test walks its workload steps
    and fires ``at(step)`` between them.  Everything about the schedule
    derives from ``seed`` — rerunning with the same arguments yields the
    identical fault sequence.
    """

    seed: int
    steps: int
    events: tuple

    @classmethod
    def generate(cls, seed: int, *, steps: int, workers: int,
                 kinds=DEFAULT_KINDS, rate: float = 0.3) -> "FaultSchedule":
        """Expand ``seed`` into a schedule over ``steps`` workload steps.

        Each step independently carries a fault with probability
        ``rate``; the kind and the target worker are drawn uniformly.
        ``slow_fsync`` events get a 5–50 ms stall.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        unknown = set(kinds) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds {sorted(unknown)} "
                             f"(known: {FAULT_KINDS})")
        rng = random.Random(seed)
        events = []
        for step in range(int(steps)):
            if rng.random() >= rate:
                continue
            kind = rng.choice(list(kinds))
            events.append(FaultEvent(
                step=step, kind=kind,
                worker=rng.randrange(max(1, int(workers))),
                seconds=(round(rng.uniform(0.005, 0.05), 4)
                         if kind == "slow_fsync" else 0.0)))
        return cls(seed=int(seed), steps=int(steps), events=tuple(events))

    def at(self, step: int) -> list[FaultEvent]:
        """The events scheduled for one workload step (usually 0 or 1)."""
        return [e for e in self.events if e.step == step]

    def describe(self) -> dict:
        """JSON-able summary for logging a chaos run's exact schedule."""
        return {"seed": self.seed, "steps": self.steps,
                "events": [e.describe() for e in self.events]}


class FaultInjector:
    """Applies :class:`FaultEvent`\\ s to a live
    :class:`~repro.service.procpool.ProcessShardPool`.

    Faults address one worker by index.  ``clear()`` undoes the
    *reversible* faults (stops and fsync stalls); killed workers are the
    pool's respawn machinery's job, which is the point.
    """

    def __init__(self, pool):
        self.pool = pool
        self._stopped: list[int] = []
        self._stall_installed = False

    def _pid(self, worker: int) -> int:
        handle = self.pool._workers[worker]
        if handle.process is None:
            raise ValueError(f"worker {worker} has no live process")
        return handle.process.pid

    # -- faults ---------------------------------------------------------------

    def kill9(self, worker: int) -> int:
        """SIGKILL one worker; returns the pid killed."""
        pid = self._pid(worker)
        os.kill(pid, signal.SIGKILL)
        _log.info("fault_kill9", worker=worker, pid=pid)
        return pid

    def hang(self, worker: int) -> int:
        """SIGSTOP one worker (alive, silent); returns the pid stopped."""
        pid = self._pid(worker)
        os.kill(pid, signal.SIGSTOP)
        self._stopped.append(pid)
        _log.info("fault_hang", worker=worker, pid=pid)
        return pid

    def resume(self) -> int:
        """SIGCONT every worker this injector stopped; returns the count."""
        resumed = 0
        while self._stopped:
            pid = self._stopped.pop()
            try:
                os.kill(pid, signal.SIGCONT)
                resumed += 1
            except ProcessLookupError:
                pass  # the supervisor already shot it
        return resumed

    def pipe_drop(self, worker: int) -> int:
        """Tear down one worker's request queue; returns the worker index.

        Routing skips the torn handle, and the supervisor kills the
        worker so its respawn rebuilds fresh queues.
        """
        handle = self.pool._workers[worker]
        handle.requests.close()
        handle.pipe_torn = True
        _log.info("fault_pipe_drop", worker=worker)
        return worker

    def slow_fsync(self, seconds: float) -> None:
        """Stall every WAL fsync in this process by ``seconds``."""
        _wal.set_fsync_stall(seconds)
        self._stall_installed = seconds > 0
        _log.info("fault_slow_fsync", seconds=seconds)

    def clear(self) -> None:
        """Undo reversible faults: resume stopped workers, clear stalls."""
        self.resume()
        if self._stall_installed:
            _wal.set_fsync_stall(0.0)
            self._stall_installed = False

    # -- schedule driving ------------------------------------------------------

    def apply(self, event: FaultEvent) -> None:
        """Apply one scheduled event (see :data:`FAULT_KINDS`)."""
        if event.kind == "kill9":
            self.kill9(event.worker)
        elif event.kind == "hang":
            self.hang(event.worker)
        elif event.kind == "pipe_drop":
            self.pipe_drop(event.worker)
        elif event.kind == "slow_fsync":
            self.slow_fsync(event.seconds)
        elif event.kind == "resume":
            self.resume()
        else:
            raise ValueError(f"unknown fault kind {event.kind!r}")


def tear_wal_tail(wal_dir, rng: random.Random | None = None) -> dict:
    """Truncate a log's final segment strictly inside its last record.

    Reproduces the exact on-disk signature of a ``kill -9`` mid-append:
    the final record's header (or checksummed payload) is cut short, so
    a subsequent scan reports ``torn_tail`` and replay ends at the last
    whole record.  The ``CLEAN`` marker, if present, is removed — a
    clean marker and a torn tail cannot coexist honestly.  Returns a
    summary dict (segment name, cut offset, bytes lost).
    """
    directory = pathlib.Path(wal_dir)
    segments = _wal._list_segments(directory)
    if not segments:
        raise ValueError(f"{directory} holds no WAL segments to tear")
    tail = segments[-1]
    data = tail.read_bytes()
    header_size = _wal._RECORD_HEADER.size
    spans = []
    offset = 0
    while offset + header_size <= len(data):
        length, _ = _wal._RECORD_HEADER.unpack_from(data, offset)
        end = offset + header_size + length
        if end > len(data):
            break  # already torn
        spans.append((offset, end))
        offset = end
    if not spans:
        raise ValueError(f"{tail} holds no whole record to tear")
    start, end = spans[-1]
    rng = rng if rng is not None else random.Random(0)
    cut = start + 1 + rng.randrange(end - start - 1)
    os.truncate(tail, cut)
    try:
        (directory / _wal.CLEAN_MARKER).unlink()
    except FileNotFoundError:
        pass
    _log.info("fault_torn_tail", segment=tail.name, cut=cut,
              lost=end - cut)
    return {"segment": tail.name, "record_start": start, "cut": cut,
            "lost": end - cut}
