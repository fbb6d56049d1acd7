"""Heartbeat supervision: detect hung workers, not just dead ones.

The process pool's response pumps already notice *death* (the queue
goes quiet and ``Process.is_alive()`` flips).  What they cannot see is
a worker that is alive but not making progress — stopped by ``SIGSTOP``,
wedged in a syscall, or spinning — because a stuck process still counts
as alive.  The :class:`Supervisor` closes that gap: every attached
worker posts a message at least every ``heartbeat_s`` (a status on an
idle tick, a metrics message per batch), the pump stamps
``handle.last_heartbeat`` on each one, and a handle whose stamp goes
stale past ``hang_timeout_s`` while its process is still alive is
declared hung and killed with ``SIGKILL`` — which funnels it into the
exact death path the pool already survives: in-flight requests fail
with a clean 503, new reads route to the next live worker, and the
worker respawns and replays its log.

The supervisor also recovers dropped pipes: a submit that finds a
worker's request queue torn down marks the handle ``pipe_torn``, and
the supervisor kills the worker so the respawn rebuilds fresh queues.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.obs.logs import get_logger

_log = get_logger("service.supervisor")


class Supervisor:
    """Watches a pool's worker handles for hangs and torn pipes.

    ``pool`` is duck-typed: it must expose ``_workers`` (handles with
    ``process`` / ``ready`` / ``last_heartbeat`` / ``pipe_torn``),
    ``_stopping`` and ``metrics``.  The supervisor never respawns
    anything itself — killing a sick worker hands it to the pool's own
    death handling, which is already crash-tested.
    """

    def __init__(self, pool, *, interval_s: float = 0.1,
                 hang_timeout_s: float = 2.0):
        if interval_s <= 0 or hang_timeout_s <= 0:
            raise ValueError("supervisor intervals must be positive")
        self.pool = pool
        self.interval_s = float(interval_s)
        self.hang_timeout_s = float(hang_timeout_s)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "Supervisor":
        """Start the watch loop (idempotent)."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-supervisor", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the watch loop (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def running(self) -> bool:
        """Whether the watch loop is active."""
        return self._thread is not None and self._thread.is_alive()

    # -- watch loop -----------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            if self.pool._stopping:
                continue
            self.check()

    def check(self) -> list[int]:
        """One supervision pass; returns the worker ids killed.

        Exposed for tests: deterministic schedules call this directly
        instead of racing the background loop.
        """
        now = time.monotonic()
        killed: list[int] = []
        for handle in list(self.pool._workers):
            process = handle.process
            if process is None or not process.is_alive():
                continue  # death is the pumps' job
            if handle.stop_requested or self.pool._stopping:
                continue
            if handle.pipe_torn:
                self.pool.metrics.inc("worker_pipe_drops")
                _log.warning("pipe_torn_worker_killed",
                             worker=handle.shard_id, pid=process.pid)
                self._kill(handle)
                killed.append(handle.shard_id)
                continue
            if not handle.ready.is_set():
                # Still spawning/attaching: it cannot heartbeat yet, so
                # silence is not evidence of a hang.  A worker stuck in
                # attach is the spawn path's ready-timeout to handle.
                continue
            silent_s = now - handle.last_heartbeat
            if silent_s > self.hang_timeout_s:
                self.pool.metrics.inc("worker_hangs")
                _log.warning("hung_worker_killed", worker=handle.shard_id,
                             pid=process.pid,
                             silent_s=round(silent_s, 3),
                             hang_timeout_s=self.hang_timeout_s)
                self._kill(handle)
                killed.append(handle.shard_id)
        return killed

    @staticmethod
    def _kill(handle) -> None:
        """SIGKILL a sick worker; unready first, so reads route past it
        at once rather than from when its death is reaped."""
        handle.ready.clear()
        try:
            os.kill(handle.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):  # pragma: no cover
            pass
