"""Process control and the HTTP load generator of the serving benchmark.

:class:`Server` launches ``python -m repro serve --workers N`` as its own
process group, waits for ``/readyz``, and stops the whole tree (leader,
shard workers, multiprocessing helpers) by ``kill -9``, reaping each.
:func:`closed_loop` drives it over persistent
keep-alive connections, one thread per connection, each sending its next
request only after the previous reply arrived.
"""

from __future__ import annotations

import ctypes
import gc
import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import numpy as np

#: How long a server may take to print its URL and turn ready.
BOOT_TIMEOUT_S = 120.0

#: How long a killed process tree may take to disappear.
KILL_TIMEOUT_S = 60.0


def quantile_ms(seconds, q: float) -> float:
    """The ``q`` quantile of latencies given in seconds, in milliseconds."""
    return float(np.percentile(np.asarray(seconds, dtype=float), q * 100.0)
                 * 1000.0)


#: ``prctl`` option making a process the reaper of orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of every orphaned descendant (Linux).

    A ``kill -9`` of a server's leader orphans its workers for a moment;
    adopted, they can be waited for here instead of lingering as zombies
    of an init that reaps them whenever it gets round to it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def processes() -> list[tuple[int, int, int]]:
    """``(pid, ppid, pgid)`` of every process, zombies included."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        out.append((int(entry), int(fields[1]), int(fields[2])))
    return out


def reap(pids, what: str) -> None:
    """Wait until none of ``pids()`` exists, reaping those adopted here."""
    me = os.getpid()
    deadline = time.monotonic() + KILL_TIMEOUT_S
    while True:
        left = pids()
        if not left:
            return
        for pid, ppid in left:
            if ppid == me:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"{what} outlived their kill: "
                               f"{[pid for pid, _ in left]}")
        time.sleep(0.01)


def stop_children() -> None:
    """``kill -9`` and reap every process still a child of this one.

    Run last: by then only helpers such as the multiprocessing resource
    tracker of the traced run's pool can be left.  Multiprocessing's own
    exit hooks run first, so none can start a fresh tracker at exit.
    """
    from multiprocessing import resource_tracker, util

    gc.collect()
    util._exit_function()
    resource_tracker._resource_tracker._stop()
    me = os.getpid()

    def children():
        return [(pid, ppid) for pid, ppid, _ in processes() if ppid == me]

    for pid, _ in children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    reap(children, "child processes")


def pss_mb(pids) -> float:
    """Proportional set size summed over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


class Connection:
    """One keep-alive HTTP/1.1 connection speaking the server's JSON."""

    def __init__(self, host: str, port: int):
        self._conn = http.client.HTTPConnection(host, port, timeout=60.0)

    def call(self, method: str, path: str, body: dict | None = None):
        """Send one request; returns ``(status, decoded_json_or_text)``."""
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type":
                                           "application/json"}
        self._conn.request(method, path, body=payload, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        if response.getheader("Content-Type", "").startswith(
                "application/json"):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8")

    def close(self) -> None:
        self._conn.close()


class Server:
    """One ``repro serve --workers N`` process tree.

    ``args`` are the ``serve`` options after ``--workers N``; stdout and
    stderr go to ``log``.  :attr:`setup_s` is launch to the first
    ``/readyz`` 200.
    """

    def __init__(self, root: pathlib.Path, workers: int, args: list,
                 log: pathlib.Path, env: dict):
        self.log = log
        command = [sys.executable, "-m", "repro", "serve",
                   "--workers", str(workers), "--port", "0",
                   "--log-level", "warning", *map(str, args)]
        started = time.perf_counter()
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                command, cwd=root, env=env, stdout=out,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True)
        self.pids = [self.proc.pid]
        self.reaped = False
        try:
            self.host, self.port = self._await_url(started)
            self._await_ready(started)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        self.pids += [w["pid"] for w in self.get("/workers")["workers"]]

    def _await_url(self, started: float) -> tuple[str, int]:
        marker = "listening on http://"
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            text = self.log.read_text(errors="replace")
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                return host, int(port)
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during boot:\n{text}")
            time.sleep(0.002)
        raise RuntimeError("server did not print its URL in time")

    def _await_ready(self, started: float) -> None:
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            try:
                conn = http.client.HTTPConnection(self.host, self.port,
                                                  timeout=5.0)
                conn.request("GET", "/readyz")
                status = conn.getresponse().status
                conn.close()
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server did not turn ready in time")

    def connect(self) -> Connection:
        """A fresh keep-alive connection to this server."""
        return Connection(self.host, self.port)

    def get(self, path: str):
        """One GET on a throwaway connection; returns the decoded body."""
        conn = self.connect()
        try:
            status, body = conn.call("GET", path)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}: {body}")
        return body

    def pss_mb(self) -> float:
        """PSS of the leader and every worker process, in MiB."""
        return pss_mb(self.pids)

    def kill(self) -> None:
        """``kill -9`` the whole process group and reap every member.

        Workers orphaned by the leader's death are adopted by this
        process (:func:`adopt_orphans`) and waited for here.
        """
        if self.reaped:
            return
        group = self.proc.pid
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=KILL_TIMEOUT_S)
        reap(lambda: [(pid, ppid) for pid, ppid, pgid in processes()
                      if pgid == group], f"server processes {self.pids}")
        self.reaped = True


class Tally:
    """Latencies per operation plus attempt/failure counts (thread-safe)."""

    def __init__(self):
        self.latency: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def record(self, op: str, seconds: float, failure: str | None) -> None:
        with self._lock:
            self.attempted += 1
            if failure is None:
                self.latency.setdefault(op, []).append(seconds)
            else:
                self.failures.append(f"{op}: {failure}")

    def merge(self, other: "Tally") -> None:
        for op, values in other.latency.items():
            self.latency.setdefault(op, []).extend(values)
        self.attempted += other.attempted
        self.failures.extend(other.failures)

    def count(self, op: str) -> int:
        return len(self.latency.get(op, ()))


def timed_call(conn: Connection, request, tally: Tally, check):
    """Send one request, time it, check the answer, record the outcome.

    ``request`` is ``(op, path, body)``; ``check(request, status, body)``
    returns a failure description or ``None``.  Returns the decoded body.
    """
    op, path, body = request
    started = time.perf_counter()
    try:
        status, answer = conn.call("POST", path, body)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        tally.record(op, 0.0, f"{type(exc).__name__}: {exc}")
        return None
    elapsed = time.perf_counter() - started
    failure = (f"HTTP {status}: {answer}" if status != 200
               else check(request, answer))
    tally.record(op, elapsed, failure)
    return answer


class Direct:
    """A :class:`Connection` stand-in calling ``fn(path, body)`` in-process."""

    def __init__(self, fn):
        self._fn = fn

    def call(self, method: str, path: str, body: dict | None = None):
        return 200, self._fn(path, body)

    def close(self) -> None:
        pass


def closed_loop(connect, streams, seconds: float, check,
                on_answer=None, drain=()) -> tuple[Tally, float]:
    """Drive one connection per stream for ``seconds``.

    ``connect()`` opens a connection (:meth:`Server.connect` or a
    :class:`Direct`).  Each stream is an iterator of ``(op, path, body)``
    requests; its thread sends the next one only after the previous
    reply (closed loop, no think time).  Streams whose index is in
    ``drain`` are finite and run to exhaustion even past the window.
    ``on_answer(request, answer)`` sees every successful reply.  Returns
    the merged tally and the elapsed window.
    """
    tallies = [Tally() for _ in streams]
    deadline = time.perf_counter() + seconds
    errors: list[BaseException] = []

    def run(stream, tally: Tally, bounded: bool) -> None:
        conn = connect()
        try:
            for request in stream:
                if bounded and time.perf_counter() >= deadline:
                    break
                answer = timed_call(conn, request, tally, check)
                if answer is not None and on_answer is not None:
                    on_answer(request, answer)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        finally:
            conn.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=run,
                                args=(stream, tally, i not in drain))
               for i, (stream, tally) in enumerate(zip(streams, tallies))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    merged = Tally()
    for tally in tallies:
        merged.merge(tally)
    return merged, elapsed
