"""The asyncio HTTP front end of ``repro serve``.

The parent process's job is pure I/O — parse, route, await, serialise —
while the heavy lifting happens in worker processes.
:class:`AsyncReproServer` does it on a single-threaded asyncio accept
loop multiplexing every connection; blocking waits on the pool's
futures are pushed onto a small executor so the event loop never
stalls.  Routes, wire shapes and the error mapping live in
:mod:`repro.service.http` (:func:`~repro.service.http.route_request`,
:func:`~repro.service.http.status_for`), and
:class:`~repro.service.client.HTTPServiceClient` speaks the protocol
from the other end.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading

from repro.obs.logs import get_logger
from repro.obs.prometheus import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from repro.service.http import error_payload, route_request, status_for

_log = get_logger("service.aserver")

#: Request bodies above this size are rejected (sanity bound).
_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Maximum size of the request line + headers block.
_MAX_HEAD_BYTES = 64 * 1024

#: Idle keep-alive connections are dropped after this many seconds.
_KEEPALIVE_TIMEOUT_S = 120.0


class _BadRequest(Exception):
    """Malformed HTTP framing — the connection is closed after replying."""


def _raw_response_bytes(status: int, body: bytes, content_type: str, *,
                        keep_alive: bool = True) -> bytes:
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
              405: "Method Not Allowed", 409: "Conflict",
              413: "Payload Too Large", 500: "Internal Server Error",
              503: "Service Unavailable"}.get(status, "Error")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n")
    if status == 503:
        # Overload / respawn / failover: transient by construction.
        head += "Retry-After: 1\r\n"
    head += "\r\n"
    return head.encode("ascii") + body


def _response_bytes(status: int, payload: dict, *,
                    keep_alive: bool = True) -> bytes:
    return _raw_response_bytes(
        status, json.dumps(payload).encode("utf-8"), "application/json",
        keep_alive=keep_alive)


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request; returns ``(method, path, body_dict)``.

    Returns ``None`` on a closed or idle-timed-out connection; raises
    :class:`_BadRequest` for anything malformed — nothing else escapes.
    """
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=_KEEPALIVE_TIMEOUT_S)
    except (asyncio.IncompleteReadError, ConnectionResetError,
            asyncio.TimeoutError):
        return None
    except asyncio.LimitOverrunError:
        raise _BadRequest("headers too large") from None
    if len(head) > _MAX_HEAD_BYTES:
        raise _BadRequest("headers too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise _BadRequest(f"malformed request line {lines[0]!r}")
    method, path, _version = parts
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length") or 0)
    except ValueError:
        raise _BadRequest("invalid Content-Length") from None
    if length < 0:
        raise _BadRequest("invalid Content-Length")
    if length > _MAX_BODY_BYTES:
        raise _BadRequest("request body too large")
    try:
        raw = await reader.readexactly(length) if length else b""
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None  # closed mid-body: nothing to answer
    if not raw:
        return method, path, {}
    try:
        body = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):
        # RecursionError: nesting deeper than the parser's stack, well
        # under the size cap — malformed input like any other.
        raise _BadRequest("request body is not valid JSON") from None
    if not isinstance(body, dict):
        raise _BadRequest("request body must be a JSON object")
    return method, path, body


class AsyncReproServer:
    """Asyncio HTTP server over a client-shaped service facade.

    ``client`` is a :class:`~repro.service.procpool.ProcessService` (or
    anything with its method surface), whose ``start``/``stop``/``close``
    lifecycle this server drives.  Route handlers run on a small thread
    executor because the facade blocks on pool futures; the event loop
    itself only ever parses and serialises.

    >>> server = AsyncReproServer(service, port=0).start()  # doctest: +SKIP
    >>> server.url                                          # doctest: +SKIP
    'http://127.0.0.1:49213'
    """

    def __init__(self, client, host: str = "127.0.0.1", port: int = 8650,
                 executor_threads: int = 8):
        self.client = client
        self._host = host
        self._port = port
        self._bound: tuple[str, int] | None = None
        self._executor_threads = int(executor_threads)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stopped = threading.Event()

    # -- request handling -----------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: dict) -> bytes:
        if method == "GET":
            if path == "/healthz":
                return _response_bytes(200, {"ok": True})
            if path == "/readyz":
                payload = self.client.readyz()
                return _response_bytes(
                    200 if payload.get("ready") else 503, payload)
            if path == "/stats":
                return _response_bytes(200, self.client.stats())
            if path == "/metrics":
                return _raw_response_bytes(
                    200, self.client.metrics_text().encode("utf-8"),
                    _METRICS_CONTENT_TYPE)
            if path == "/trace":
                return _response_bytes(200, self.client.trace())
            if path == "/workers":
                return _response_bytes(200, self.client.workers())
            return _response_bytes(404, {"error": f"no route {path}"})
        if method != "POST":
            return _response_bytes(405,
                                   {"error": f"method {method} not allowed"})
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._executor, route_request, self.client, path, body)
        except Exception as exc:  # noqa: BLE001 - mapped to HTTP status
            if status_for(exc) == 500:
                _log.exception("request_failed", path=path)
            return _response_bytes(status_for(exc), error_payload(exc))
        return _response_bytes(200, result)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as exc:
                    writer.write(_response_bytes(400, {"error": str(exc)},
                                                 keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                writer.write(await self._dispatch(*request))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- lifecycle ------------------------------------------------------------

    async def _main(self) -> None:
        self._connections: set = set()
        server = await asyncio.start_server(
            self._serve_connection, self._host, self._port,
            limit=_MAX_HEAD_BYTES + _MAX_BODY_BYTES)
        sock = server.sockets[0].getsockname()
        self._bound = (sock[0], sock[1])
        self._started.set()
        async with server:
            await self._shutdown_event.wait()
            server.close()
        # Idle keep-alive connections would otherwise pin the loop (or
        # die noisily when it closes); cancel and reap them.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        self._shutdown_event = asyncio.Event()
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()
            self._stopped.set()

    def start(self) -> "AsyncReproServer":
        """Start the pool workers and the accept loop (background thread)."""
        if self._thread is not None:
            return self
        self.client.start()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self._executor_threads,
            thread_name_prefix="repro-aserver")
        self._thread = threading.Thread(target=self._run,
                                        name="repro-aserver", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30.0):  # pragma: no cover - startup
            raise RuntimeError("asyncio server failed to start")
        return self

    @property
    def host(self) -> str:
        """Bound host."""
        return self._bound[0] if self._bound else self._host

    @property
    def port(self) -> int:
        """Bound port (resolved, so ``port=0`` reports the real one)."""
        return self._bound[1] if self._bound else self._port

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        return f"http://{self.host}:{self.port}"

    def _shutdown_loop(self) -> None:
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(self._shutdown_event.set)
        self._stopped.wait(timeout=10.0)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._executor.shutdown(wait=False, cancel_futures=True)

    def stop(self) -> None:
        """Stop accepting, then stop the pool's worker processes."""
        self._shutdown_loop()
        self.client.stop()

    def close(self) -> None:
        """Graceful shutdown: final snapshot promotion + clean markers."""
        self._shutdown_loop()
        self.client.close()

    def serve_forever(self) -> None:
        """Run in the foreground (the CLI path); Ctrl-C stops cleanly."""
        self.start()
        try:
            self._stopped.wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            self.close()

    def __enter__(self) -> "AsyncReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
