"""The wire format and the HTTP client of ``repro serve``.

:func:`encode_result` turns engine result objects into the plain-dict
responses the whole tier speaks: worker processes encode their answers
with it before shipping them to the leader, so what
:class:`~repro.service.procpool.ProcessService` returns in-process is
byte-for-byte what the HTTP endpoint serialises.
:class:`HTTPServiceClient` speaks the same JSON protocol over the wire
and returns the same dicts.

The HTTP client optionally retries: under failover (a killed shard
leader, a respawning worker) the server answers 503 + ``Retry-After``
for a moment, and a client constructed with a :class:`RetryPolicy`
absorbs that window with seeded exponential backoff — but only for
*idempotent* requests.  Seeded reads are safely repeatable (the seed
pins the answer); writes and unseeded reads are never retried, because
a retry after an ambiguous failure could apply them twice.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
import urllib.error
import urllib.request
from typing import Iterable

from repro.core.ops import OpCounter
from repro.core.reconstruct import ReconstructionResult
from repro.core.sampling import MultiSampleResult, SampleResult

#: Default timeout of a client call, in-process or over HTTP (seconds).
DEFAULT_TIMEOUT_S = 30.0


def encode_ops(ops: OpCounter) -> dict:
    """An :class:`~repro.core.ops.OpCounter` as a plain dict."""
    return {
        "intersections": ops.intersections,
        "memberships": ops.memberships,
        "nodes_visited": ops.nodes_visited,
        "backtracks": ops.backtracks,
    }


def encode_result(result) -> dict:
    """Any engine result object as the wire-format response dict."""
    if isinstance(result, MultiSampleResult):
        return {
            "values": [int(v) for v in result.values],
            "requested": result.requested,
            "shortfall": result.shortfall,
            "ops": encode_ops(result.ops),
        }
    if isinstance(result, SampleResult):
        return {
            "value": None if result.value is None else int(result.value),
            "ops": encode_ops(result.ops),
        }
    if isinstance(result, ReconstructionResult):
        return {
            "elements": [int(v) for v in result.elements],
            "size": result.size,
            "ops": encode_ops(result.ops),
        }
    if isinstance(result, bool):
        return {"ok": result}
    raise TypeError(f"cannot encode {type(result).__name__}")


def _retry_after(exc: urllib.error.HTTPError) -> float | None:
    """Decode a ``Retry-After`` header (seconds form) if one was sent."""
    value = exc.headers.get("Retry-After") if exc.headers else None
    try:
        return None if value is None else float(value)
    except ValueError:  # pragma: no cover - HTTP-date form, not sent by us
        return None


class HTTPError(RuntimeError):
    """A non-2xx response from the HTTP endpoint.

    ``retry_after`` carries the server's ``Retry-After`` header in
    seconds when present (503s under failover/overload send one).
    """

    def __init__(self, status: int, payload: dict,
                 retry_after: float | None = None):
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload
        self.retry_after = retry_after


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry knobs for :class:`HTTPServiceClient`.

    ``max_attempts`` bounds total tries (first attempt included);
    delays grow as ``base_delay_s * 2**attempt`` capped at
    ``max_delay_s``, multiplied by a seeded jitter of ±``jitter`` (so
    a thundering herd of retriers decorrelates, reproducibly);
    ``deadline_s``, when set, bounds the *whole* logical request —
    attempts and sleeps together never exceed it, and each attempt's
    socket timeout is clipped to the remaining budget.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.25
    deadline_s: float | None = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("retry delays must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be within [0, 1)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    def delay(self, attempt: int, rng: random.Random,
              retry_after: float | None = None) -> float:
        """The sleep before retry number ``attempt`` (0-based)."""
        delay = min(self.base_delay_s * (2 ** attempt), self.max_delay_s)
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


class HTTPServiceClient:
    """Minimal stdlib client for the ``repro serve`` JSON protocol.

    Pass ``retry=RetryPolicy(...)`` to absorb transient 503s (worker
    respawn, leader failover, overload) — only idempotent requests are
    retried: GETs, ``reconstruct``/``contains`` always, sampling reads
    only when the caller pinned a seed, writes never.  ``retry_seed``
    makes the backoff jitter reproducible.

    >>> client = HTTPServiceClient("http://127.0.0.1:8650")  # doctest: +SKIP
    >>> client.sample("community", r=8)                       # doctest: +SKIP
    """

    def __init__(self, base_url: str, timeout: float = DEFAULT_TIMEOUT_S,
                 retry: RetryPolicy | None = None,
                 retry_seed: int | None = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry
        self._rng = random.Random(retry_seed)

    def _with_retries(self, attempt_fn, idempotent: bool):
        """Run one logical request under the retry policy.

        ``attempt_fn(timeout)`` performs a single attempt; only
        idempotent requests failing with a retryable error (an HTTP 503
        or a connection-level :class:`urllib.error.URLError`) are
        re-attempted, with seeded exponential backoff honouring the
        server's ``Retry-After``.
        """
        policy = self.retry
        if policy is None or policy.max_attempts <= 1 or not idempotent:
            return attempt_fn(self.timeout)
        started = time.monotonic()

        def remaining() -> float | None:
            if policy.deadline_s is None:
                return None
            return policy.deadline_s - (time.monotonic() - started)

        last: Exception | None = None
        for attempt in range(policy.max_attempts):
            timeout = self.timeout
            budget = remaining()
            if budget is not None:
                if budget <= 0:
                    break
                timeout = min(timeout, budget)
            retry_after = None
            try:
                return attempt_fn(timeout)
            except HTTPError as exc:
                if exc.status != 503:
                    raise
                last, retry_after = exc, exc.retry_after
            except urllib.error.URLError as exc:
                last = exc
            if attempt == policy.max_attempts - 1:
                break
            delay = policy.delay(attempt, self._rng, retry_after)
            budget = remaining()
            if budget is not None:
                if budget <= 0:
                    break
                delay = min(delay, budget)
            time.sleep(delay)
        assert last is not None
        raise last

    def _request(self, method: str, path: str, body: dict | None = None,
                 *, idempotent: bool | None = None) -> dict:
        if idempotent is None:
            idempotent = method == "GET"
        data = None if body is None else json.dumps(body).encode("utf-8")

        def attempt(timeout: float) -> dict:
            request = urllib.request.Request(
                self.base_url + path, data=data, method=method,
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(request,
                                            timeout=timeout) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                try:
                    payload = json.loads(exc.read().decode("utf-8"))
                except ValueError:
                    payload = {"error": exc.reason}
                raise HTTPError(exc.code, payload,
                                retry_after=_retry_after(exc)) from None

        return self._with_retries(attempt, idempotent)

    def _request_text(self, path: str) -> str:
        """GET a non-JSON (plain text) endpoint, e.g. ``/metrics``."""

        def attempt(timeout: float) -> str:
            request = urllib.request.Request(self.base_url + path,
                                             method="GET")
            try:
                with urllib.request.urlopen(request,
                                            timeout=timeout) as response:
                    return response.read().decode("utf-8")
            except urllib.error.HTTPError as exc:
                raise HTTPError(exc.code, {"error": exc.reason},
                                retry_after=_retry_after(exc)) from None

        return self._with_retries(attempt, True)

    def healthz(self) -> dict:
        """Liveness probe."""
        return self._request("GET", "/healthz")

    def readyz(self) -> dict:
        """Readiness probe; returns the payload even when not ready.

        The server answers 503 with the same JSON body while the ring
        is attaching or replication lag is over threshold — that body
        (``ready: false`` plus the per-shard detail) is the answer a
        poller wants, so it is returned rather than raised, and never
        blindly retried.
        """
        try:
            return self._request("GET", "/readyz", idempotent=False)
        except HTTPError as exc:
            if exc.status == 503 and "ready" in exc.payload:
                return exc.payload
            raise

    def stats(self) -> dict:
        """The server's ``/stats`` snapshot."""
        return self._request("GET", "/stats")

    def metrics_text(self) -> str:
        """The server's ``/metrics`` Prometheus text exposition."""
        return self._request_text("/metrics")

    def trace(self) -> dict:
        """The server's ``/trace`` snapshot (slowest-request spans)."""
        return self._request("GET", "/trace")

    def workers(self) -> dict:
        """The server's ``/workers`` snapshot (worker liveness / pids)."""
        return self._request("GET", "/workers")

    def sample(self, name: str, r: int = 1, replacement: bool = True,
               seed: int | None = None) -> dict:
        """Draw ``r`` samples from a named set."""
        body = {"set": name, "r": r, "replacement": replacement}
        if seed is not None:
            body["seed"] = seed
        # A pinned seed makes the draw repeatable, hence retryable.
        return self._request("POST", "/sample", body,
                             idempotent=seed is not None)

    def reconstruct(self, name: str, exhaustive: bool = False) -> dict:
        """Recover a named set's contents."""
        return self._request("POST", "/reconstruct",
                             {"set": name, "exhaustive": exhaustive},
                             idempotent=True)

    def contains(self, name: str, x: int) -> dict:
        """Membership query against one named set."""
        return self._request("POST", "/contains", {"set": name, "x": x},
                             idempotent=True)

    def sample_union(self, names: Iterable[str],
                     seed: int | None = None) -> dict:
        """Sample from the union of named sets."""
        body = {"sets": list(names)}
        if seed is not None:
            body["seed"] = seed
        return self._request("POST", "/sample-union", body,
                             idempotent=seed is not None)

    def sample_intersection(self, names: Iterable[str],
                            seed: int | None = None) -> dict:
        """Sample from the intersection sketch of named sets."""
        body = {"sets": list(names)}
        if seed is not None:
            body["seed"] = seed
        return self._request("POST", "/sample-intersection", body,
                             idempotent=seed is not None)

    def add_set(self, name: str, ids) -> dict:
        """Store a new named set."""
        return self._request("POST", "/add-set",
                             {"set": name, "ids": [int(v) for v in ids]})

    def insert_ids(self, ids) -> dict:
        """Register ids as occupied on every worker."""
        return self._request("POST", "/insert",
                             {"ids": [int(v) for v in ids]})

    def retire_ids(self, ids) -> dict:
        """Retire ids from the occupied namespace on every worker."""
        return self._request("POST", "/retire",
                             {"ids": [int(v) for v in ids]})

    def compact(self) -> dict:
        """Fold the pending mutation delta into a fresh snapshot."""
        return self._request("POST", "/compact")

    def checkpoint(self) -> dict:
        """Durable snapshot (requires ``repro serve --durable``)."""
        return self._request("POST", "/checkpoint")
