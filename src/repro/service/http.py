"""The HTTP/JSON protocol of ``repro serve``: routes and error mapping.

The asyncio front end (:class:`~repro.service.aserver.AsyncReproServer`)
parses requests; this module decides what they mean.
:func:`route_request` dispatches one POST route against the
client-shaped :class:`~repro.service.procpool.ProcessService`, and
:func:`status_for` / :func:`error_payload` map whatever it raised to a
status code and JSON body.

Routes (all bodies and responses are JSON):

====================  ====  ==========================================
``/healthz``          GET   liveness probe (process is up)
``/readyz``           GET   readiness: workers attached, lag under bound
``/stats``            GET   metrics + pool + policy snapshot
``/metrics``          GET   Prometheus text exposition (v0.0.4)
``/trace``            GET   slowest-request spans + stage histograms
``/workers``          GET   worker processes: pid, liveness, restarts
``/sample``           POST  ``{"set", "r", "replacement", "seed"?}``
``/reconstruct``      POST  ``{"set", "exhaustive"?}``
``/contains``         POST  ``{"set", "x"}``
``/sample-union``     POST  ``{"sets": [...], "seed"?}``
``/sample-intersection``  POST  ``{"sets": [...], "seed"?}``
``/add-set``          POST  ``{"set", "ids": [...]}``
``/insert``           POST  ``{"ids": [...]}``
``/retire``           POST  ``{"ids": [...]}``
``/compact``          POST  (no body)
``/checkpoint``       POST  (no body; durable pools only)
====================  ====  ==========================================

``/insert`` and ``/retire`` are the occupancy write endpoints: the
leader applies the ids and ships the record to every worker's log
before acknowledging (see :meth:`~repro.service.ProcessShardPool.insert_ids`);
``/compact`` folds the leader's pending delta into a fresh snapshot
generation; ``/checkpoint`` takes a durable snapshot and truncates the
leader WAL (``repro serve --durable`` only).

Error mapping: 400 for malformed requests (including occupancy writes
the configured tree backend cannot express), 404 for unknown sets, 409
for duplicate set creation or durability misuse (``/checkpoint`` on a
non-durable pool), 503 when admission control rejects (worker queue
full), a worker died mid-request, or a quorum ack timed out, 500
otherwise.  Every 503 carries ``Retry-After: 1`` — the condition is
transient by construction (queues drain, workers respawn, reads route
to live workers) and retry-capable clients
(:class:`~repro.service.client.RetryPolicy`) honour the hint.

``/healthz`` vs ``/readyz``: liveness only says the process answers;
readiness says the pool can actually serve — every worker attached,
alive and with an intact pipe, and replication lag under threshold.
``/readyz`` answers 503 with the same JSON body while not ready, so
boot/failover pollers can watch one endpoint.
"""

from __future__ import annotations

from repro.api import BackendCapabilityError, DurabilityError
from repro.core.store import DuplicateSetError
from repro.service.scheduler import ServiceOverloadedError


def status_for(exc: Exception) -> int:
    """The HTTP status code for an exception raised by a route.

    400 malformed, 404 unknown set, 409 duplicate-set / durability
    misuse, 503 admission rejection or a dead worker process, 500
    otherwise.
    """
    if isinstance(exc, (ValueError, TypeError, BackendCapabilityError)):
        return 400
    if isinstance(exc, (DuplicateSetError, DurabilityError)):
        return 409
    if isinstance(exc, KeyError):
        return 404
    if isinstance(exc, ServiceOverloadedError):
        return 503
    return 500


def error_payload(exc: Exception) -> dict:
    """The JSON error body for an exception raised by a route."""
    if isinstance(exc, (DuplicateSetError, KeyError)):
        return {"error": str(exc.args[0] if exc.args else exc)}
    if status_for(exc) == 500:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"error": str(exc)}


def route_request(client, path: str, body: dict) -> dict:
    """Dispatch one POST route against a client-shaped object.

    ``client`` is anything exposing the
    :class:`~repro.service.procpool.ProcessService` method surface; the
    result is the route's JSON response dict.
    """
    if path == "/sample":
        return client.sample(
            _required(body, "set"), int(body.get("r", 1)),
            bool(body.get("replacement", True)), _seed(body))
    if path == "/reconstruct":
        return client.reconstruct(
            _required(body, "set"), bool(body.get("exhaustive", False)))
    if path == "/contains":
        return client.contains(_required(body, "set"),
                               int(_required(body, "x")))
    if path == "/sample-union":
        return client.sample_union(_names(body), _seed(body))
    if path == "/sample-intersection":
        return client.sample_intersection(_names(body), _seed(body))
    if path == "/add-set":
        return client.add_set(_required(body, "set"), _ids(body))
    if path == "/insert":
        return client.insert_ids(_ids(body))
    if path == "/retire":
        return client.retire_ids(_ids(body))
    if path == "/compact":
        return client.compact()
    if path == "/checkpoint":
        return client.checkpoint()
    raise ValueError(f"no route {path}")


def _required(body: dict, key: str):
    if key not in body:
        raise ValueError(f"missing required field {key!r}")
    return body[key]


def _ids(body: dict) -> list[int]:
    ids = _required(body, "ids")
    if not isinstance(ids, list):
        raise ValueError("'ids' must be a list of integers")
    return [int(v) for v in ids]


def _names(body: dict) -> list[str]:
    names = _required(body, "sets")
    if not isinstance(names, list) or not names:
        raise ValueError("'sets' must be a non-empty list of set names")
    return [str(n) for n in names]


def _seed(body: dict) -> int | None:
    seed = body.get("seed")
    return None if seed is None else int(seed)
