"""Micro-batching policy: coalesce independent requests into batches.

The batched kernels make sampling and reconstruction orders of
magnitude faster than per-request calls, but only for callers that
hand-assemble batches.  The serving tier manufactures those batches out
of independent concurrent requests — the dynamic-batching idea
production inference servers use:

* every worker process owns one bounded request queue;
* the worker blocks for the first request, then keeps gathering until
  either ``max_batch`` requests are in hand or ``max_delay_ms`` has
  elapsed since the first one (:func:`gather_batch`, the classic
  latency/throughput knob);
* the gathered batch is dispatched through the batched engine entry
  points (see :mod:`repro.service.procpool`).

Admission control is at submit: a full worker queue rejects the request
immediately with :class:`ServiceOverloadedError` (the HTTP front end
maps it to 503) instead of letting latency grow without bound.
"""

from __future__ import annotations

import queue
import time


class ServiceOverloadedError(RuntimeError):
    """A worker queue was full; the request was rejected at admission."""


def gather_batch(source, first, policy: "BatchPolicy") -> list:
    """Coalesce queued items under a max-delay / max-batch policy.

    ``source`` is anything with the :class:`queue.Queue` blocking
    surface (``get(timeout=)`` / ``get_nowait()`` raising
    :class:`queue.Empty`), such as a worker's ``multiprocessing.Queue``.
    Returns ``first`` plus whatever arrived before the deadline, capped
    at ``policy.max_batch``.
    """
    batch = [first]
    deadline = time.monotonic() + policy.max_delay_ms / 1e3
    while len(batch) < policy.max_batch:
        remaining = deadline - time.monotonic()
        try:
            if remaining <= 0:
                batch.append(source.get_nowait())
            else:
                batch.append(source.get(timeout=remaining))
        except queue.Empty:
            break
    return batch


class BatchPolicy:
    """The micro-batching knobs of one serving pool.

    ``max_batch``
        Dispatch as soon as this many requests are gathered.
    ``max_delay_ms``
        Dispatch at most this long after the first request of a batch
        arrived (0 coalesces only what is already queued, adding no
        artificial latency).
    ``queue_depth``
        Bound of each worker's request queue — the admission-control
        limit.
    """

    def __init__(self, max_batch: int = 128, max_delay_ms: float = 2.0,
                 queue_depth: int = 1024):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms)
        self.queue_depth = int(queue_depth)

    def __repr__(self) -> str:
        return (f"BatchPolicy(max_batch={self.max_batch}, "
                f"max_delay_ms={self.max_delay_ms}, "
                f"queue_depth={self.queue_depth})")
