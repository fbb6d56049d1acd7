"""The serving subsystem: one process-pool tier behind one HTTP front end.

The paper frames the BloomSampleTree as the shared index of a *database*
of Bloom-filter-encoded sets answering sampling and reconstruction
queries online; the batched kernels make those queries fast in bulk.
This package turns a stream of independent requests into kernel-sized
batches and serves them from worker processes:

* :class:`ProcessShardPool` (:mod:`repro.service.procpool`) — W
  worker *processes*, each attached read-only to the promoted
  ``plan.bst`` / ``sets.bst`` snapshot via ``np.memmap`` (one physical
  copy for the whole pool) and each a full replica of the leader's
  state.  A set name routes to its :class:`ConsistentHashRing` owner,
  or to the next live worker on the ring while the owner is down; each
  worker coalesces its queue under a :class:`BatchPolicy` and
  dispatches through the batched engine entry points.  Writes go
  through the leader (the parent process) and fan out over per-worker
  WALs (``ack="quorum"`` waits for a majority to apply them,
  :class:`ReplicationLagError` → HTTP 503); epochs promote by atomic
  version-file swap; a killed worker is respawned
  (:class:`WorkerDiedError` → HTTP 503), and the :class:`Supervisor`
  kills hung workers into that same path.
* :class:`ProcessService` — the client-shaped facade: one method per
  HTTP route, returning the route's JSON dict.  Stochastic requests
  always run with an explicit seed (the caller's, or a derived one), so
  every answer — values and OpCounters — is bit-identical to a direct
  :meth:`~repro.api.BloomDB.sample_many` call.
* :class:`AsyncReproServer` — the asyncio HTTP/JSON front end of
  ``repro serve``; :mod:`repro.service.http` holds its routes and error
  mapping, :class:`HTTPServiceClient` is the matching client (with
  :class:`RetryPolicy` for idempotent retries on 503 + ``Retry-After``).
* admission control — bounded worker queues reject with
  :class:`ServiceOverloadedError` (503) instead of queueing without
  bound.

To embed the tier in Python, persist an engine into a serving directory
and wrap the pool in the facade (workers attach to the saved compiled
artefacts)::

    pool = ProcessShardPool.from_engine(db, "serving-dir", workers=2)
    with ProcessService(pool) as service:
        service.sample("community", r=5, seed=11)
"""

from repro.service.client import HTTPServiceClient, RetryPolicy
from repro.service.hashring import ConsistentHashRing
from repro.service.scheduler import BatchPolicy, ServiceOverloadedError
from repro.service.aserver import AsyncReproServer
from repro.service.procpool import (
    ProcessService,
    ProcessShardPool,
    ReplicationLagError,
    WorkerDiedError,
)
from repro.service.supervisor import Supervisor

__all__ = [
    "AsyncReproServer",
    "BatchPolicy",
    "ConsistentHashRing",
    "HTTPServiceClient",
    "ProcessService",
    "ProcessShardPool",
    "ReplicationLagError",
    "RetryPolicy",
    "ServiceOverloadedError",
    "Supervisor",
    "WorkerDiedError",
]
