"""Consistent-hash routing of set names onto worker processes.

Every worker of the process pool holds every set, so routing is about
cache affinity, not data placement: a name's owner keeps that set's
descent frontier warm.  Names are placed on a classic consistent-hash
ring (MD5 points, ``replicas`` virtual nodes per shard): routing is
stable under renumbering-free shard-count changes — growing from N to
N+1 shards moves only ~1/(N+1) of the names — and
:meth:`ConsistentHashRing.preference` orders the fallbacks a read takes
while its owner is down.
"""

from __future__ import annotations

import bisect
import hashlib


def stable_hash(key: str) -> int:
    """A process-independent 64-bit hash of a string.

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED), so
    routing built on it would differ between a server and its clients;
    MD5 gives the same placement everywhere.
    """
    digest = hashlib.md5(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class ConsistentHashRing:
    """An MD5-based consistent-hash ring over ``num_shards`` shards.

    >>> ring = ConsistentHashRing(4)
    >>> 0 <= ring.shard_for("community_7") < 4
    True
    >>> ring.shard_for("community_7") == ring.shard_for("community_7")
    True
    """

    def __init__(self, num_shards: int, replicas: int = 64):
        if num_shards <= 0:
            raise ValueError("need at least one shard")
        if replicas <= 0:
            raise ValueError("need at least one virtual node per shard")
        self.num_shards = int(num_shards)
        self.replicas = int(replicas)
        points = []
        for shard in range(self.num_shards):
            for vnode in range(self.replicas):
                points.append((stable_hash(f"shard:{shard}:vnode:{vnode}"),
                               shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._shards = [s for _, s in points]

    def shard_for(self, name: str) -> int:
        """The shard owning ``name`` (first ring point at or after it)."""
        idx = bisect.bisect_right(self._points, stable_hash(name))
        if idx == len(self._points):
            idx = 0  # wrap around the ring
        return self._shards[idx]

    def preference(self, name: str) -> list[int]:
        """Every shard once, in ring order from ``name``'s owner.

        The first entry is :meth:`shard_for`; the rest are the fallbacks
        in the order a clockwise walk meets them, so a name's fallback
        order is as stable under resizing as its owner.

        >>> ring = ConsistentHashRing(4)
        >>> order = ring.preference("community_7")
        >>> order[0] == ring.shard_for("community_7"), sorted(order)
        (True, [0, 1, 2, 3])
        """
        start = bisect.bisect_right(self._points, stable_hash(name))
        order: list[int] = []
        for i in range(len(self._shards)):
            shard = self._shards[(start + i) % len(self._shards)]
            if shard not in order:
                order.append(shard)
                if len(order) == self.num_shards:
                    break
        return order

    def __repr__(self) -> str:
        return (f"ConsistentHashRing(shards={self.num_shards}, "
                f"replicas={self.replicas})")
