"""Synthetic stand-in for the paper's Twitter crawl (Section 8).

The paper's real dataset: a 34-day crawl, 144M tweets, 7.2M unique user
ids spread over a namespace of ~2.2 billion (occupancy ~0.3%), and 24 000
hashtags with >= 1000 occurrences whose tweeting-user sets form the query
Bloom filters.

We cannot ship that crawl, so this module synthesises a dataset with the
same *shape* (see ``docs/algorithms.md``, "Known deviations"): a
configurable namespace,
user ids occupying a configurable fraction of it — placed uniformly or
clustered (Twitter ids are allocated roughly sequentially, so real ids
cluster into dense ranges) — and hashtag audiences with Zipf-distributed
sizes drawn from the user population.  The Section 8 experiments only
depend on these occupancy/size distributions, not on tweet content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import ensure_rng
from repro.workloads.generators import select_leaves, uniform_query_set


@dataclass
class SyntheticTwitterDataset:
    """A synthetic low-occupancy-namespace dataset.

    Attributes mirror what Section 8 consumes: the namespace size, the
    occupied user ids, and a list of per-hashtag user-id sets (the query
    sets).
    """

    namespace_size: int
    user_ids: np.ndarray
    hashtag_audiences: list[np.ndarray] = field(default_factory=list)

    @property
    def num_users(self) -> int:
        """Number of occupied identifiers."""
        return int(self.user_ids.size)

    @property
    def occupancy(self) -> float:
        """Fraction of the namespace in use."""
        return self.num_users / self.namespace_size

    @classmethod
    def generate(
        cls,
        namespace_size: int = 2_200_000,
        num_users: int = 72_000,
        num_hashtags: int = 240,
        min_audience: int = 100,
        max_audience: int = 5_000,
        zipf_exponent: float = 1.3,
        id_distribution: str = "clustered",
        num_blocks: int = 256,
        rng: "int | np.random.Generator | None" = 0,
    ) -> "SyntheticTwitterDataset":
        """Generate a dataset (defaults: the paper's shape at 1/1000 scale).

        ``id_distribution="clustered"`` allocates user ids inside
        ``num_blocks`` dense ranges chosen from the namespace (sequential
        account creation); ``"uniform"`` scatters them.  Audience sizes
        follow a truncated Zipf with the given exponent, clipped to
        ``[min_audience, max_audience]`` — mimicking the paper's ">= 1000
        occurrences" hashtag cut.
        """
        if num_users > namespace_size:
            raise ValueError("more users than the namespace holds")
        rng = ensure_rng(rng)
        if id_distribution == "uniform":
            user_ids = uniform_query_set(namespace_size, num_users, rng)
        elif id_distribution == "clustered":
            user_ids = _clustered_user_ids(namespace_size, num_users,
                                           num_blocks, rng)
        else:
            raise ValueError(f"unknown id_distribution {id_distribution!r}")

        max_audience = min(max_audience, num_users)
        min_audience = min(min_audience, max_audience)
        sizes = _zipf_sizes(num_hashtags, min_audience, max_audience,
                            zipf_exponent, rng)
        audiences = []
        for size in sizes:
            picks = rng.choice(num_users, size=int(size), replace=False)
            audience = user_ids[picks].astype(np.uint64)
            audience.sort()
            audiences.append(audience)
        return cls(namespace_size, user_ids, audiences)

    def restrict_to_namespace(self, occupied: np.ndarray) -> "SyntheticTwitterDataset":
        """Drop users (and audience members) outside ``occupied``.

        This is the paper's procedure when varying the namespace fraction:
        "we simply ignore ids which do not belong in the namespace
        currently under consideration and construct query Bloom filters
        without them."
        """
        occupied = np.asarray(occupied, dtype=np.uint64)
        users = self.user_ids[np.isin(self.user_ids, occupied,
                                      assume_unique=True)]
        audiences = []
        for audience in self.hashtag_audiences:
            kept = audience[np.isin(audience, users, assume_unique=True)]
            if kept.size:
                audiences.append(kept)
        return SyntheticTwitterDataset(self.namespace_size, users, audiences)

    def users_in_leaves(self, leaf_ids: np.ndarray, num_leaves: int) -> np.ndarray:
        """User ids falling inside the ranges of the selected tree leaves.

        The hypothetical tree divides the namespace into ``num_leaves``
        equal ranges (the paper's 256-leaf construction); this returns the
        users covered by the chosen leaves.
        """
        leaf_ids = np.asarray(sorted(int(v) for v in leaf_ids))
        leaf_of_user = (
            self.user_ids.astype(np.float64) * num_leaves / self.namespace_size
        ).astype(np.int64)
        keep = np.isin(leaf_of_user, leaf_ids)
        return self.user_ids[keep]

    def namespace_at_fraction(
        self,
        fraction: float,
        mode: str,
        num_leaves: int = 256,
        rng: "int | np.random.Generator | None" = 0,
    ) -> np.ndarray:
        """Occupied ids for a namespace of the given fraction (Section 8.1).

        Selects ``round(fraction * num_leaves)`` leaves (uniformly or
        clustered) and keeps the users inside them.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        count = max(1, round(fraction * num_leaves))
        leaves = select_leaves(num_leaves, count, mode, rng)
        return self.users_in_leaves(leaves, num_leaves)


def _clustered_user_ids(
    namespace_size: int,
    num_users: int,
    num_blocks: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ids packed into dense blocks (sequential allocation locality)."""
    num_blocks = max(1, min(num_blocks, num_users))
    # Split users across blocks roughly evenly, jittered.
    weights = rng.dirichlet(np.ones(num_blocks) * 4.0)
    per_block = np.maximum(1, (weights * num_users).astype(np.int64))
    # Fix rounding drift.
    while per_block.sum() > num_users:
        per_block[int(rng.integers(num_blocks))] -= 1
    while per_block.sum() < num_users:
        per_block[int(rng.integers(num_blocks))] += 1
    per_block = np.maximum(per_block, 0)

    starts = np.sort(rng.choice(namespace_size, size=num_blocks, replace=False))
    ids: set[int] = set()
    for start, size in zip(starts.tolist(), per_block.tolist()):
        if size <= 0:
            continue
        # Fill ~75% densely from the block start, wrap within namespace.
        span = max(size, int(size / 0.75))
        offsets = rng.choice(span, size=size, replace=False)
        for off in offsets.tolist():
            ids.add((start + off) % namespace_size)
    # Collisions across blocks can leave us short; top up uniformly.
    while len(ids) < num_users:
        ids.add(int(rng.integers(0, namespace_size)))
    result = np.fromiter(ids, dtype=np.uint64, count=len(ids))
    result.sort()
    if result.size > num_users:
        drop = rng.choice(result.size, size=result.size - num_users,
                          replace=False)
        result = np.delete(result, drop)
    return result


def _zipf_sizes(
    count: int,
    lo: int,
    hi: int,
    exponent: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Zipf-ish audience sizes clipped to ``[lo, hi]``."""
    ranks = np.arange(1, count + 1, dtype=np.float64)
    raw = hi / np.power(ranks, exponent)
    sizes = np.clip(raw, lo, hi).astype(np.int64)
    return rng.permutation(sizes)
