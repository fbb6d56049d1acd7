"""Monte-Carlo validation of Proposition 5.2 (sample quality).

Proposition 5.2 bounds the probability that ``BSTSample`` lands in a
given leaf by ``(1 +- eps(m)) * l/n`` where ``l`` is the number of set
elements the leaf holds.  This module measures the empirical leaf-arrival
distribution of a sampler and compares it with that proportional ideal,
yielding the per-leaf ratio spread that the theory says contracts to 1
as ``m`` grows.

Used by the ``paper_prop52_sample_quality`` benchmark scenario and the
analysis tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bloom import BloomFilter


@dataclass
class LeafArrivalReport:
    """Empirical vs ideal leaf-arrival distribution of a sampler.

    ``ratios`` holds ``empirical / ideal`` per occupied leaf (ideal is
    ``l / n``); Proposition 5.2 predicts every ratio inside
    ``[1 - eps(m), 1 + eps(m)]`` with high probability.
    """

    leaf_elements: np.ndarray
    empirical: np.ndarray
    ideal: np.ndarray
    rounds: int
    null_rounds: int

    @property
    def ratios(self) -> np.ndarray:
        """Per-leaf empirical/ideal probability ratios."""
        return self.empirical / self.ideal

    @property
    def max_deviation(self) -> float:
        """``max |ratio - 1|`` over occupied leaves — the measured eps."""
        return float(np.abs(self.ratios - 1.0).max())

    @property
    def starved_leaves(self) -> int:
        """Occupied leaves that no sample ever arrived at."""
        return int((self.empirical == 0).sum())


def leaf_arrival_report(
    tree,
    sampler,
    query: BloomFilter,
    true_set: np.ndarray,
    rounds: int,
) -> LeafArrivalReport:
    """Measure where ``rounds`` samples land, per occupied leaf.

    A sample is attributed to the leaf whose range contains it; samples
    that are false positives of the query filter (not in ``true_set``)
    are ignored, matching the proposition's conditioning on elements of
    ``S``.
    """
    leaves = list(tree.leaves())
    bounds = np.array([leaf.lo for leaf in leaves] + [leaves[-1].hi])
    true_sorted = np.sort(np.asarray(true_set).astype(np.int64))

    per_leaf = np.array([
        int(((true_sorted >= leaf.lo) & (true_sorted < leaf.hi)).sum())
        for leaf in leaves
    ])
    occupied_mask = per_leaf > 0
    if not occupied_mask.any():
        raise ValueError("the true set occupies no leaf of this tree")

    counts = np.zeros(len(leaves), dtype=np.int64)
    nulls = 0
    truth = set(int(x) for x in true_sorted.tolist())
    for __ in range(rounds):
        value = sampler.sample(query).value
        if value is None or value not in truth:
            nulls += 1
            continue
        leaf_index = int(np.searchsorted(bounds, value, side="right")) - 1
        counts[leaf_index] += 1

    produced = counts.sum()
    if produced == 0:
        raise ValueError("no sample landed in the true set")
    empirical = counts[occupied_mask] / produced
    ideal = per_leaf[occupied_mask] / per_leaf.sum()
    return LeafArrivalReport(
        leaf_elements=per_leaf[occupied_mask],
        empirical=empirical,
        ideal=ideal,
        rounds=rounds,
        null_rounds=nulls,
    )
