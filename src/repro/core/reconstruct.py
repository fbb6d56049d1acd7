"""Reconstructing the set stored in a Bloom filter (Section 6).

A recursive traversal of the BloomSampleTree: prune a subtree when the
estimated intersection of its filter with the query is (thresholded to)
empty; at surviving leaves brute-force membership over the leaf candidates;
the reconstruction is the union of the leaf results.  Returns exactly
``S u S(B)`` restricted to the tree's candidate space — the full namespace
for the complete tree, the occupied ids for the pruned tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bloom import BloomFilter
from repro.core.kernels import PositionCache, reconstruct_frontier
from repro.core.ops import OpCounter
from repro.core.sampling import DEFAULT_EMPTY_THRESHOLD
from repro.core.tree import TreeNode


@dataclass
class ReconstructionResult:
    """Outcome of a reconstruction: the recovered ids plus op counts."""

    elements: np.ndarray
    ops: OpCounter = field(default_factory=OpCounter)

    @property
    def size(self) -> int:
        """Number of recovered elements (true positives + false positives)."""
        return int(self.elements.size)


class BSTReconstructor:
    """Reconstructor bound to one tree; reusable across query filters.

    ``exhaustive=True`` disables estimator-based pruning and brute-forces
    every leaf: recall is then exact by construction, at dictionary-attack
    membership cost over the tree's candidate space (which for a
    :class:`~repro.core.pruned.PrunedBloomSampleTree` is only the occupied
    ids — usually still far cheaper than a namespace-wide attack).
    Estimator-guided pruning (the default) can miss elements whose
    per-subtree signal sits below the estimator noise floor; the
    ``ablation_threshold`` and ``ablation_estimator_snr`` benchmark
    scenarios measure the trade-off.
    """

    def __init__(self, tree, empty_threshold: float = DEFAULT_EMPTY_THRESHOLD,
                 exhaustive: bool = False):
        self.tree = tree
        self.empty_threshold = float(empty_threshold)
        self.exhaustive = bool(exhaustive)

    def reconstruct(self, query: BloomFilter) -> ReconstructionResult:
        """Return the set stored in ``query`` (with its false positives)."""
        self.tree.check_query(query)
        ops = OpCounter()
        parts: list[np.ndarray] = []
        root = self.tree.root
        if root is not None:
            self._visit(root, query, ops, parts)
        if parts:
            elements = np.concatenate(parts)
            elements.sort()
        else:
            elements = np.empty(0, dtype=np.uint64)
        return ReconstructionResult(elements, ops)

    def reconstruct_many(
        self,
        queries: "list[BloomFilter]",
        position_cache: PositionCache | None = None,
    ) -> list[ReconstructionResult]:
        """Reconstruct a batch of query filters in one pass over the tree.

        Per query the recovered elements and op counts are identical to
        calling :meth:`reconstruct` sequentially; the batched kernel
        shares the per-node intersection popcounts (one vectorised pass
        over the stacked query words) and hashes each surviving leaf's
        candidates once for the whole batch instead of once per query.
        """
        for query in queries:
            self.tree.check_query(query)
        parts, ops = reconstruct_frontier(
            self.tree, queries, self.empty_threshold,
            exhaustive=self.exhaustive, cache=position_cache,
        )
        results = []
        for query_parts, query_ops in zip(parts, ops):
            if query_parts:
                elements = np.concatenate(query_parts)
                elements.sort()
            else:
                elements = np.empty(0, dtype=np.uint64)
            results.append(ReconstructionResult(elements, query_ops))
        return results

    def _visit(self, node: TreeNode, query: BloomFilter, ops: OpCounter,
               parts: list) -> None:
        ops.nodes_visited += 1
        if not self.exhaustive:
            ops.intersections += 1
            estimate = query.estimate_intersection(node.bloom)
            if estimate < self.empty_threshold:
                return  # empty intersection: prune this subtree
        if self.tree.is_leaf(node):
            candidates = self.tree.candidate_elements(node)
            ops.memberships += int(candidates.size)
            if candidates.size:
                positives = candidates[query.contains_many(candidates)]
                if positives.size:
                    parts.append(positives)
            return
        if node.left is not None:
            self._visit(node.left, query, ops, parts)
        if node.right is not None:
            self._visit(node.right, query, ops, parts)
