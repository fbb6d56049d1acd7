"""Sampling from a query Bloom filter with a BloomSampleTree.

Implements Algorithm 1 (``BSTSample``) of the paper:

* at an internal node, estimate the size of the intersection between the
  query filter and each child's filter (Section 5.3's estimator);
* estimates below a threshold are treated as empty (the Section 5.6
  thresholding heuristic) and the branch is pruned;
* if both children intersect, descend into one chosen with probability
  proportional to the estimated intersection sizes;
* if the chosen subtree turns out to be a false-positive path (returns
  NULL), backtrack and try the sibling;
* at a leaf, brute-force membership over the leaf's candidates and return
  a uniform choice among the positives (NULL when there are none).

Also implements the one-pass multi-sample extension of Section 5.3: ``r``
independent search paths walk down together, split at each node by a
binomial draw, so shared prefix work is paid once.

Works unchanged over :class:`~repro.core.tree.BloomSampleTree` and
:class:`~repro.core.pruned.PrunedBloomSampleTree` (the latter brute-forces
only *occupied* leaf candidates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import kernels
from repro.core.bloom import BloomFilter
from repro.core.kernels import PositionCache
from repro.core.ops import OpCounter
from repro.core.tree import TreeNode
from repro.utils.rng import ensure_rng

#: Estimated intersection sizes below this are treated as empty
#: (Section 5.6).  Half an element is the natural scale-free choice.
DEFAULT_EMPTY_THRESHOLD = 0.5


@dataclass
class SampleResult:
    """Outcome of one sampling run.

    ``value`` is ``None`` when every path ended in false-set-overlap leaves
    (the query filter matched nothing in the namespace).
    """

    value: int | None
    ops: OpCounter = field(default_factory=OpCounter)

    @property
    def succeeded(self) -> bool:
        """Whether a sample was produced."""
        return self.value is not None


@dataclass
class MultiSampleResult:
    """Outcome of a one-pass multi-sample run (``r`` requested paths)."""

    values: list[int]
    requested: int
    ops: OpCounter = field(default_factory=OpCounter)

    @property
    def shortfall(self) -> int:
        """Paths that found no element (false-positive dead ends)."""
        return self.requested - len(self.values)


class BSTSampler:
    """Sampler bound to one tree; reusable across many query filters.

    ``descent`` selects the branch-pruning policy:

    ``"threshold"`` (the paper's Section 5.6 rule, default)
        estimates below ``empty_threshold`` are treated as empty and the
        branch is pruned.  Fast, but when the per-branch signal is below
        the estimator's noise floor (uniformly spread sparse sets — see
        ``docs/algorithms.md``, "Known deviations") a branch whose estimate
        happens to clamp to zero is
        *never* sampled from.

    ``"floored"`` (starvation-free extension)
        no internal branch is ever pruned; flags are floored at
        ``empty_threshold`` so every leaf keeps positive reach
        probability.  Dead ends are discovered at leaves and backtracked.
        Slightly more node visits, no starved elements.
    """

    def __init__(
        self,
        tree,
        empty_threshold: float = DEFAULT_EMPTY_THRESHOLD,
        rng: "int | np.random.Generator | None" = None,
        descent: str = "threshold",
    ):
        if descent not in ("threshold", "floored"):
            raise ValueError(f"unknown descent policy {descent!r}")
        self.tree = tree
        self.empty_threshold = float(empty_threshold)
        self.rng = ensure_rng(rng)
        self.descent = descent

    # -- single sample ------------------------------------------------------

    def sample(self, query: BloomFilter,
               position_cache: PositionCache | None = None) -> SampleResult:
        """Draw one (near-uniform) element of the set stored in ``query``.

        ``position_cache`` shares hashed leaf candidates and node
        popcounts across a batch of calls on the same (unmutated) tree;
        omitted, a per-call cache still deduplicates backtracking
        revisits.
        """
        self.tree.check_query(query)
        ops = OpCounter()
        root = self.tree.root
        if root is None:  # pruned tree over an empty namespace
            return SampleResult(None, ops)
        cache = position_cache if position_cache is not None \
            else PositionCache(self.tree)
        t1 = query.bits.count_ones()
        value = self._sample_node(root, query, ops, cache, t1)
        return SampleResult(value, ops)

    def _sample_node(self, node: TreeNode, query: BloomFilter,
                     ops: OpCounter, cache: PositionCache,
                     t1: int) -> int | None:
        ops.nodes_visited += 1
        if self.tree.is_leaf(node):
            positives = self._leaf_positives(node, query, ops, cache)
            if positives.size == 0:
                return None  # reached via a (string of) false set overlaps
            return int(positives[self.rng.integers(0, positives.size)])

        left_est = self._child_estimate(node.left, query, ops, cache, t1)
        right_est = self._child_estimate(node.right, query, ops, cache, t1)
        if left_est <= 0.0 and right_est <= 0.0:
            return None
        if right_est <= 0.0:
            return self._sample_node(node.left, query, ops, cache, t1)
        if left_est <= 0.0:
            return self._sample_node(node.right, query, ops, cache, t1)

        # Both children intersect: descend proportionally, backtrack on NULL.
        go_left = self.rng.random() < left_est / (left_est + right_est)
        first, second = (
            (node.left, node.right) if go_left else (node.right, node.left)
        )
        value = self._sample_node(first, query, ops, cache, t1)
        if value is None:
            ops.backtracks += 1
            value = self._sample_node(second, query, ops, cache, t1)
        return value

    def _child_estimate(self, child: TreeNode | None, query: BloomFilter,
                        ops: OpCounter, cache: PositionCache,
                        t1: int) -> float:
        """Thresholded intersection-size estimate; missing child = empty.

        Saturated node filters (upper tree levels store so much of the
        namespace that every bit is set) make the estimator return ``inf``;
        the child's range size is the natural finite cap — the true
        intersection can never exceed it.

        The popcount inputs come from the batch cache (query popcount
        computed once per sample, node popcounts once per batch); the
        estimate itself is bit-identical to
        :meth:`~repro.core.bloom.BloomFilter.estimate_intersection`.
        """
        if child is None:
            return 0.0
        ops.intersections += 1
        estimate = cache.child_estimate(query, child)
        if estimate is None:
            t_and = query.bits.intersection_count(child.bloom.bits)
            estimate = kernels.intersection_estimate(
                t1, cache.ones(child), t_and, query.m, query.k)
            cache.set_child_estimate(query, child, estimate)
        if estimate < self.empty_threshold:
            if self.descent == "floored":
                return self.empty_threshold
            return 0.0
        return min(estimate, float(child.range_size))

    def _leaf_positives(self, node: TreeNode, query: BloomFilter,
                        ops: OpCounter, cache: PositionCache) -> np.ndarray:
        """Brute-force membership over the leaf's candidates.

        The candidates' hashed positions come from the shared cache, so a
        batch of queries (or a backtracking revisit) pays the hashing pass
        once and each query only tests bits.
        """
        candidates = cache.candidates(node)
        ops.memberships += int(candidates.size)
        if candidates.size == 0:
            return candidates
        hits = kernels.membership(query.bits.words, cache.positions(node))
        return candidates[hits]

    # -- one-pass multi-sample ----------------------------------------------------

    def sample_many(
        self,
        query: BloomFilter,
        r: int,
        replacement: bool = True,
        position_cache: PositionCache | None = None,
    ) -> MultiSampleResult:
        """Send ``r`` independent sample paths down the tree in one pass.

        Paths are split between children by binomial draws with the same
        proportional probabilities as :meth:`sample`; unmet demand is
        rerouted to the sibling (the multi-path analogue of backtracking).
        With ``replacement=False`` a leaf serves each positive at most once
        (leaves cover disjoint ranges, so cross-leaf duplicates cannot
        occur).

        ``position_cache`` shares the leaf-hashing work across a batch of
        query filters (see :meth:`repro.api.BloomDB.sample_many`).
        """
        if r <= 0:
            raise ValueError("r must be positive")
        self.tree.check_query(query)
        ops = OpCounter()
        root = self.tree.root
        if root is None:
            return MultiSampleResult([], r, ops)
        cache = position_cache if position_cache is not None \
            else PositionCache(self.tree)
        t1 = query.bits.count_ones()
        # Per-leaf positive cache so repeated visits (backtracking, many
        # paths) pay brute force once and can honour no-replacement.
        leaf_cache: dict[int, _LeafServer] = {}
        values = self._multi_node(root, query, r, replacement, leaf_cache,
                                  ops, cache, t1)
        return MultiSampleResult(values, r, ops)

    def _multi_node(
        self,
        node: TreeNode,
        query: BloomFilter,
        count: int,
        replacement: bool,
        leaf_cache: dict,
        ops: OpCounter,
        cache: PositionCache,
        t1: int,
    ) -> list[int]:
        if count <= 0:
            return []
        ops.nodes_visited += 1
        if self.tree.is_leaf(node):
            server = leaf_cache.get(id(node))
            if server is None:
                positives = self._leaf_positives(node, query, ops, cache)
                server = _LeafServer(positives, self.rng)
                leaf_cache[id(node)] = server
            return server.serve(count, replacement)

        left_est = self._child_estimate(node.left, query, ops, cache, t1)
        right_est = self._child_estimate(node.right, query, ops, cache, t1)
        if left_est <= 0.0 and right_est <= 0.0:
            return []
        if right_est <= 0.0:
            return self._multi_node(node.left, query, count, replacement,
                                    leaf_cache, ops, cache, t1)
        if left_est <= 0.0:
            return self._multi_node(node.right, query, count, replacement,
                                    leaf_cache, ops, cache, t1)

        p_left = left_est / (left_est + right_est)
        n_left = int(self.rng.binomial(count, p_left))
        got_left = self._multi_node(node.left, query, n_left, replacement,
                                    leaf_cache, ops, cache, t1)
        if len(got_left) < n_left:
            ops.backtracks += 1
        # Unmet left demand reroutes to the right alongside its own share.
        want_right = count - len(got_left)
        got_right = self._multi_node(node.right, query, want_right,
                                     replacement, leaf_cache, ops, cache, t1)
        deficit = count - len(got_left) - len(got_right)
        if deficit > 0 and len(got_left) == n_left and n_left > 0:
            # The right fell short; give the (previously productive) left
            # one more chance — mirrors single-path sibling backtracking.
            ops.backtracks += 1
            got_left += self._multi_node(node.left, query, deficit,
                                         replacement, leaf_cache, ops,
                                         cache, t1)
        return got_left + got_right


class ExactUniformSampler:
    """Provably uniform sampling via reconstruct-then-choose (extension).

    The descent sampler's quality is bounded by the intersection
    estimator's noise (Proposition 5.2 requires ``eps(m)`` small, which at
    practical ``m`` fails for uniformly spread sparse sets — see
    ``docs/algorithms.md``, "Known deviations").
    This sampler reconstructs the set once per query filter, caches it,
    and then serves exactly uniform draws over ``S u S(B)`` (restricted to
    the tree's candidate space) in O(1) per sample.

    Cost model: one reconstruction per distinct query filter, amortised
    over all subsequent samples — the right tool when many samples are
    drawn from the same filter (the chi-squared protocol of Section 7.2
    draws 130 * n).
    """

    def __init__(
        self,
        tree,
        empty_threshold: float = DEFAULT_EMPTY_THRESHOLD,
        rng: "int | np.random.Generator | None" = None,
        exhaustive: bool = False,
    ):
        # Imported here to avoid a circular module dependency.
        from repro.core.reconstruct import BSTReconstructor

        self.tree = tree
        self.rng = ensure_rng(rng)
        self._reconstructor = BSTReconstructor(
            tree, empty_threshold=empty_threshold, exhaustive=exhaustive
        )
        self._cache: dict[bytes, np.ndarray] = {}
        self.last_ops: OpCounter | None = None

    def sample(self, query: BloomFilter) -> SampleResult:
        """Uniform draw over the reconstructed set (cached per filter)."""
        key = query.bits.words.tobytes()
        elements = self._cache.get(key)
        ops = OpCounter()
        if elements is None:
            result = self._reconstructor.reconstruct(query)
            elements = result.elements
            self._cache[key] = elements
            ops = result.ops
        self.last_ops = ops
        if elements.size == 0:
            return SampleResult(None, ops)
        value = int(elements[self.rng.integers(0, elements.size)])
        return SampleResult(value, ops)

    def clear_cache(self) -> None:
        """Drop cached reconstructions (e.g. after tree updates)."""
        self._cache.clear()


class _LeafServer:
    """Serves samples from one leaf's positives, with or without replacement."""

    __slots__ = ("_positives", "_rng", "_order", "_served")

    def __init__(self, positives: np.ndarray, rng: np.random.Generator):
        self._positives = positives
        self._rng = rng
        self._order: np.ndarray | None = None
        self._served = 0

    def serve(self, count: int, replacement: bool) -> list[int]:
        if self._positives.size == 0:
            return []
        if replacement:
            picks = self._rng.integers(0, self._positives.size, size=count)
            return [int(v) for v in self._positives[picks]]
        if self._order is None:
            self._order = self._rng.permutation(self._positives)
        take = self._order[self._served:self._served + count]
        self._served += len(take)
        return [int(v) for v in take]
