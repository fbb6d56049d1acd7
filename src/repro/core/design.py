"""Parameter planning: from desired accuracy to a concrete BloomSampleTree.

Section 5.4 of the paper determines the two free parameters of the system:

* the Bloom filter size ``m``, from the desired sampling *accuracy*

  ``acc = n / (n + (M - n) * FP)``  with  ``FP = (1 - e^{-kn/m})^k``;

* the leaf capacity ``M_perp`` (equivalently the tree depth
  ``log2(M / M_perp)``), from the ratio between the cost of one Bloom
  filter intersection and one membership query:

  ``M_perp = max N_perp  such that  N_perp / log2(N_perp) <= icost / mcost``.

Solving the accuracy model reproduces the paper's Tables 2 and 3 ``m``
values to within 0.1% — including the "accuracy 1.0" rows, which correspond
to an effective target of 0.99 (see ``docs/algorithms.md``, "Known
deviations"), hence the ``max_accuracy`` cap below.

The cost ratio can be supplied explicitly, modelled analytically
(an intersection touches ``m/64`` words; a membership query touches ``k``)
or micro-measured on this machine with :func:`measure_cost_ratio`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.bloom import BloomFilter
from repro.core.cardinality import false_positive_rate
from repro.core.hashing import HashFamily, create_family
from repro.utils.rng import ensure_rng

#: Paper "accuracy 1.0" behaves as 0.99 (matches Tables 2/3 m values).
DEFAULT_MAX_ACCURACY = 0.99


def expected_accuracy(m: int, n: int, namespace_size: int, k: int) -> float:
    """The paper's accuracy model ``n / (n + (M - n) * FP)`` (Section 5.4)."""
    if n <= 0:
        raise ValueError("n must be positive")
    if namespace_size < n:
        raise ValueError("namespace must be at least as large as the set")
    fp = false_positive_rate(n, m, k)
    return n / (n + (namespace_size - n) * fp)


def required_fpp(accuracy: float, n: int, namespace_size: int) -> float:
    """False-positive probability that yields ``accuracy`` for ``n`` of ``M``.

    Inverts ``acc = n / (n + (M - n) * FP)``.  Values >= 1 are clamped just
    below 1 (any filter already achieves such a loose target).
    """
    if not 0 < accuracy <= 1:
        raise ValueError("accuracy must be in (0, 1]")
    if n <= 0 or namespace_size <= n:
        raise ValueError("need 0 < n < namespace_size")
    fp = n * (1.0 - accuracy) / (accuracy * (namespace_size - n))
    return min(fp, 1.0 - 1e-12)


def bloom_size_for_accuracy(
    accuracy: float,
    n: int,
    namespace_size: int,
    k: int,
    max_accuracy: float = DEFAULT_MAX_ACCURACY,
) -> int:
    """Smallest filter size ``m`` achieving the desired sampling accuracy.

    Solves ``(1 - e^{-kn/m})^k = FP_target`` for ``m``:
    ``m = ceil(-k n / ln(1 - FP^{1/k}))``.
    """
    accuracy = min(accuracy, max_accuracy)
    fp = required_fpp(accuracy, n, namespace_size)
    root = fp ** (1.0 / k)
    if root >= 1.0:
        return max(64, k)  # any tiny filter suffices
    m = -k * n / math.log1p(-root)
    return max(64, math.ceil(m))


def modelled_cost_ratio(m: int, k: int) -> float:
    """Analytic ``icost / mcost``: word-AND count over hash-probe count.

    One intersection estimate touches every 64-bit word (``m/64`` of them);
    one membership query computes ``k`` hashes and probes ``k`` words.  The
    constant factor between a word-AND and a hash probe is taken as 1, which
    reproduces the depth choices of the paper's Table 2 closely.
    """
    if m <= 0 or k <= 0:
        raise ValueError("m and k must be positive")
    return (m / 64.0) / k


def measure_cost_ratio(
    family: HashFamily,
    rounds: int = 200,
    rng: "int | np.random.Generator | None" = 0,
) -> float:
    """Micro-measure ``icost / mcost`` for this machine and hash family.

    Builds two random filters of the family's ``m`` and times intersection
    estimates against single-element membership queries.  This is the
    "engineer measures their own costs" route the paper suggests.
    """
    rng = ensure_rng(rng)
    m = family.m
    n_items = max(16, m // (8 * family.k))
    items = rng.integers(0, max(2, m), size=n_items, dtype=np.uint64)
    a = BloomFilter.from_items(items, family)
    b = BloomFilter.from_items(items[::2], family)
    probes = rng.integers(0, max(2, m), size=rounds, dtype=np.uint64)

    start = time.perf_counter()
    for _ in range(rounds):
        a.estimate_intersection(b)
    icost = (time.perf_counter() - start) / rounds

    start = time.perf_counter()
    for x in probes.tolist():
        _ = x in a
    mcost = (time.perf_counter() - start) / rounds

    if mcost <= 0:
        return modelled_cost_ratio(m, family.k)
    return max(1.0, icost / mcost)


def leaf_capacity_for_ratio(
    namespace_size: int,
    cost_ratio: float,
    max_depth: int = 40,
) -> tuple[int, int]:
    """``(M_perp, depth)`` for the Section 5.4 trade-off rule.

    Walks depths from 0 upward; the leaf size at depth ``d`` is
    ``ceil(M / 2^d)``; picks the *largest* leaf (smallest depth) with
    ``N / log2(N) <= cost_ratio``.  If even a 2-element leaf fails the rule
    the deepest admissible tree (leaf of 2) is returned.
    """
    if namespace_size < 2:
        raise ValueError("namespace must hold at least 2 elements")
    if cost_ratio <= 0:
        raise ValueError("cost_ratio must be positive")
    depth = 0
    while True:
        leaf = math.ceil(namespace_size / (1 << depth))
        if leaf <= 2:
            return max(2, leaf), depth
        if leaf / math.log2(leaf) <= cost_ratio:
            return leaf, depth
        if depth >= max_depth:
            return leaf, depth
        depth += 1


@dataclass(frozen=True)
class TreeParameters:
    """A fully resolved BloomSampleTree configuration.

    Produced by :func:`plan_tree`; consumed by
    :meth:`repro.core.tree.BloomSampleTree.build`.
    """

    namespace_size: int
    m: int
    k: int
    depth: int
    leaf_capacity: int
    target_accuracy: float
    query_set_size: int

    @property
    def num_nodes(self) -> int:
        """Node count of the complete tree: ``2^{depth+1} - 1``."""
        return (1 << (self.depth + 1)) - 1

    @property
    def memory_bytes(self) -> int:
        """Analytic storage: ``m`` bits (word-padded) per node."""
        words = (self.m + 63) // 64
        return self.num_nodes * words * 8

    @property
    def memory_mb(self) -> float:
        """Memory in MB, as reported in the paper's Tables 2/3."""
        return self.memory_bytes / 1e6


def plan_tree(
    namespace_size: int,
    query_set_size: int,
    accuracy: float,
    k: int = 3,
    cost_ratio: float | None = None,
    max_accuracy: float = DEFAULT_MAX_ACCURACY,
) -> TreeParameters:
    """Resolve ``(m, depth, M_perp)`` from the experiment-level knobs.

    ``cost_ratio=None`` uses the analytic model (deterministic and machine
    independent); pass :func:`measure_cost_ratio`'s output to plan against
    real hardware costs, or a fixed number to pin the paper's depths.
    """
    m = bloom_size_for_accuracy(
        accuracy, query_set_size, namespace_size, k, max_accuracy
    )
    ratio = modelled_cost_ratio(m, k) if cost_ratio is None else cost_ratio
    leaf, depth = leaf_capacity_for_ratio(namespace_size, ratio)
    return TreeParameters(
        namespace_size=namespace_size,
        m=m,
        k=k,
        depth=depth,
        leaf_capacity=leaf,
        target_accuracy=accuracy,
        query_set_size=query_set_size,
    )


def family_for_parameters(
    params: TreeParameters,
    family_name: str = "simple",
    seed: int = 0,
) -> HashFamily:
    """Construct the hash family matching a planned tree."""
    return create_family(
        family_name,
        params.k,
        params.m,
        namespace_size=params.namespace_size,
        seed=seed,
    )
