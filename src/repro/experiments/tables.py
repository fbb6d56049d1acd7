"""Row producers for the paper's Tables 2-6.

Each function returns ``list[dict]`` rows printable with
:func:`repro.experiments.formatting.format_rows`; the ``paper_table*``
scenarios of :mod:`repro.bench` run them and check their claims.
"""

from __future__ import annotations

import time

from repro.analysis.uniformity import (
    chi_squared_uniformity,
    recommended_rounds,
    sample_counts,
)
from repro.core.bloom import BloomFilter
from repro.core.design import expected_accuracy, plan_tree
from repro.core.sampling import BSTSampler, ExactUniformSampler
from repro.core.tree import BloomSampleTree
from repro.experiments.config import DEFAULT_FAMILY, PAPER_K
from repro.experiments.runner import TreeCache, make_query_set
from repro.utils.rng import ensure_rng

#: Paper reference values for Tables 2 and 3 (accuracy -> m), used by
#: the tests and the ``paper_table2_table3_parameters`` scenario to
#: verify the parameter planner reproduces them.
PAPER_TABLE2_M = {0.5: 28465, 0.6: 32808, 0.7: 38259, 0.8: 46000,
                  0.9: 60870, 1.0: 137230}
PAPER_TABLE3_M = {0.5: 63120, 0.6: 72475, 0.7: 84215, 0.8: 101090,
                  0.9: 132933, 1.0: 297485}


def parameter_rows(
    namespace_size: int,
    n: int = 1_000,
    accuracies: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
) -> list[dict]:
    """Tables 2 / 3: m, depth, M_perp and analytic memory per accuracy."""
    rows = []
    paper = PAPER_TABLE2_M if namespace_size == 1_000_000 else (
        PAPER_TABLE3_M if namespace_size == 10_000_000 else {})
    for accuracy in accuracies:
        params = plan_tree(namespace_size, n, accuracy, PAPER_K)
        row = {
            "accuracy": accuracy,
            "m": params.m,
            "depth": params.depth,
            "M_perp": params.leaf_capacity,
            "memory_mb": round(params.memory_mb, 3),
        }
        if accuracy in paper:
            row["paper_m"] = paper[accuracy]
            row["m_ratio"] = round(params.m / paper[accuracy], 4)
        rows.append(row)
    return rows


def creation_time_rows(
    namespace_sizes: tuple[int, ...],
    accuracies: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9),
    n: int = 1_000,
    family_name: str = DEFAULT_FAMILY,
    seed: int = 0,
) -> list[dict]:
    """Table 4: wall-clock time to create the BloomSampleTree."""
    from repro.core.hashing import create_family

    rows = []
    for namespace_size in namespace_sizes:
        for accuracy in accuracies:
            params = plan_tree(namespace_size, n, accuracy, PAPER_K)
            family = create_family(family_name, PAPER_K, params.m,
                                   namespace_size=namespace_size, seed=seed)
            start = time.perf_counter()
            tree = BloomSampleTree.build(namespace_size, params.depth, family)
            elapsed = time.perf_counter() - start
            rows.append({
                "M": namespace_size,
                "accuracy": accuracy,
                "m": params.m,
                "levels": params.depth,
                "create_s": round(elapsed, 3),
                "nodes": tree.num_nodes,
            })
            del tree
    return rows


def chi_squared_rows(
    cache: TreeCache,
    namespace_size: int,
    set_sizes: tuple[int, ...],
    accuracies: tuple[float, ...],
    kind: str = "uniform",
    rounds_per_element: int = 130,
    family_name: str = DEFAULT_FAMILY,
    seed: int = 0,
    samplers: tuple[str, ...] = ("descent", "exact"),
) -> list[dict]:
    """Table 5: chi-squared p-values of the sampling distribution.

    ``samplers`` selects which implementations to test: ``descent`` is the
    paper's Algorithm 1 (whose uniformity is limited by the intersection
    estimator's noise floor — see ``docs/algorithms.md``, "Known
    deviations"), ``exact`` is the
    reconstruct-then-choose extension that is uniform by construction.
    """
    rows = []
    for n in set_sizes:
        for accuracy in accuracies:
            params = plan_tree(namespace_size, n, accuracy, PAPER_K)
            tree = cache.tree(namespace_size, params.m, params.depth,
                              family_name, PAPER_K, seed)
            rng = ensure_rng(seed + n)
            secret = make_query_set(namespace_size, n, kind, rng)
            query = BloomFilter.from_items(secret, tree.family)
            rounds = min(recommended_rounds(n),
                         rounds_per_element * n)
            row = {"n": n, "accuracy": accuracy, "kind": kind,
                   "rounds": rounds}
            for which in samplers:
                if which == "descent":
                    sampler = BSTSampler(tree, rng=rng)
                else:
                    sampler = ExactUniformSampler(tree, rng=rng,
                                                  exhaustive=True)
                draws = []
                for _ in range(rounds):
                    result = sampler.sample(query)
                    if result.value is not None:
                        draws.append(result.value)
                counts = sample_counts(draws, secret)
                if counts.sum() == 0:
                    row[f"p_{which}"] = 0.0
                    row[f"starved_{which}"] = n
                    continue
                __, p_value = chi_squared_uniformity(counts)
                row[f"p_{which}"] = round(p_value, 4)
                row[f"starved_{which}"] = int((counts == 0).sum())
            rows.append(row)
    return rows


def measured_accuracy_rows(
    cache: TreeCache,
    namespace_sizes: tuple[int, ...],
    accuracies: tuple[float, ...],
    n: int = 1_000,
    kind: str = "uniform",
    rounds: int = 2_000,
    family_name: str = DEFAULT_FAMILY,
    seed: int = 0,
    query_sets: int = 3,
) -> list[dict]:
    """Table 6: measured vs desired accuracy for uniform query sets.

    Rounds are spread across ``query_sets`` independently drawn sets —
    a single query filter's descent noise is frozen (the estimates are
    deterministic given the filter), so one set per cell would measure
    that filter's luck rather than the accuracy model.
    """
    rows = []
    per_set = max(1, rounds // query_sets)
    for namespace_size in namespace_sizes:
        for accuracy in accuracies:
            params = plan_tree(namespace_size, n, accuracy, PAPER_K)
            tree = cache.tree(namespace_size, params.m, params.depth,
                              family_name, PAPER_K, seed)
            hits = produced = 0
            for offset in range(query_sets):
                rng = ensure_rng(seed + namespace_size + offset)
                secret = make_query_set(namespace_size, n, kind, rng)
                truth = set(int(x) for x in secret.tolist())
                query = BloomFilter.from_items(secret, tree.family)
                sampler = BSTSampler(tree, rng=rng)
                for _ in range(per_set):
                    result = sampler.sample(query)
                    if result.value is None:
                        continue
                    produced += 1
                    hits += int(result.value in truth)
            rows.append({
                "M": namespace_size,
                "desired": accuracy,
                "measured": round(hits / produced, 3) if produced else 0.0,
                "model": round(
                    expected_accuracy(params.m, n, namespace_size, PAPER_K), 3
                ),
                "rounds": per_set * query_sets,
            })
    return rows
