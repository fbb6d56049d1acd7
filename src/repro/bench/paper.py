"""The paper's evaluation as benchmark collectors (scenario kind ``paper``).

One collector per table, figure or ablation of Section 7, plus
Proposition 5.2, each returning ``{"tables": [{"title", "columns",
"rows"}, ...], "claims": {name: {"holds", "gated", ...evidence}}}``.
The rows come from the :mod:`repro.experiments` producers (Prop. 5.2 and
the ablations run their own loops).  A claim is one shape the paper
reports, checked on the rows at a fixed tolerance.  Claims on seeded
counts (op counts, recall, starvation, accuracy, memory, p-value
fractions, planner ratios) are ``gated``: CI fails when one does not
hold.  Claims on wall-clock time are recorded only: shared runners are
too noisy to gate them.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.simulation import leaf_arrival_report
from repro.analysis.theory import epsilon_m
from repro.core.bloom import BloomFilter
from repro.core.design import plan_tree
from repro.core.reconstruct import BSTReconstructor
from repro.core.sampling import BSTSampler, ExactUniformSampler
from repro.core.tree import BloomSampleTree
from repro.experiments import figures, tables
from repro.experiments.runner import TreeCache, make_query_set

#: Table 5's significance level (the paper's).
SIGNIFICANCE = 0.08

_KINDS = ("uniform", "clustered")


def _table(title: str, columns: str, rows: list) -> dict:
    return {"title": title, "columns": columns.split(), "rows": rows}


def _claim(holds, gated: bool = True, **evidence) -> dict:
    return {"holds": bool(holds), "gated": gated, **evidence}


def _per_kind(params: dict, produce, args: tuple, title: str,
              columns: str, judge) -> dict:
    """One table per query-set kind of ``produce``'s rows over
    ``params["grid"]``; ``judge(kind, rows)`` names their claims."""
    cache = TreeCache()
    out, claims = [], {}
    for kind in _KINDS:
        rows = [row for namespace, sizes in params["grid"]
                for row in produce(cache, namespace, tuple(sizes),
                                   tuple(params["accuracies"]), kind, *args)]
        out.append(_table(title.format(kind=kind), columns, rows))
        claims.update(judge(kind, rows))
    return {"tables": out, "claims": claims}


def _cells(rows: list, field: str) -> list[dict]:
    """``row[field]`` by method, per (M, n, accuracy) cell of a grid."""
    cells = {}
    for row in rows:
        key = (row["M"], row["n"], row["target_accuracy"])
        cells.setdefault(key, {})[row["method"]] = row[field]
    return list(cells.values())


def table2_table3_parameters(params: dict) -> dict:
    """Tables 2 and 3: planner outputs (m, depth, M_perp, memory).

    Analytic, so the paper's exact namespaces run at every scale; the
    ``m_ratio`` column compares the solved filter sizes with the paper's.
    """
    n = params["set_size"]
    columns = "accuracy m depth M_perp memory_mb paper_m m_ratio"
    planned = [
        _table(f"Table {number}: BloomSampleTree parameters "
               f"(n={n}, M={namespace})", columns,
               tables.parameter_rows(namespace, n,
                                     tuple(params["accuracies"])))
        for number, namespace in zip((2, 3), params["namespaces"])
    ]
    ratios = [row["m_ratio"] for table in planned for row in table["rows"]
              if "m_ratio" in row]
    return {"tables": planned, "claims": {
        "m_within_0.5pct_of_paper": _claim(
            all(abs(ratio - 1.0) < 0.005 for ratio in ratios)),
    }}


def table4_creation_time(params: dict) -> dict:
    """Table 4: time to create the BloomSampleTree.

    Creation grows roughly linearly in M (the leaves insert the whole
    namespace).  The claim needs two namespaces.
    """
    namespaces = params["namespaces"]
    rows = tables.creation_time_rows(
        tuple(namespaces), accuracies=tuple(params["accuracies"]),
        n=params["set_size"])
    claims = {}
    if max(namespaces) > min(namespaces):
        t_small = min(r["create_s"] for r in rows
                      if r["M"] == min(namespaces))
        t_large = max(r["create_s"] for r in rows
                      if r["M"] == max(namespaces))
        claims["largest_M_builds_slowest"] = _claim(
            t_large >= t_small, gated=False, smallest_M_s=t_small,
            largest_M_s=t_large)
    return {"tables": [_table(
        "Table 4: BloomSampleTree creation time",
        "M accuracy m levels nodes create_s", rows)],
        "claims": claims}


def table5_chi_squared(params: dict) -> dict:
    """Table 5: chi-squared p-values for sampling uniformity.

    The paper reports p > 0.08 in every cell.  ``p_descent`` (Algorithm
    1) fails for uniformly spread sparse sets (``docs/algorithms.md``,
    "Known deviations"); the claims are on ``p_exact``, the
    reconstruct-then-choose sampler.
    """
    cache = TreeCache()
    namespace = params["namespace"]
    rows = []
    for kind in _KINDS:
        rows.extend(tables.chi_squared_rows(
            cache, namespace, tuple(params["set_sizes"]),
            tuple(params["accuracies"]), kind,
            rounds_per_element=params["rounds_per_element"],
            samplers=("descent", "exact")))
    # p-values are themselves random: the bulk of cells must pass.
    passing = sum(r["p_exact"] > SIGNIFICANCE for r in rows)
    return {"tables": [_table(
        f"Table 5: chi-squared uniformity p-values (M={namespace}, "
        f"significance={SIGNIFICANCE})",
        "n accuracy kind rounds p_descent starved_descent p_exact "
        "starved_exact", rows)],
        "claims": {
            "exact_never_starves": _claim(
                all(r["starved_exact"] == 0 for r in rows)),
            "exact_passes_in_70pct_of_cells": _claim(
                passing >= len(rows) * 0.7, passing=passing,
                cells=len(rows)),
        }}


def table6_measured_accuracy(params: dict) -> dict:
    """Table 6: measured sampling accuracy vs the desired accuracy.

    The accuracy model ``acc = n / (n + (M - n) FP)`` should be well
    calibrated: measured tracks desired, tightly at the high end.
    """
    n = params["set_size"]
    rows = tables.measured_accuracy_rows(
        TreeCache(), tuple(params["namespaces"]),
        tuple(params["accuracies"]), n=n, rounds=params["rounds"])
    return {"tables": [_table(
        f"Table 6: measured accuracy (n={n}, uniform sets)",
        "M desired model measured rounds", rows)],
        "claims": {
            "measured_within_0.15_of_target": _claim(all(
                r["measured"] >= min(r["desired"], r["model"]) - 0.15
                for r in rows)),
            "measured_within_0.08_of_model_from_0.9": _claim(all(
                abs(r["measured"] - r["model"]) < 0.08
                for r in rows if r["desired"] >= 0.9)),
        }}


def fig3_fig4_sampling_ops(params: dict) -> dict:
    """Figures 3 (uniform) and 4 (clustered): ops per sample.

    BST needs a handful of intersections plus ~M_perp memberships per
    sample; the dictionary attack (DA) always needs M memberships.
    """
    def judge(kind, rows):
        bst = [r for r in rows if r["method"] == "BST"]
        return {
            f"{kind}.bst_memberships_below_M_over_5": _claim(
                all(r["memberships"] < r["M"] / 5 for r in bst)),
            f"{kind}.da_memberships_equal_M": _claim(
                all(r["memberships"] == r["M"]
                    for r in rows if r["method"] == "DA")),
            f"{kind}.bst_intersections_within_20x_height": _claim(
                all(r["intersections"] <= 20 * (r["depth"] + 1)
                    for r in bst)),
        }

    return _per_kind(
        params, figures.sampling_ops_rows,
        (params["rounds"], params["da_rounds"]),
        "Figures 3/4: sampling op counts ({kind} query sets)",
        "M n kind target_accuracy method intersections memberships nodes "
        "time_ms accuracy", judge)


def fig5_fig6_sampling_time(params: dict) -> dict:
    """Figures 5 and 6: average sampling time, BST vs DA.

    BST is one to two orders of magnitude faster than DA per sample, in
    every cell.
    """
    def judge(kind, rows):
        speedups = [cell["DA"] / cell["BST"] for cell in _cells(
            rows, "time_ms") if "DA" in cell and "BST" in cell]
        return {f"{kind}.bst_faster_than_da": _claim(
            speedups and min(speedups) > 1.0, gated=False,
            min_speedup=round(min(speedups), 2) if speedups else None)}

    return _per_kind(
        params, figures.sampling_time_rows,
        (params["rounds"], params["da_rounds"]),
        "Figures 5/6: avg sampling time ({kind} query sets)",
        "M n kind target_accuracy method time_ms memberships intersections "
        "accuracy", judge)


def fig7_hash_families(params: dict) -> dict:
    """Figure 7: effect of the hash family on sampling time.

    MD5 slows DA, which hashes the entire namespace, far more than the
    BST, which defers membership queries until most of the tree is
    pruned.  The claim is checked at every accuracy.
    """
    accuracies = params["accuracies"]
    rows = figures.hash_family_rows(
        TreeCache(), params["namespace"], params["set_size"],
        tuple(accuracies), rounds=params["rounds"],
        da_rounds=params["da_rounds"])
    claims = {}
    for accuracy in accuracies:
        times = {(r["family"], r["method"]): r["time_ms"] for r in rows
                 if r["target_accuracy"] == accuracy}
        da_penalty = times[("md5", "DA")] / times[("murmur3", "DA")]
        bst_penalty = times[("md5", "BST")] / times[("murmur3", "BST")]
        claims[f"accuracy_{accuracy}.md5_slows_da_over_2x"] = _claim(
            da_penalty > 2.0, gated=False, da_penalty=round(da_penalty, 2))
        claims[f"accuracy_{accuracy}.md5_slows_bst_less_than_da"] = _claim(
            bst_penalty < da_penalty, gated=False,
            bst_penalty=round(bst_penalty, 2),
            da_penalty=round(da_penalty, 2))
    return {"tables": [_table(
        f"Figure 7: hash family effect (M={params['namespace']})",
        "family method target_accuracy time_ms memberships intersections",
        rows)], "claims": claims}


def fig8_9_10_reconstruction_ops(params: dict) -> dict:
    """Figures 8, 9, 10: reconstruction op counts (BST / HI / DA).

    DA always costs M memberships; HashInvert (HI) is exact; the BST
    saves memberships by pruning, dramatically for clustered sets.
    """
    def judge(kind, rows):
        da = [r for r in rows if r["method"] == "DA"]
        claims = {
            f"{kind}.da_memberships_equal_M": _claim(
                all(r["memberships"] == r["M"] for r in da)),
            f"{kind}.da_recall_is_1": _claim(
                all(r["recall"] == 1.0 for r in da)),
            f"{kind}.hi_recall_is_1": _claim(
                all(r["recall"] == 1.0 for r in rows if r["method"] == "HI")),
        }
        if kind == "clustered":
            claims["clustered.bst_prunes_below_M_over_3"] = _claim(any(
                r["memberships"] < r["M"] / 3
                for r in rows if r["method"] == "BST"))
        return claims

    return _per_kind(
        params, figures.reconstruction_ops_rows, (params["rounds"],),
        "Figures 8/9/10: reconstruction ops ({kind} query sets)",
        "M n kind target_accuracy method intersections memberships time_ms "
        "recall precision", judge)


def fig11_12_reconstruction_time(params: dict) -> dict:
    """Figures 11 and 12: reconstruction wall-clock time (BST / HI / DA).

    Section 7.3: HI issues fewer membership queries than DA, the BST no
    more.  The paper's "HI is slowest" reflects its per-bit C++ loop and
    does not survive the vectorised inversion, so times are not judged.
    """
    def judge(kind, rows):
        cells = [cell for cell in _cells(rows, "memberships")
                 if {"HI", "DA", "BST"} <= cell.keys()]
        return {
            f"{kind}.hi_memberships_below_da": _claim(
                all(c["HI"] < c["DA"] for c in cells)),
            f"{kind}.bst_memberships_at_most_da": _claim(
                all(c["BST"] <= c["DA"] for c in cells)),
        }

    return _per_kind(
        params, figures.reconstruction_time_rows, (params["rounds"],),
        "Figures 11/12: reconstruction time ({kind} query sets)",
        "M n kind target_accuracy method time_ms memberships recall", judge)


def fig13_14_15_pruned_namespace(params: dict) -> dict:
    """Figures 13, 14, 15: the pruned tree vs the namespace fraction.

    Section 8 on a synthetic Twitter stand-in (``docs/algorithms.md``,
    "Known deviations").  Memory grows with the fraction, clustered
    below uniform, both below the full tree; accuracy meets the plan.
    """
    namespace, depth = params["namespace"], params["depth"]
    accuracy = params["accuracy"]
    rows = figures.pruned_namespace_rows(
        fractions=tuple(params["fractions"]), rounds=params["rounds"],
        namespace_size=namespace, num_users=params["users"],
        num_hashtags=params["hashtags"], depth=depth, accuracy=accuracy)
    reference = figures.full_tree_memory_mb(namespace, depth, rows[0]["m"])
    claims = {}
    for mode in _KINDS:
        series = [r for r in rows if r["mode"] == mode]
        fractions = [r["fraction"] for r in series]
        memories = [r["memory_mb"] for r in series]
        claims[f"{mode}.memory_grows_with_fraction"] = _claim(
            memories == sorted(memories) and fractions == sorted(fractions))
        claims[f"{mode}.memory_below_full_tree"] = _claim(
            all(mem <= reference + 1e-9 for mem in memories))
        claims[f"{mode}.accuracy_within_0.1_of_planned"] = _claim(
            all(r["accuracy"] >= accuracy - 0.1 for r in series))
    nodes = {(r["mode"], r["fraction"]): r["nodes"] for r in rows}
    claims["clustered_nodes_at_most_uniform"] = _claim(all(
        nodes[("clustered", f)] <= nodes[("uniform", f)]
        for f in params["fractions"]))
    return {"tables": [_table(
        f"Figures 13/14/15: pruned tree vs namespace fraction (full-tree "
        f"memory reference {reference:.2f} MB)",
        "mode fraction occupied nodes memory_mb build_s time_ms accuracy "
        "nulls", rows)], "claims": claims}


def prop52_sample_quality(params: dict) -> dict:
    """Proposition 5.2: leaf-arrival proportionality of BSTSample.

    P[sampler reaches leaf L] lies within ``(1 +- eps(m)) * l/n``: the
    per-leaf ratio spread of the descent sampler contracts as m grows
    (next to the theoretical ``eps(m)``); the exact sampler starves no
    leaf.
    """
    cache = TreeCache()
    namespace, n = params["namespace"], params["set_size"]
    rounds = params["rounds"]
    base = plan_tree(namespace, n, 0.9)
    secret = make_query_set(namespace, n, "uniform", rng=9)

    def row(sampler, multiplier, m, eps, report):
        return {
            "sampler": sampler,
            "m_multiplier": multiplier,
            "m": m,
            "eps_theory": eps,
            "max_deviation": round(report.max_deviation, 3),
            "median_deviation": round(
                float(np.median(np.abs(report.ratios - 1.0))), 3),
            "starved_leaves": report.starved_leaves,
        }

    rows = []
    for mult in params["multipliers"]:
        m = base.m * mult
        family = cache.family("murmur3", base.k, m, namespace)
        tree = BloomSampleTree.build(namespace, base.depth, family)
        query = BloomFilter.from_items(secret, family)
        report = leaf_arrival_report(
            tree, BSTSampler(tree, rng=9), query, secret, rounds)
        rows.append(row("descent", mult, m,
                        round(epsilon_m(m, n, base.k), 2), report))
    family = cache.family("murmur3", base.k, base.m, namespace)
    tree = BloomSampleTree.build(namespace, base.depth, family)
    query = BloomFilter.from_items(secret, family)
    report = leaf_arrival_report(
        tree, ExactUniformSampler(tree, rng=9, exhaustive=True),
        query, secret, rounds)
    rows.append(row("exact", 1, base.m, 0.0, report))

    descent = rows[:-1]
    return {"tables": [_table(
        f"Proposition 5.2: leaf-arrival proportionality (M={namespace}, "
        f"n={n}, {rounds} rounds)",
        "sampler m_multiplier m eps_theory max_deviation median_deviation "
        "starved_leaves", rows)],
        "claims": {
            "deviation_contracts_as_m_grows": _claim(
                descent[-1]["median_deviation"]
                <= descent[0]["median_deviation"]),
            "starvation_contracts_as_m_grows": _claim(
                descent[-1]["starved_leaves"]
                <= descent[0]["starved_leaves"]),
            "exact_never_starves": _claim(rows[-1]["starved_leaves"] == 0),
        }}


def ablation_depth(params: dict) -> dict:
    """Ablation: tree depth / leaf capacity (the Section 5.4 trade-off).

    Shallow trees pay leaf brute-forces (memberships), deep ones more
    intersections; the planner's depth should sit near the fastest.
    """
    namespace, n = params["namespace"], params["set_size"]
    rounds = params["rounds"]
    planned = plan_tree(namespace, n, 0.9)
    family = TreeCache().family("murmur3", planned.k, planned.m, namespace)
    secret = make_query_set(namespace, n, "uniform", rng=2)
    query = BloomFilter.from_items(secret, family)
    depths = sorted({max(1, planned.depth + delta)
                     for delta in params["depth_offsets"]
                     if (1 << max(1, planned.depth + delta)) <= namespace})
    rows = []
    for depth in depths:
        tree = BloomSampleTree.build(namespace, depth, family)
        sampler = BSTSampler(tree, rng=2)
        intersections = memberships = 0
        start = time.perf_counter()
        for __ in range(rounds):
            result = sampler.sample(query)
            intersections += result.ops.intersections
            memberships += result.ops.memberships
        elapsed = time.perf_counter() - start
        rows.append({
            "depth": depth,
            "leaf": -(-namespace // (1 << depth)),
            "time_ms": round(elapsed / rounds * 1e3, 3),
            "intersections": round(intersections / rounds, 1),
            "memberships": round(memberships / rounds, 1),
            "planned": "<-- planner" if depth == planned.depth else "",
        })
    inter = [r["intersections"] for r in rows]
    memb = [r["memberships"] for r in rows]
    times = {r["depth"]: r["time_ms"] for r in rows}
    return {"tables": [_table(
        f"Ablation: tree depth (M={namespace}, n={n}, m={planned.m})",
        "depth leaf time_ms intersections memberships planned", rows)],
        "claims": {
            "intersections_grow_with_depth": _claim(inter == sorted(inter)),
            "memberships_fall_with_depth": _claim(
                memb == sorted(memb, reverse=True)),
            "planned_depth_within_3x_of_fastest": _claim(
                times[planned.depth] <= 3.0 * min(times.values()),
                gated=False, planned_ms=times[planned.depth],
                fastest_ms=min(times.values())),
        }}


def ablation_estimator_snr(params: dict) -> dict:
    """Ablation: the intersection estimator's noise floor vs filter size.

    Per-node signal is ``n*N/M`` elements, estimator noise
    ``~sqrt(n*N/m)``: growing ``m`` alone lifts uniform sparse sets over
    the floor, so starvation falls and thresholded recall rises.
    """
    cache = TreeCache()
    namespace, n = params["namespace"], params["set_size"]
    rounds = params["rounds"]
    base = plan_tree(namespace, n, 0.9)
    leaf = -(-namespace // (1 << base.depth))
    secret = make_query_set(namespace, n, "uniform", rng=3)
    truth = set(secret.tolist())
    rows = []
    for mult in params["multipliers"]:
        m = base.m * mult
        family = cache.family("murmur3", base.k, m, namespace)
        tree = BloomSampleTree.build(namespace, base.depth, family)
        query = BloomFilter.from_items(secret, family)
        sampler = BSTSampler(tree, rng=3)
        seen = set()
        for __ in range(rounds):
            value = sampler.sample(query).value
            if value in truth:
                seen.add(value)
        result = BSTReconstructor(tree).reconstruct(query)
        found = np.isin(secret, result.elements).sum()
        snr = (n * leaf / namespace) / np.sqrt(n * leaf / m)
        rows.append({
            "m_multiplier": mult,
            "m": m,
            "leaf_snr": round(float(snr), 2),
            "starved": n - len(seen),
            "recall": round(float(found) / n, 3),
            "memberships": result.ops.memberships,
        })
    recalls = [r["recall"] for r in rows]
    starved = [r["starved"] for r in rows]
    return {"tables": [_table(
        f"Ablation: estimator noise floor vs m (M={namespace}, n={n}, "
        f"depth={base.depth}, {rounds} rounds)",
        "m_multiplier m leaf_snr starved recall memberships", rows)],
        "claims": {
            "recall_grows_with_m": _claim(recalls[-1] >= recalls[0]),
            "starvation_falls_with_m": _claim(starved[-1] <= starved[0]),
            "recall_at_largest_m_at_least_0.95": _claim(
                recalls[-1] >= 0.95),
        }}


def ablation_multisample(params: dict) -> dict:
    """Ablation: one-pass multi-sampling vs repeated single samples.

    Section 5.3: sending r paths down the tree together beats r single
    descents, because shared path prefixes are paid once.
    """
    namespace, n = params["namespace"], params["set_size"]
    repeats = params["repeats"]
    planned = plan_tree(namespace, n, 0.9)
    tree = TreeCache().tree(namespace, planned.m, planned.depth)
    secret = make_query_set(namespace, n, "uniform", rng=4)
    query = BloomFilter.from_items(secret, tree.family)
    sampler = BSTSampler(tree, rng=4)
    rows = []
    for r in params["r_values"]:
        single_inter = 0
        start = time.perf_counter()
        for __ in range(repeats):
            for __ in range(r):
                single_inter += sampler.sample(query).ops.intersections
        single_ms = (time.perf_counter() - start) / repeats * 1e3

        multi_inter = 0
        start = time.perf_counter()
        for __ in range(repeats):
            multi_inter += sampler.sample_many(query, r).ops.intersections
        multi_ms = (time.perf_counter() - start) / repeats * 1e3

        rows.append({
            "r": r,
            "single_intersections": round(single_inter / repeats, 1),
            "multi_intersections": round(multi_inter / repeats, 1),
            "intersection_saving": round(1 - multi_inter / single_inter, 3),
            "single_ms": round(single_ms, 3),
            "multi_ms": round(multi_ms, 3),
            "speedup": round(single_ms / multi_ms, 2),
        })
    savings = [r["intersection_saving"] for r in rows]
    return {"tables": [_table(
        f"Ablation: one-pass multi-sample vs repeated singles "
        f"(M={namespace}, n={n})",
        "r single_intersections multi_intersections intersection_saving "
        "single_ms multi_ms speedup", rows)],
        "claims": {
            "multi_saves_intersections": _claim(all(s > 0 for s in savings)),
            "saving_grows_with_r": _claim(savings[-1] >= savings[0]),
            "multi_faster_at_largest_r": _claim(
                rows[-1]["speedup"] > 1.0, gated=False,
                speedup=rows[-1]["speedup"]),
        }}


def ablation_threshold(params: dict) -> dict:
    """Ablation: the empty-intersection threshold (Section 5.6).

    Recall vs membership cost per threshold, next to the exhaustive
    reference; the default 0.5 keeps ~all recall of a clustered set at a
    fraction of the exhaustive cost.
    """
    namespace, n = params["namespace"], params["set_size"]
    planned = plan_tree(namespace, n, 0.9)
    tree = TreeCache().tree(namespace, planned.m, planned.depth)
    rows = []
    for kind in _KINDS:
        secret = make_query_set(namespace, n, kind, rng=1)
        query = BloomFilter.from_items(secret, tree.family)
        variants = [("exhaustive", BSTReconstructor(tree, exhaustive=True))]
        variants += [(t, BSTReconstructor(tree, empty_threshold=t))
                     for t in params["thresholds"]]
        for threshold, reconstructor in variants:
            result = reconstructor.reconstruct(query)
            found = np.isin(secret, result.elements).sum()
            rows.append({
                "kind": kind,
                "threshold": threshold,
                "recall": round(float(found) / n, 3),
                "precision": round(float(found) / result.size, 3)
                if result.size else 0.0,
                "memberships": result.ops.memberships,
                "nodes": result.ops.nodes_visited,
            })
    claims = {}
    for kind in _KINDS:
        # Raising the threshold can only prune more.
        series = [r for r in rows
                  if r["kind"] == kind and r["threshold"] != "exhaustive"]
        recalls = [r["recall"] for r in series]
        costs = [r["memberships"] for r in series]
        claims[f"{kind}.recall_falls_with_threshold"] = _claim(
            recalls == sorted(recalls, reverse=True))
        claims[f"{kind}.cost_falls_with_threshold"] = _claim(
            costs == sorted(costs, reverse=True))
    clustered = {r["threshold"]: r for r in rows if r["kind"] == "clustered"}
    claims["clustered.default_threshold_recall_at_least_0.9"] = _claim(
        clustered[0.5]["recall"] >= 0.9)
    claims["clustered.default_threshold_under_half_exhaustive_cost"] = _claim(
        clustered[0.5]["memberships"]
        < clustered["exhaustive"]["memberships"] / 2)
    return {"tables": [_table(
        f"Ablation: empty-intersection threshold (M={namespace}, n={n})",
        "kind threshold recall precision memberships nodes", rows)],
        "claims": claims}
