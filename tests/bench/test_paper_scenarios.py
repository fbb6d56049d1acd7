"""The ``paper`` scenarios: the paper's tables, figures and ablations.

Every paper collector runs once, through the runner, at tiny params in a
swapped registry; the tests check its tables and claim names.
"""

import dataclasses

import pytest

from repro.__main__ import main
from repro.bench import SCENARIOS, BenchRunner

PAPER = sorted(name for name, s in SCENARIOS.items() if s.kind == "paper")

_GRID = dict(grid=[[20_000, [64]]], accuracies=[0.8])

#: Params small enough to run every paper collector in a few seconds.
TINY = {
    "paper_table2_table3_parameters": dict(
        namespaces=[1_000_000, 10_000_000], set_size=1_000,
        accuracies=[0.9, 1.0]),
    "paper_table4_creation_time": dict(
        namespaces=[2_000, 8_000], accuracies=[0.8], set_size=100),
    "paper_table5_chi_squared": dict(
        namespace=20_000, set_sizes=[16], accuracies=[0.9],
        rounds_per_element=5),
    "paper_table6_measured_accuracy": dict(
        namespaces=[20_000], accuracies=[0.9], set_size=100, rounds=60),
    "paper_fig3_fig4_sampling_ops": dict(_GRID, rounds=10, da_rounds=1),
    "paper_fig5_fig6_sampling_time": dict(_GRID, rounds=10, da_rounds=1),
    "paper_fig7_hash_families": dict(
        namespace=5_000, set_size=64, accuracies=[0.5, 1.0], rounds=5,
        da_rounds=1),
    "paper_fig8_9_10_reconstruction_ops": dict(_GRID, rounds=1),
    "paper_fig11_12_reconstruction_time": dict(_GRID, rounds=1),
    "paper_fig13_14_15_pruned_namespace": dict(
        namespace=50_000, users=2_000, hashtags=8, depth=5, accuracy=0.8,
        fractions=[0.2, 0.6], rounds=5),
    "paper_prop52_sample_quality": dict(
        namespace=20_000, set_size=50, rounds=100, multipliers=[1, 8]),
    "ablation_depth": dict(namespace=20_000, set_size=100, rounds=5,
                           depth_offsets=[-2, 0, 2]),
    "ablation_estimator_snr": dict(namespace=20_000, set_size=50,
                                   rounds=50, multipliers=[1, 16]),
    "ablation_multisample": dict(namespace=20_000, set_size=100,
                                 r_values=[2, 8], repeats=1),
    "ablation_threshold": dict(namespace=20_000, set_size=100,
                               thresholds=[0.1, 0.5, 2.0]),
}

#: Claim names per scenario: ``{kind}`` expands to uniform and
#: clustered; ``~`` marks a wall-clock claim, recorded but not gated.
CLAIMS = {
    "paper_table2_table3_parameters": "m_within_0.5pct_of_paper",
    "paper_table4_creation_time": "~largest_M_builds_slowest",
    "paper_table5_chi_squared":
        "exact_never_starves exact_passes_in_70pct_of_cells",
    "paper_table6_measured_accuracy": "measured_within_0.15_of_target "
        "measured_within_0.08_of_model_from_0.9",
    "paper_fig3_fig4_sampling_ops":
        "{kind}.bst_memberships_below_M_over_5 {kind}.da_memberships_equal_M "
        "{kind}.bst_intersections_within_20x_height",
    "paper_fig5_fig6_sampling_time": "~{kind}.bst_faster_than_da",
    "paper_fig7_hash_families": " ".join(
        f"~accuracy_{a}.md5_slows_{what}" for a in (0.5, 1.0)
        for what in ("da_over_2x", "bst_less_than_da")),
    "paper_fig8_9_10_reconstruction_ops":
        "{kind}.da_memberships_equal_M {kind}.da_recall_is_1 "
        "{kind}.hi_recall_is_1 clustered.bst_prunes_below_M_over_3",
    "paper_fig11_12_reconstruction_time":
        "{kind}.hi_memberships_below_da {kind}.bst_memberships_at_most_da",
    "paper_fig13_14_15_pruned_namespace":
        "{kind}.memory_grows_with_fraction {kind}.memory_below_full_tree "
        "{kind}.accuracy_within_0.1_of_planned "
        "clustered_nodes_at_most_uniform",
    "paper_prop52_sample_quality": "deviation_contracts_as_m_grows "
        "starvation_contracts_as_m_grows exact_never_starves",
    "ablation_depth": "intersections_grow_with_depth "
        "memberships_fall_with_depth ~planned_depth_within_3x_of_fastest",
    "ablation_estimator_snr": "recall_grows_with_m starvation_falls_with_m "
        "recall_at_largest_m_at_least_0.95",
    "ablation_multisample": "multi_saves_intersections saving_grows_with_r "
        "~multi_faster_at_largest_r",
    "ablation_threshold":
        "{kind}.recall_falls_with_threshold {kind}.cost_falls_with_threshold "
        "clustered.default_threshold_recall_at_least_0.9 "
        "clustered.default_threshold_under_half_exhaustive_cost",
}


def _expected_claims(name: str) -> dict[str, bool]:
    """Claim name -> gated, from :data:`CLAIMS`."""
    claims = {}
    for word in CLAIMS[name].split():
        for kind in (("uniform", "clustered") if "{kind}" in word else ("",)):
            claims[word.lstrip("~").format(kind=kind)] = \
                not word.startswith("~")
    return claims


@pytest.fixture(scope="module")
def tiny_results(tmp_path_factory):
    """Every paper collector once at its tiny params, through the runner."""
    registry = {name: dataclasses.replace(SCENARIOS[name], quick=TINY[name])
                for name in PAPER}
    out = tmp_path_factory.mktemp("paper")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.bench.runner.SCENARIOS", registry)
        patch.setattr("repro.bench.scenarios.SCENARIOS", registry)
        payloads = BenchRunner(cache_dir=out / "cache", output_dir=out,
                               quick=True).run()
    assert set(payloads) == {"paper"}
    return {name: entry["result"]
            for name, entry in payloads["paper"]["scenarios"].items()}


def test_every_module_of_the_evaluation_is_a_scenario():
    assert set(PAPER) == set(TINY) == set(CLAIMS)
    assert len(PAPER) == 15


@pytest.mark.parametrize("name", PAPER)
def test_collector_reports_tables_and_claims(tiny_results, name):
    result = tiny_results[name]
    assert result["tables"]
    for table in result["tables"]:
        assert table["title"] and table["rows"]
        keys = set().union(*table["rows"])
        assert set(table["columns"]) <= keys
    verdicts = result["claims"]
    assert {claim: verdict["gated"] for claim, verdict
            in verdicts.items()} == _expected_claims(name)
    assert all(isinstance(v["holds"], bool) for v in verdicts.values())


def test_full_params_are_the_paper_grid():
    full = SCENARIOS["paper_fig3_fig4_sampling_ops"].full
    sizes = {namespace: set(ns) for namespace, ns in full["grid"]}
    assert 10_000_000 in sizes
    assert 50_000 in sizes[10_000_000]
    assert 50_000 not in sizes[100_000]  # n stays at most M / 10
    assert full["rounds"] == 10_000
    assert full["accuracies"] == [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    for name in PAPER:
        scenario = SCENARIOS[name]
        for namespace, ns in scenario.full.get("grid", ()):
            assert all(n * 10 <= namespace for n in ns)
        for key in ("rounds", "da_rounds", "rounds_per_element"):
            if key in scenario.quick:
                assert scenario.quick[key] <= scenario.full[key]


def test_bench_prints_tables_2_and_3(tmp_path, capsys):
    assert main(["bench", "--quick",
                 "--scenario", "paper_table2_table3_parameters",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "Table 3" in out
    assert "137231" in out or "137230" in out  # accuracy-1.0 row
    assert "m_within_0.5pct_of_paper: holds" in out
