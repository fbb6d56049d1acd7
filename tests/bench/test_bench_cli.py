"""Tests for the ``repro bench`` CLI and the repro.bench harness.

Covers the satellite checklist: a smoke run on a tiny scenario, a
cache-hit on the second invocation, and schema validity of the emitted
``BENCH_*.json`` files.
"""

import dataclasses
import json

import pytest

from repro.__main__ import main
from repro.bench import (
    BENCH_FILES,
    HISTORY_FILE,
    SCHEMA_VERSION,
    SCENARIOS,
    BenchRunner,
    load_history,
    validate_payload,
)
from repro.bench.collectors import (
    run_reconstruction,
    run_sampling,
    run_serving,
    run_write_churn,
)
from repro.bench.scenarios import Scenario
from repro.bench.runner import _fingerprint

#: A scenario small enough for unit tests (sub-second end to end).
TINY = Scenario(
    name="tiny_smoke",
    kind="sampling",
    title="tiny smoke scenario (tests only)",
    maps_to="n/a",
    collector=run_sampling,
    quick=dict(namespace=2_000, set_size=50, num_sets=2, family="murmur3",
               tree="static", accuracy=0.9, seed=1, workload_seed=2,
               queries=200, loop_queries=40, scalar_loop_queries=20),
    full=dict(namespace=4_000, set_size=100, num_sets=2, family="murmur3",
              tree="static", accuracy=0.9, seed=1, workload_seed=2,
              queries=400, loop_queries=80, scalar_loop_queries=40),
)

TINY_RECON = Scenario(
    name="tiny_recon",
    kind="reconstruction",
    title="tiny reconstruction scenario (tests only)",
    maps_to="n/a",
    collector=run_reconstruction,
    quick=dict(namespace=2_000, set_size=50, num_sets=2, family="murmur3",
               tree="static", accuracy=0.9, seed=1, workload_seed=2,
               repeats=1, scalar_repeats=1, scalar_sets=1),
    full=dict(namespace=4_000, set_size=100, num_sets=3, family="murmur3",
              tree="static", accuracy=0.9, seed=1, workload_seed=2,
              repeats=1, scalar_repeats=1, scalar_sets=1),
)

TINY_SERVE = Scenario(
    name="tiny_serve",
    kind="serving",
    title="tiny serving scenario (tests only)",
    maps_to="n/a",
    collector=run_serving,
    quick=dict(namespace=2_000, set_size=50, num_sets=2, family="murmur3",
               tree="static", accuracy=0.9, seed=1, workload_seed=2,
               shards=2, requests=40, rounds=4, max_batch=64,
               max_delay_ms=1.0),
    full=dict(namespace=4_000, set_size=100, num_sets=3, family="murmur3",
              tree="static", accuracy=0.9, seed=1, workload_seed=2,
              shards=2, requests=80, rounds=4, max_batch=64,
              max_delay_ms=1.0),
)

TINY_PAPER = dataclasses.replace(  # analytic: milliseconds
    SCENARIOS["paper_table2_table3_parameters"], name="tiny_paper")


@pytest.fixture()
def tiny_registry(monkeypatch):
    """Swap the scenario registry for one tiny scenario per kind."""
    registry = {scenario.name: scenario
                for scenario in (TINY, TINY_RECON, TINY_SERVE, TINY_PAPER)}
    monkeypatch.setattr("repro.bench.runner.SCENARIOS", registry)
    monkeypatch.setattr("repro.bench.scenarios.SCENARIOS", registry)
    return registry


class TestBenchRunner:
    def test_smoke_emits_both_files(self, tiny_registry, tmp_path):
        runner = BenchRunner(cache_dir=tmp_path / "cache",
                             output_dir=tmp_path, quick=True)
        payloads = runner.run()
        assert set(payloads) == set(BENCH_FILES)
        for kind, filename in BENCH_FILES.items():
            path = tmp_path / filename
            assert path.exists(), filename
            payload = json.loads(path.read_text())
            assert validate_payload(payload) == []
            assert payload["schema"] == SCHEMA_VERSION
            assert payload["mode"] == "quick"

    def test_second_run_hits_cache(self, tiny_registry, tmp_path):
        runner = BenchRunner(cache_dir=tmp_path / "cache",
                             output_dir=tmp_path, quick=True)
        first = runner.run()
        assert not any(
            entry["cached"]
            for payload in first.values()
            for entry in payload["scenarios"].values()
        )
        second = BenchRunner(cache_dir=tmp_path / "cache",
                             output_dir=tmp_path, quick=True).run()
        assert all(
            entry["cached"]
            for payload in second.values()
            for entry in payload["scenarios"].values()
        )
        # Cached results carry the same measurements.
        for kind in first:
            for name in first[kind]["scenarios"]:
                assert (first[kind]["scenarios"][name]["result"]
                        == second[kind]["scenarios"][name]["result"])

    def test_force_reruns(self, tiny_registry, tmp_path):
        BenchRunner(cache_dir=tmp_path / "cache", output_dir=tmp_path,
                    quick=True).run()
        forced = BenchRunner(cache_dir=tmp_path / "cache",
                             output_dir=tmp_path, quick=True,
                             force=True).run()
        assert not any(
            entry["cached"]
            for payload in forced.values()
            for entry in payload["scenarios"].values()
        )

    def test_parameter_edit_invalidates_cache(self, tiny_registry, tmp_path,
                                              monkeypatch):
        runner = BenchRunner(cache_dir=tmp_path / "cache",
                             output_dir=tmp_path, quick=True)
        runner.run(["tiny_smoke"])
        tiny_registry[TINY.name] = dataclasses.replace(
            TINY, quick=dict(TINY.quick, queries=300))
        entry = BenchRunner(cache_dir=tmp_path / "cache",
                            output_dir=tmp_path,
                            quick=True).run(["tiny_smoke"])
        assert not entry["sampling"]["scenarios"]["tiny_smoke"]["cached"]

    def test_source_edit_invalidates_cache(self, tiny_registry, tmp_path,
                                           monkeypatch):
        def cached():
            payloads = BenchRunner(cache_dir=tmp_path / "cache",
                                   output_dir=tmp_path,
                                   quick=True).run(["tiny_smoke"])
            return payloads["sampling"]["scenarios"]["tiny_smoke"]["cached"]

        assert not cached()
        assert cached()  # unchanged source: a hit
        monkeypatch.setattr("repro.bench.runner._source_hash",
                            lambda: "0" * 64)
        assert not cached()  # changed source: a miss

    def test_unknown_scenario_raises(self, tiny_registry, tmp_path):
        runner = BenchRunner(cache_dir=tmp_path / "cache",
                             output_dir=tmp_path, quick=True)
        with pytest.raises(ValueError, match="unknown benchmark scenario"):
            runner.run(["no_such_scenario"])

    def test_quick_and_full_cache_separately(self, tiny_registry, tmp_path):
        quick = BenchRunner(cache_dir=tmp_path / "cache",
                            output_dir=tmp_path, quick=True)
        quick.run(["tiny_smoke"])
        full = BenchRunner(cache_dir=tmp_path / "cache",
                           output_dir=tmp_path, quick=False)
        entry = full.run(["tiny_smoke"])
        assert not entry["sampling"]["scenarios"]["tiny_smoke"]["cached"]

    def test_result_fields(self, tiny_registry, tmp_path):
        payloads = BenchRunner(cache_dir=tmp_path / "cache",
                               output_dir=tmp_path, quick=True).run()
        sampling = payloads["sampling"]["scenarios"]["tiny_smoke"]["result"]
        assert sampling["queries"] == 200
        assert sampling["batch"]["per_query_us"] > 0
        assert "speedup_batch_vs_scalar_loop" in sampling
        recon = (payloads["reconstruction"]["scenarios"]["tiny_recon"]
                 ["result"])
        assert recon["identical_to_sequential"] is True
        assert recon["batch"]["recovered"] > 0
        serving = payloads["serving"]["scenarios"]["tiny_serve"]["result"]
        assert serving["identical_to_naive"] is True
        assert serving["requests"] == 40
        assert serving["coalesced"]["errors"] == 0
        assert serving["coalesced"]["served"] == 40
        assert serving["speedup_coalesced_vs_naive"] > 0


class TestBenchHistory:
    def test_run_appends_history_entries(self, tiny_registry, tmp_path):
        from repro.bench import HISTORY_SCHEMA

        runner = BenchRunner(cache_dir=tmp_path / "cache",
                             output_dir=tmp_path, quick=True)
        runner.run(["tiny_smoke"])
        runner.run(["tiny_smoke", "tiny_recon"])
        history = load_history(tmp_path / HISTORY_FILE)
        assert history["schema"] == HISTORY_SCHEMA
        assert len(history["runs"]) == 2
        first, second = history["runs"]
        assert set(first["scenarios"]) == {"tiny_smoke"}
        # Headline numbers are copied into the trajectory entry.
        smoke = first["scenarios"]["tiny_smoke"]
        assert smoke["kind"] == "sampling"
        assert "speedup_batch_vs_scalar_loop" in smoke
        # The second run served tiny_smoke from the cache: not a new run.
        assert set(second["scenarios"]) == {"tiny_recon"}
        for entry in history["runs"]:
            assert entry["mode"] == "quick"
            assert entry["version"]

    def test_fully_cached_run_appends_nothing(self, tiny_registry, tmp_path):
        runner = BenchRunner(cache_dir=tmp_path / "cache",
                             output_dir=tmp_path, quick=True)
        runner.run(["tiny_smoke", "tiny_recon"])
        runner.run(["tiny_smoke", "tiny_recon"])
        assert len(load_history(tmp_path / HISTORY_FILE)["runs"]) == 1

    def test_corrupt_history_is_replaced_not_fatal(self, tiny_registry,
                                                   tmp_path):
        (tmp_path / HISTORY_FILE).write_text("{not json")
        BenchRunner(cache_dir=tmp_path / "cache", output_dir=tmp_path,
                    quick=True).run(["tiny_smoke"])
        history = load_history(tmp_path / HISTORY_FILE)
        assert len(history["runs"]) == 1


class TestBenchCLI:
    def test_smoke_run_writes_files(self, tiny_registry, tmp_path, capsys):
        rc = main(["bench", "--quick",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tiny_smoke" in out
        assert "BENCH_sampling.json" in out
        for filename in BENCH_FILES.values():
            assert (tmp_path / filename).exists()

    def test_cache_hit_reported(self, tiny_registry, tmp_path, capsys):
        args = ["bench", "--quick", "--scenario", "tiny_smoke",
                "--cache-dir", str(tmp_path / "cache"),
                "--output-dir", str(tmp_path)]
        main(args)
        capsys.readouterr()
        main(args)
        assert "cached" in capsys.readouterr().out

    def test_scenario_filter_writes_only_that_kind(self, tiny_registry,
                                                   tmp_path):
        main(["bench", "--quick", "--scenario", "tiny_recon",
              "--cache-dir", str(tmp_path / "cache"),
              "--output-dir", str(tmp_path)])
        assert (tmp_path / BENCH_FILES["reconstruction"]).exists()
        assert not (tmp_path / BENCH_FILES["sampling"]).exists()

    def test_list_prints_registry(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_unknown_scenario_exits_with_error(self, tiny_registry,
                                               tmp_path):
        with pytest.raises(SystemExit, match="unknown benchmark scenario"):
            main(["bench", "--quick", "--scenario", "nope",
                  "--cache-dir", str(tmp_path / "cache"),
                  "--output-dir", str(tmp_path)])

    def test_compare_prints_speedup_trajectory(self, tiny_registry,
                                               tmp_path, capsys):
        args = ["bench", "--quick", "--scenario", "tiny_smoke",
                "--cache-dir", str(tmp_path / "cache"),
                "--output-dir", str(tmp_path)]
        main(args)
        main(args + ["--force"])
        capsys.readouterr()
        rc = main(["bench", "--compare", "--output-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "tiny_smoke speedup_batch_vs_scalar_loop" in out
        # One aligned column per recorded run, headed by its version.
        from repro import __version__
        assert out.count(f"v{__version__}[q]") == 2

    def test_compare_csv_exports_long_form(self, tiny_registry,
                                           tmp_path, capsys):
        args = ["bench", "--quick", "--scenario", "tiny_smoke",
                "--cache-dir", str(tmp_path / "cache"),
                "--output-dir", str(tmp_path)]
        main(args)
        main(args + ["--force"])
        capsys.readouterr()
        csv_path = tmp_path / "trajectory.csv"
        rc = main(["bench", "--compare", "--output-dir", str(tmp_path),
                   "--csv", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ("run,generated_at,version,mode,scenario,"
                            "metric,value")
        # 2 runs x (scalar + vector) speedup metrics.
        assert len(lines) == 1 + 4
        assert any("tiny_smoke,speedup_batch_vs_scalar_loop" in line
                   for line in lines[1:])

    def test_compare_without_history_fails(self, tmp_path, capsys):
        rc = main(["bench", "--compare", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "no benchmark history" in capsys.readouterr().err

    def test_compare_with_empty_history_reports_no_runs(self, tmp_path,
                                                        capsys):
        from repro.bench import HISTORY_FILE, HISTORY_SCHEMA

        (tmp_path / HISTORY_FILE).write_text(
            json.dumps({"schema": HISTORY_SCHEMA, "runs": []}))
        rc = main(["bench", "--compare", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "no runs recorded" in capsys.readouterr().out


class TestSchemaValidation:
    def test_rejects_non_dict(self):
        assert validate_payload([]) == ["payload is not an object"]

    def test_rejects_wrong_schema_and_kind(self):
        errors = validate_payload(
            {"schema": 99, "kind": "nope", "mode": "quick",
             "scenarios": {"x": {}}})
        assert any("schema" in e for e in errors)
        assert any("kind" in e for e in errors)

    def test_rejects_missing_entry_fields(self):
        payload = {
            "schema": SCHEMA_VERSION, "kind": "sampling", "mode": "quick",
            "scenarios": {"x": {"result": {}, "cached": False}},
        }
        errors = validate_payload(payload)
        assert any("fingerprint" in e for e in errors)

    def test_fingerprint_changes_with_params(self):
        edited = dataclasses.replace(TINY, quick=dict(TINY.quick, queries=999))
        assert (_fingerprint(TINY, True) != _fingerprint(edited, True))
        assert (_fingerprint(TINY, True) != _fingerprint(TINY, False))


class TestRegisteredScenarios:
    def test_registry_is_well_formed(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.kind in BENCH_FILES
            assert callable(scenario.collector)
            # Params must be JSON-able (they are fingerprinted).
            json.dumps(scenario.quick)
            json.dumps(scenario.full)

    def test_acceptance_scenario_present(self):
        """The 10k-query scenario the acceptance criteria point at."""
        scenario = SCENARIOS["sampling_10k"]
        assert scenario.quick["queries"] == 10_000
        assert scenario.full["queries"] == 10_000


class TestWriteChurnScenario:
    def test_registered_with_churn_knobs(self):
        scenario = SCENARIOS["write_churn_compiled"]
        assert scenario.kind == "sampling"
        assert scenario.collector is run_write_churn
        for params in (scenario.quick, scenario.full):
            assert 0.0 < params["churn_fraction"] <= 0.10
            assert params["churn_repeats"] >= 1
            assert params["tree"] == "dynamic"
