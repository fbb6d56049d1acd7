"""The benchmark scenario registry.

A scenario is a named, parameterised workload tagged with the paper
artefact it corresponds to, and the collector function that measures
it.  Every scenario carries two parameter sets: ``quick`` (the CI smoke
scale selected by ``repro bench --quick``) and ``full`` (the real
measurement; for the ``paper`` scenarios, the paper's own grid).

Scenario parameters are plain JSON-able dicts; their fingerprint keys the
result cache, so editing a scenario automatically invalidates its cached
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench import collectors, paper

#: Scenario kinds — each kind aggregates into its own BENCH_*.json file.
KINDS = ("sampling", "reconstruction", "serving", "paper")


@dataclass(frozen=True)
class Scenario:
    """One named benchmark workload.

    ``kind``
        Which ``BENCH_<kind>.json`` file carries its results.
    ``collector``
        The function that runs it: ``collector(params) -> result dict``.
    ``maps_to``
        The paper figure/table family the measurement corresponds to.
    ``quick`` / ``full``
        Parameter dicts for the two scales; see the collector for the
        recognised keys.
    """

    name: str
    kind: str
    title: str
    maps_to: str
    collector: Callable[[dict], dict]
    quick: dict
    full: dict

    def params(self, quick: bool) -> dict:
        """The parameter dict for the requested scale."""
        return dict(self.quick if quick else self.full)


_COMMON = dict(accuracy=0.9, seed=7, workload_seed=42)

SCENARIOS: dict[str, Scenario] = {}


def _register(scenario: Scenario) -> None:
    if scenario.kind not in KINDS:
        raise ValueError(f"unknown scenario kind {scenario.kind!r}")
    SCENARIOS[scenario.name] = scenario


_register(Scenario(
    name="sampling_10k",
    kind="sampling",
    title="10k sampling queries: vectorized batch vs. the scalar loop",
    maps_to="Figs. 5/6 (average sampling time)",
    collector=collectors.run_sampling,
    quick=dict(_COMMON, namespace=20_000, set_size=300, num_sets=4,
               family="murmur3", tree="static", queries=10_000,
               loop_queries=400, scalar_loop_queries=150),
    full=dict(_COMMON, namespace=100_000, set_size=1_000, num_sets=8,
              family="murmur3", tree="static", queries=10_000,
              loop_queries=4_000, scalar_loop_queries=1_000),
))

_register(Scenario(
    name="sampling_pruned_sparse",
    kind="sampling",
    title="Sampling over a sparse namespace (pruned tree)",
    maps_to="Figs. 13/14 (pruned-namespace sampling)",
    collector=collectors.run_sampling,
    quick=dict(_COMMON, namespace=200_000, set_size=200, num_sets=4,
               family="murmur3", tree="pruned", occupied=4_000,
               queries=4_000, loop_queries=200, scalar_loop_queries=80),
    full=dict(_COMMON, namespace=2_000_000, set_size=1_000, num_sets=8,
              family="murmur3", tree="pruned", occupied=40_000,
              queries=10_000, loop_queries=2_000, scalar_loop_queries=400),
))

_register(Scenario(
    name="sampling_hash_families",
    kind="sampling",
    title="Per-family batched hashing throughput (kernel microbenchmark)",
    maps_to="Fig. 7 (hash-family trade-offs)",
    collector=collectors.run_sampling_families,
    quick=dict(_COMMON, namespace=20_000, set_size=300, num_sets=2,
               families=["simple", "murmur3", "md5"], tree="static",
               hash_batch=20_000, queries=1_000, loop_queries=0,
               scalar_loop_queries=0),
    full=dict(_COMMON, namespace=100_000, set_size=1_000, num_sets=4,
              families=["simple", "murmur3", "md5"], tree="static",
              hash_batch=100_000, queries=10_000, loop_queries=0,
              scalar_loop_queries=0),
))

_register(Scenario(
    name="descent_compiled_vs_recursive",
    kind="sampling",
    title="Batched multi-sample descent: compiled flat-array plan vs. the "
          "recursive object-graph sampler (bit-identical results)",
    maps_to="Figs. 5/6 (sampling time) + ROADMAP north star",
    collector=collectors.run_descent_compiled,
    quick=dict(_COMMON, namespace=20_000, set_size=300, num_sets=16,
               family="murmur3", tree="static", depth=10,
               rounds=64, requests=64, repeats=3),
    full=dict(_COMMON, namespace=100_000, set_size=1_000, num_sets=32,
              family="murmur3", tree="static", depth=11,
              rounds=64, requests=256, repeats=5),
))

_register(Scenario(
    name="descent_coldstart",
    kind="sampling",
    title="Descent cold start: mmap attach + first compiled batch vs. npz "
          "rebuild + first recursive batch (bit-identical results)",
    maps_to="ROADMAP north star (cold start as fast as the hardware "
            "allows)",
    collector=collectors.run_descent_coldstart,
    quick=dict(_COMMON, namespace=100_000, set_size=300, num_sets=8,
               family="murmur3", tree="static", depth=12,
               rounds=32, requests=32, repeats=3),
    full=dict(_COMMON, namespace=1_000_000, set_size=1_000, num_sets=16,
              family="murmur3", tree="static", depth=14,
              rounds=64, requests=64, repeats=3),
))

_register(Scenario(
    name="write_churn_compiled",
    kind="sampling",
    title="Compiled sampling under id churn: epoch/delta overlay vs. the "
          "invalidate-and-recompile baseline (bit-identical results)",
    maps_to="Section 5.2 dynamic scenario + ROADMAP north star "
            "(streaming id sets)",
    collector=collectors.run_write_churn,
    quick=dict(_COMMON, namespace=120_000, set_size=500, num_sets=6,
               family="murmur3", tree="dynamic", depth=12, occupied=9_000,
               churn_cycles=5, churn_fraction=0.04,
               requests=8, rounds=8, churn_repeats=2),
    full=dict(_COMMON, namespace=400_000, set_size=1_000, num_sets=12,
              family="murmur3", tree="dynamic", depth=13, occupied=40_000,
              churn_cycles=10, churn_fraction=0.04,
              requests=16, rounds=16, churn_repeats=1),
))

_register(Scenario(
    name="reconstruction_sweep",
    kind="reconstruction",
    title="Reconstructing every stored set: one-pass batch vs. per-set loop",
    maps_to="Figs. 11/12 (reconstruction time)",
    collector=collectors.run_reconstruction,
    quick=dict(_COMMON, namespace=20_000, set_size=300, num_sets=8,
               family="murmur3", tree="static", repeats=3,
               scalar_repeats=1, scalar_sets=2),
    full=dict(_COMMON, namespace=100_000, set_size=1_000, num_sets=16,
              family="murmur3", tree="static", repeats=5,
              scalar_repeats=1, scalar_sets=2),
))

_register(Scenario(
    name="reconstruction_md5",
    kind="reconstruction",
    title="Reconstruction under the expensive MD5 family (shared hashing)",
    maps_to="Figs. 8-10 (reconstruction ops / slow-family cost model)",
    collector=collectors.run_reconstruction,
    quick=dict(_COMMON, namespace=8_000, set_size=200, num_sets=6,
               family="md5", tree="static", repeats=2, scalar_repeats=1,
               scalar_sets=3),
    full=dict(_COMMON, namespace=50_000, set_size=500, num_sets=12,
              family="md5", tree="static", repeats=3, scalar_repeats=1,
              scalar_sets=3),
))


# The gated serving scenario uses the MD5 family and a shallow tree:
# big leaves make per-request candidate hashing the dominant cost, which
# is precisely the work micro-batching amortises across a coalesced
# batch (one frontier pass per dispatch).  The coalesced path runs
# through a ``shards``-worker process pool.  The cheap-hash companion
# scenario below reports the honest murmur3 number, where the
# irreducible per-request descent bounds the win.
_register(Scenario(
    name="serving_mixed_4shards",
    kind="serving",
    title="Micro-batched serving through a 4-worker process pool vs. the "
          "naive one-request-per-call loop (MD5 family, shallow tree)",
    maps_to="ROADMAP north star (serving heavy concurrent traffic)",
    collector=collectors.run_serving,
    quick=dict(_COMMON, namespace=20_000, set_size=300, num_sets=16,
               family="md5", tree="static", depth=4, shards=4,
               requests=1_000, rounds=8, max_batch=256, max_delay_ms=2.0),
    full=dict(_COMMON, namespace=100_000, set_size=1_000, num_sets=32,
              family="md5", tree="static", depth=6, shards=4,
              requests=5_000, rounds=8, max_batch=256, max_delay_ms=2.0),
))

_register(Scenario(
    name="coldstart_mmap",
    kind="serving",
    title="Serve cold start: mmap'd compiled plan vs. npz object-graph "
          "rebuild (load + first seeded sample batch)",
    maps_to="ROADMAP north star (cold start as fast as the hardware allows)",
    collector=collectors.run_coldstart,
    quick=dict(_COMMON, namespace=400_000, set_size=300, num_sets=8,
               family="murmur3", tree="static", depth=13, repeats=3),
    full=dict(_COMMON, namespace=2_000_000, set_size=1_000, num_sets=16,
              family="murmur3", tree="static", depth=14, repeats=3),
))

_register(Scenario(
    name="coldstart_recovery",
    kind="serving",
    title="Crash-recovery cold start: snapshot load + WAL replay at 10% "
          "namespace churn (bit-identical to the pre-crash engine)",
    maps_to="ROADMAP durability direction (acknowledged writes survive "
            "kill -9)",
    collector=collectors.run_coldstart_recovery,
    quick=dict(_COMMON, namespace=40_000, set_size=300, num_sets=6,
               family="murmur3", tree="dynamic",
               churn_fraction=0.10, churn_batch=512, repeats=3),
    full=dict(_COMMON, namespace=400_000, set_size=1_000, num_sets=12,
              family="murmur3", tree="dynamic",
              churn_fraction=0.10, churn_batch=1_024, repeats=3),
))

# Gated scale-out scenario for the process pool: worker processes
# escape the GIL, so hash-heavy sampling (MD5, shallow tree — the same
# compute profile as serving_mixed_4shards) should scale near-linearly
# with processes.  The gate is >= 2x aggregate throughput 1 -> 4
# workers on the shared static compiled plan, with every result
# bit-identical to direct engine calls.
_register(Scenario(
    name="serving_multiproc",
    kind="serving",
    title="Process-pool serving scale-out: 4 worker processes over one "
          "shared mmap plan vs. 1 (bit-identical to direct calls)",
    maps_to="ROADMAP north star (serving heavy concurrent traffic beyond "
            "the GIL)",
    collector=collectors.run_serving_multiproc,
    quick=dict(_COMMON, namespace=20_000, set_size=300, num_sets=16,
               family="md5", tree="static", depth=4,
               requests=1_000, rounds=32, workers_high=4, max_batch=256,
               max_delay_ms=2.0),
    full=dict(_COMMON, namespace=100_000, set_size=1_000, num_sets=32,
              family="md5", tree="static", depth=6,
              requests=4_000, rounds=32, workers_high=4, max_batch=256,
              max_delay_ms=2.0),
))

# Robustness drill for the process pool: SIGKILL the owner of a set
# under seeded read traffic and measure reroute time (the first of its
# reads answered by another worker), heal time (/readyz green again),
# and read availability through the outage — with every seeded answer
# gated byte-identical to its pre-kill value (values and OpCounters).
# The name is kept from the replica-group drill it replaced, so its
# history series continues.
_register(Scenario(
    name="replicated_failover",
    kind="serving",
    title="Worker failover drill: owner kill -9 under read traffic "
          "(reroute time, heal time, bit-identity)",
    maps_to="ROADMAP robustness direction (every worker a supervised "
            "replica, zero acknowledged-write loss)",
    collector=collectors.run_replicated_failover,
    quick=dict(_COMMON, namespace=20_000, set_size=300, num_sets=8,
               family="md5", tree="static", depth=4,
               requests=400, rounds=8, workers=4),
    full=dict(_COMMON, namespace=100_000, set_size=1_000, num_sets=16,
              family="md5", tree="static", depth=6,
              requests=2_000, rounds=16, workers=4),
))

_register(Scenario(
    name="serving_cheap_hash",
    kind="serving",
    title="Micro-batched serving through a 4-worker process pool with "
          "cheap hashing (murmur3, planner depth)",
    maps_to="ROADMAP north star (serving heavy concurrent traffic)",
    collector=collectors.run_serving,
    quick=dict(_COMMON, namespace=20_000, set_size=300, num_sets=16,
               family="murmur3", tree="static", shards=4, requests=1_000,
               rounds=8, max_batch=256, max_delay_ms=2.0),
    full=dict(_COMMON, namespace=100_000, set_size=1_000, num_sets=32,
              family="murmur3", tree="static", shards=4, requests=5_000,
              rounds=8, max_batch=256, max_delay_ms=2.0),
))


# -- the paper's evaluation (Section 7) ---------------------------------------
# ``full`` (``quick`` with the overrides given) is the paper's grid: M up
# to 1e7, n up to 50 000 (n <= M / 10), 10 000 sampling rounds; hours.

_ACCURACIES = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
_QUICK_ACCURACIES = [0.5, 0.8, 1.0]
_QUICK_GRID = [[100_000, [100, 1_000]]]
_PAPER_GRID = [[100_000, [100, 1_000, 10_000]],
               [1_000_000, [100, 1_000, 10_000, 50_000]],
               [10_000_000, [100, 1_000, 10_000, 50_000]]]


def _paper(name: str, maps_to: str, title: str, collector, quick: dict,
           **full) -> None:
    _register(Scenario(name=name, kind="paper", title=title,
                       maps_to=maps_to, collector=collector, quick=quick,
                       full=dict(quick, **full)))


_paper("paper_table2_table3_parameters", "Tables 2 and 3",
       "Planner outputs m, depth, M_perp and memory against the paper's m",
       paper.table2_table3_parameters,
       dict(namespaces=[1_000_000, 10_000_000], set_size=1_000,
            accuracies=_ACCURACIES))
_paper("paper_table4_creation_time", "Table 4",
       "BloomSampleTree creation time across namespaces and accuracies",
       paper.table4_creation_time,
       dict(namespaces=[100_000], accuracies=[0.5, 0.8], set_size=1_000),
       namespaces=[100_000, 1_000_000, 10_000_000],
       accuracies=_ACCURACIES[:-1])
_paper("paper_table5_chi_squared", "Table 5",
       "Chi-squared uniformity p-values, descent and exact samplers",
       paper.table5_chi_squared,
       dict(namespace=100_000, set_sizes=[100, 1_000],
            accuracies=[0.5, 1.0], rounds_per_element=30),
       namespace=10_000_000, rounds_per_element=130)
_paper("paper_table6_measured_accuracy", "Table 6",
       "Measured sampling accuracy against the desired accuracy",
       paper.table6_measured_accuracy,
       dict(namespaces=[100_000], accuracies=_QUICK_ACCURACIES,
            set_size=1_000, rounds=500),
       namespaces=[100_000, 1_000_000, 10_000_000],
       accuracies=_ACCURACIES, rounds=5_000)
_paper("paper_fig3_fig4_sampling_ops", "Figs. 3 and 4",
       "Intersections and membership queries per sample, BST vs DA",
       paper.fig3_fig4_sampling_ops,
       dict(grid=_QUICK_GRID, accuracies=_QUICK_ACCURACIES, rounds=100,
            da_rounds=3),
       grid=_PAPER_GRID, accuracies=_ACCURACIES, rounds=10_000,
       da_rounds=10)
_paper("paper_fig5_fig6_sampling_time", "Figs. 5 and 6",
       "Average sampling time, BST vs DA", paper.fig5_fig6_sampling_time,
       dict(grid=_QUICK_GRID, accuracies=_QUICK_ACCURACIES, rounds=30,
            da_rounds=3),
       grid=_PAPER_GRID, accuracies=_ACCURACIES, rounds=1_000, da_rounds=10)
_paper("paper_fig7_hash_families", "Fig. 7",
       "Sampling time per hash family, BST vs DA", paper.fig7_hash_families,
       dict(namespace=100_000, set_size=100, accuracies=[0.5, 1.0],
            rounds=5, da_rounds=1),
       rounds=100)
_paper("paper_fig8_9_10_reconstruction_ops", "Figs. 8, 9 and 10",
       "Reconstruction op counts, BST vs HashInvert vs DA",
       paper.fig8_9_10_reconstruction_ops,
       dict(grid=_QUICK_GRID, accuracies=[0.5, 1.0], rounds=2),
       grid=_PAPER_GRID, accuracies=_ACCURACIES, rounds=5)
_paper("paper_fig11_12_reconstruction_time", "Figs. 11 and 12",
       "Reconstruction wall-clock time, BST vs HashInvert vs DA",
       paper.fig11_12_reconstruction_time,
       dict(grid=[[100_000, [100]]], accuracies=_QUICK_ACCURACIES,
            rounds=2),
       grid=[[100_000, [100, 10_000]], [1_000_000, [100, 10_000]],
             [10_000_000, [100, 10_000]]], rounds=5)
_paper("paper_fig13_14_15_pruned_namespace",
       "Figs. 13, 14 and 15 (Section 8)",
       "Pruned-tree time, memory and accuracy vs namespace fraction "
       "(synthetic Twitter stand-in)", paper.fig13_14_15_pruned_namespace,
       dict(namespace=2_200_000, users=72_000, hashtags=120, depth=7,
            accuracy=0.8, fractions=[0.1, 0.5, 0.9], rounds=50),
       fractions=[0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
       rounds=1_000)
_paper("paper_prop52_sample_quality", "Proposition 5.2",
       "Leaf-arrival deviation of the descent and exact samplers vs eps(m)",
       paper.prop52_sample_quality,
       dict(namespace=100_000, set_size=500, rounds=4_000,
            multipliers=[1, 8, 32]),
       rounds=15_000)
_paper("ablation_depth", "Section 5.4 (depth / leaf-capacity trade-off)",
       "Sampling cost across tree depths around the planner's pick",
       paper.ablation_depth,
       dict(namespace=100_000, set_size=1_000, rounds=20,
            depth_offsets=[-4, -2, 0, 2, 4]),
       rounds=500)
_paper("ablation_estimator_snr",
       "Section 5.5 (the intersection estimator's noise floor)",
       "Starvation and reconstruction recall vs filter size m",
       paper.ablation_estimator_snr,
       dict(namespace=100_000, set_size=200, rounds=2_000,
            multipliers=[1, 4, 16, 64]),
       rounds=8_000)
_paper("ablation_multisample", "Section 5.3 (multi-sample descent)",
       "One-pass multi-sampling vs repeated single samples",
       paper.ablation_multisample,
       dict(namespace=100_000, set_size=1_000, r_values=[2, 8, 32, 128],
            repeats=5),
       set_size=10_000)
_paper("ablation_threshold", "Section 5.6 (the empty-intersection threshold)",
       "Reconstruction recall vs cost across empty-intersection thresholds",
       paper.ablation_threshold,
       dict(namespace=100_000, set_size=1_000,
            thresholds=[0.1, 0.5, 1.0, 2.0, 5.0]),
       namespace=10_000_000)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(
            f"unknown benchmark scenario {name!r} (known: {known})"
        ) from None
