"""The benchmark scenario registry.

A scenario is a named, parameterised workload over one
:class:`~repro.api.BloomDB` engine, tagged with the paper artefact it
corresponds to (the same territory the ``benchmarks/bench_*.py`` suite
covers interactively).  Every scenario carries two parameter sets:
``quick`` (seconds — the CI smoke scale selected by ``repro bench
--quick``) and ``full`` (the real measurement).

Scenario parameters are plain JSON-able dicts; their fingerprint keys the
result cache, so editing a scenario automatically invalidates its cached
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Collector kinds — each kind aggregates into its own BENCH_*.json file.
KINDS = ("sampling", "reconstruction", "serving")


@dataclass(frozen=True)
class Scenario:
    """One named benchmark workload.

    ``kind``
        Which collector runs it (``"sampling"`` or ``"reconstruction"``)
        and therefore which ``BENCH_*.json`` file carries its results.
    ``maps_to``
        The paper figure/table family the measurement corresponds to.
    ``quick`` / ``full``
        Parameter dicts for the two scales; see the collectors for the
        recognised keys.
    """

    name: str
    kind: str
    title: str
    maps_to: str
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
    quick=dict(_COMMON, namespace=20_000, set_size=300, num_sets=16,
               family="murmur3", tree="static", depth=10, compare_plan=True,
               rounds=64, requests=64, repeats=3),
    full=dict(_COMMON, namespace=100_000, set_size=1_000, num_sets=32,
              family="murmur3", tree="static", depth=11, compare_plan=True,
              rounds=64, requests=256, repeats=5),
))

_register(Scenario(
    name="descent_coldstart",
    kind="sampling",
    title="Descent cold start: mmap attach + first compiled batch vs. npz "
          "rebuild + first recursive batch (bit-identical results)",
    maps_to="ROADMAP north star (cold start as fast as the hardware "
            "allows)",
    quick=dict(_COMMON, namespace=100_000, set_size=300, num_sets=8,
               family="murmur3", tree="static", depth=12,
               descent_coldstart=True, rounds=32, requests=32, repeats=3),
    full=dict(_COMMON, namespace=1_000_000, set_size=1_000, num_sets=16,
              family="murmur3", tree="static", depth=14,
              descent_coldstart=True, rounds=64, requests=64, repeats=3),
))

_register(Scenario(
    name="write_churn_compiled",
    kind="sampling",
    title="Compiled sampling under id churn: epoch/delta overlay vs. the "
          "invalidate-and-recompile baseline (bit-identical results)",
    maps_to="Section 5.2 dynamic scenario + ROADMAP north star "
            "(streaming id sets)",
    quick=dict(_COMMON, namespace=120_000, set_size=500, num_sets=6,
               family="murmur3", tree="dynamic", depth=12, occupied=9_000,
               write_churn=True, churn_cycles=5, churn_fraction=0.04,
               requests=8, rounds=8, churn_repeats=2),
    full=dict(_COMMON, namespace=400_000, set_size=1_000, num_sets=12,
              family="murmur3", tree="dynamic", depth=13, occupied=40_000,
              write_churn=True, churn_cycles=10, churn_fraction=0.04,
              requests=16, rounds=16, churn_repeats=1),
))

_register(Scenario(
    name="reconstruction_sweep",
    kind="reconstruction",
    title="Reconstructing every stored set: one-pass batch vs. per-set loop",
    maps_to="Figs. 11/12 (reconstruction time)",
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
    quick=dict(_COMMON, namespace=400_000, set_size=300, num_sets=8,
               family="murmur3", tree="static", depth=13, coldstart=True,
               repeats=3),
    full=dict(_COMMON, namespace=2_000_000, set_size=1_000, num_sets=16,
              family="murmur3", tree="static", depth=14, coldstart=True,
              repeats=3),
))

_register(Scenario(
    name="coldstart_recovery",
    kind="serving",
    title="Crash-recovery cold start: snapshot load + WAL replay at 10% "
          "namespace churn (bit-identical to the pre-crash engine)",
    maps_to="ROADMAP durability direction (acknowledged writes survive "
            "kill -9)",
    quick=dict(_COMMON, namespace=40_000, set_size=300, num_sets=6,
               family="murmur3", tree="dynamic", coldstart_recovery=True,
               churn_fraction=0.10, churn_batch=512, repeats=3),
    full=dict(_COMMON, namespace=400_000, set_size=1_000, num_sets=12,
              family="murmur3", tree="dynamic", coldstart_recovery=True,
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
    quick=dict(_COMMON, namespace=20_000, set_size=300, num_sets=16,
               family="md5", tree="static", depth=4, multiproc=True,
               requests=1_000, rounds=32, workers_high=4, max_batch=256,
               max_delay_ms=2.0),
    full=dict(_COMMON, namespace=100_000, set_size=1_000, num_sets=32,
              family="md5", tree="static", depth=6, multiproc=True,
              requests=4_000, rounds=32, workers_high=4, max_batch=256,
              max_delay_ms=2.0),
))

# Robustness drill for the replicated tier: SIGKILL a shard-group
# leader under seeded read traffic and measure promotion latency
# (write-path MTTR), heal time (/readyz green again), and read
# availability through the outage — with every seeded answer gated
# byte-identical to its pre-kill value (values and OpCounters).
_register(Scenario(
    name="replicated_failover",
    kind="serving",
    title="Replicated-ring failover drill: leader kill -9 under read "
          "traffic (promotion latency, heal time, bit-identity)",
    maps_to="ROADMAP robustness direction (replicated serving, "
            "supervised failover, zero acknowledged-write loss)",
    quick=dict(_COMMON, namespace=20_000, set_size=300, num_sets=8,
               family="md5", tree="static", depth=4,
               replicated_failover=True, requests=400, rounds=8,
               shard_groups=2, replication=2),
    full=dict(_COMMON, namespace=100_000, set_size=1_000, num_sets=16,
              family="md5", tree="static", depth=6,
              replicated_failover=True, requests=2_000, rounds=16,
              shard_groups=2, replication=2),
))

_register(Scenario(
    name="serving_cheap_hash",
    kind="serving",
    title="Micro-batched serving through a 4-worker process pool with "
          "cheap hashing (murmur3, planner depth)",
    maps_to="ROADMAP north star (serving heavy concurrent traffic)",
    quick=dict(_COMMON, namespace=20_000, set_size=300, num_sets=16,
               family="murmur3", tree="static", shards=4, requests=1_000,
               rounds=8, max_batch=256, max_delay_ms=2.0),
    full=dict(_COMMON, namespace=100_000, set_size=1_000, num_sets=32,
              family="murmur3", tree="static", shards=4, requests=5_000,
              rounds=8, max_batch=256, max_delay_ms=2.0),
))


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(
            f"unknown benchmark scenario {name!r} (known: {known})"
        ) from None


def scenario_names(kind: str | None = None) -> list[str]:
    """Registered scenario names, optionally filtered by kind."""
    return sorted(
        name for name, sc in SCENARIOS.items()
        if kind is None or sc.kind == kind
    )
