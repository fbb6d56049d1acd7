"""The one benchmark harness: the paper's evaluation and the perf gates.

Its scenario registry holds the paper's tables, figures and ablations
(kind ``paper``, each with a verdict per claim) next to the kernel and
serving scenarios that time the :class:`~repro.api.BloomDB` facade and
its fast paths.  The runner emits one machine-readable
``BENCH_<kind>.json`` per kind at the repo root, with a JSON result
cache keyed on the parameters and the package source (the cached
``ExperimentEngine`` pattern of trolando/rtl-experiments), and appends
each measuring run to ``BENCH_history.json``, the cross-PR trajectory.

Entry points: the ``repro bench`` CLI subcommand, or::

    from repro.bench import BenchRunner
    payloads = BenchRunner(quick=True).run()
"""

from repro.bench.runner import (
    BENCH_FILES,
    HISTORY_FILE,
    HISTORY_KEY_PREFIXES,
    HISTORY_SCHEMA,
    SCHEMA_VERSION,
    BenchRunner,
    atomic_write_json,
    load_history,
    validate_payload,
)
from repro.bench.scenarios import SCENARIOS, Scenario, get_scenario

__all__ = [
    "BENCH_FILES",
    "HISTORY_FILE",
    "HISTORY_KEY_PREFIXES",
    "HISTORY_SCHEMA",
    "SCHEMA_VERSION",
    "BenchRunner",
    "SCENARIOS",
    "Scenario",
    "atomic_write_json",
    "get_scenario",
    "load_history",
    "validate_payload",
]
