"""The benchmark runner: cached execution + BENCH_*.json emission.

Modeled on the cached ``ExperimentEngine`` of trolando/rtl-experiments:
each (scenario, scale) pair owns one JSON file in the cache directory,
keyed by a fingerprint of the scenario's parameters and of the package
source.  A run first consults the cache — a hit is served instantly, a
miss (or ``--force``, or a parameter or code edit, which changes the
fingerprint) calls the scenario's collector and stores the result.
Aggregated payloads are then written to one ``BENCH_<kind>.json`` per
scenario kind in the output directory (the repo root, by default), which
is what CI uploads and what later PRs are judged against.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import time

import repro
from repro.bench.scenarios import KINDS, SCENARIOS, Scenario, get_scenario

#: Version of the emitted BENCH_*.json schema.
SCHEMA_VERSION = 1

#: Output file per collector kind.
BENCH_FILES = {kind: f"BENCH_{kind}.json" for kind in KINDS}

#: Default cache directory (git-ignored).
DEFAULT_CACHE_DIR = ".bench_cache"

#: The cross-PR perf trajectory file appended to by every ``run()``.
HISTORY_FILE = "BENCH_history.json"

#: Schema of the history file.
HISTORY_SCHEMA = 1

#: Top-level result keys copied into each history entry (the headline
#: numbers a later PR compares against, and ``--compare`` tabulates).
HISTORY_KEY_PREFIXES = ("speedup_", "throughput_")


def atomic_write_json(path, obj, *, trailing_newline: bool = True) -> None:
    """Write JSON to ``path`` via a temp file + atomic rename.

    The emitted BENCH files are cross-PR state: ``BENCH_history.json``
    in particular is the *only* copy of every earlier run's numbers, and
    the previous plain ``write_text`` truncated the file before writing
    — a crash (or a second ``repro bench`` racing the first) in that
    window destroyed the whole trajectory.  Writing a sibling temp file
    and ``os.replace``-ing it in means any reader, at any instant, sees
    either the complete old document or the complete new one — the same
    discipline the engine applies to its snapshots and the serving tier
    to its ``EPOCH`` file.
    """
    import os

    path = pathlib.Path(path)
    text = json.dumps(obj, indent=2) + ("\n" if trailing_newline else "")
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # replace failed/raised: never leave litter
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


@functools.lru_cache(maxsize=None)
def _source_hash() -> str:
    """SHA-256 over the path and bytes of every ``repro/**/*.py`` file."""
    root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _fingerprint(scenario: Scenario, quick: bool) -> str:
    """Cache key: parameters + schema + package source, order-independent.

    The source hash is included so any change to the code a collector
    runs invalidates its cached measurements — the emitted files are the
    perf baseline later PRs are judged against, and must never silently
    carry numbers from older code.
    """
    blob = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "source": _source_hash(),
            "kind": scenario.kind,
            "params": scenario.params(quick),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class BenchRunner:
    """Runs benchmark scenarios with a JSON result cache.

    ``quick`` selects the smoke-scale parameters; ``force`` ignores (and
    overwrites) cached results.
    """

    def __init__(
        self,
        cache_dir=DEFAULT_CACHE_DIR,
        output_dir=".",
        quick: bool = False,
        force: bool = False,
    ):
        self.cache_dir = pathlib.Path(cache_dir)
        self.output_dir = pathlib.Path(output_dir)
        self.quick = bool(quick)
        self.force = bool(force)

    @property
    def mode(self) -> str:
        """Scale label recorded in every payload."""
        return "quick" if self.quick else "full"

    # -- cache ----------------------------------------------------------------

    def _cache_path(self, scenario: Scenario) -> pathlib.Path:
        return self.cache_dir / f"{scenario.name}__{self.mode}.json"

    def _load_cached(self, scenario: Scenario) -> dict | None:
        """A cached entry, or ``None`` on miss / fingerprint mismatch."""
        path = self._cache_path(scenario)
        if self.force or not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
        except (ValueError, OSError):
            return None
        if entry.get("fingerprint") != _fingerprint(scenario, self.quick):
            return None
        return entry

    # -- execution ------------------------------------------------------------

    def run_scenario(self, scenario: Scenario) -> dict:
        """Run (or load) one scenario; returns its payload entry."""
        cached = self._load_cached(scenario)
        if cached is not None:
            entry = dict(cached)
            entry["cached"] = True
            return entry
        start = time.perf_counter()
        result = scenario.collector(scenario.params(self.quick))
        elapsed = time.perf_counter() - start
        entry = {
            "fingerprint": _fingerprint(scenario, self.quick),
            "title": scenario.title,
            "maps_to": scenario.maps_to,
            "params": scenario.params(self.quick),
            "elapsed_s": round(elapsed, 3),
            "cached": False,
            "result": result,
        }
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self._cache_path(scenario), entry,
                          trailing_newline=False)
        return entry

    def run(self, names: list[str] | None = None) -> dict[str, dict]:
        """Run scenarios and write the aggregated ``BENCH_*.json`` files.

        ``names=None`` runs every registered scenario.  Returns the
        payloads keyed by kind; only kinds with at least one scenario in
        the selection get (re)written.
        """
        if names is None:
            names = sorted(SCENARIOS)
        selected = [get_scenario(name) for name in names]

        by_kind: dict[str, dict] = {}
        for scenario in selected:
            entry = self.run_scenario(scenario)
            payload = by_kind.setdefault(scenario.kind, {
                "schema": SCHEMA_VERSION,
                "kind": scenario.kind,
                "mode": self.mode,
                "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "scenarios": {},
            })
            payload["scenarios"][scenario.name] = entry

        self.output_dir.mkdir(parents=True, exist_ok=True)
        for kind, payload in by_kind.items():
            errors = validate_payload(payload)
            if errors:  # defence in depth: never emit a malformed file
                raise RuntimeError(
                    f"internal error: invalid {kind} payload: {errors}")
            atomic_write_json(self.output_dir / BENCH_FILES[kind], payload)
        self._append_history(by_kind)
        return by_kind

    # -- perf trajectory ---------------------------------------------------------

    def _append_history(self, by_kind: dict[str, dict]) -> None:
        """Append one run entry to the ``BENCH_history.json`` trajectory.

        The history is the regression trail across PRs: every run adds
        a compact entry (version, mode, per-scenario headline speedups /
        throughputs and elapsed times), so a perf regression shows up as
        a visible drop between consecutive entries instead of silently
        overwriting the only copy of the previous numbers.  Cached
        results are older runs' numbers: they are left out, and a run
        served wholly from the cache appends nothing.
        """
        entry = {
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "version": repro.__version__,
            "mode": self.mode,
            "scenarios": {},
        }
        for kind, payload in sorted(by_kind.items()):
            for name, scenario_entry in payload["scenarios"].items():
                if scenario_entry["cached"]:
                    continue
                summary = {"kind": kind,
                           "elapsed_s": scenario_entry["elapsed_s"]}
                for key, value in scenario_entry["result"].items():
                    if key.startswith(HISTORY_KEY_PREFIXES):
                        summary[key] = value
                entry["scenarios"][name] = summary
        if not entry["scenarios"]:
            return
        path = self.output_dir / HISTORY_FILE
        history = load_history(path)
        history["runs"].append(entry)
        atomic_write_json(path, history)


def load_history(path) -> dict:
    """Read a ``BENCH_history.json`` (an empty skeleton if absent/corrupt)."""
    path = pathlib.Path(path)
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except ValueError:
            history = None
        if (isinstance(history, dict)
                and history.get("schema") == HISTORY_SCHEMA
                and isinstance(history.get("runs"), list)):
            return history
    return {"schema": HISTORY_SCHEMA, "runs": []}


def validate_payload(payload: dict) -> list[str]:
    """Schema check for a BENCH_*.json payload; returns a list of errors.

    Used by the harness before writing, by the test suite on the emitted
    files, and available to CI as a gate.
    """
    errors = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != SCHEMA_VERSION:
        errors.append(f"schema must be {SCHEMA_VERSION}")
    if payload.get("kind") not in KINDS:
        errors.append(f"kind must be one of {KINDS}")
    if payload.get("mode") not in ("quick", "full"):
        errors.append("mode must be 'quick' or 'full'")
    scenarios = payload.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        return errors + ["scenarios must be a non-empty object"]
    for name, entry in scenarios.items():
        where = f"scenarios[{name!r}]"
        if not isinstance(entry, dict):
            errors.append(f"{where} is not an object")
            continue
        for key in ("fingerprint", "title", "maps_to", "params",
                    "elapsed_s", "cached", "result"):
            if key not in entry:
                errors.append(f"{where} missing {key!r}")
        if not isinstance(entry.get("result"), dict):
            errors.append(f"{where}.result is not an object")
        if not isinstance(entry.get("cached"), bool):
            errors.append(f"{where}.cached is not a bool")
    return errors
