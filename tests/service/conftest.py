"""Shared fixtures for the serving-subsystem suite.

One small engine configuration used everywhere, plus a deterministic
eight-set workload so served results can be compared bit-for-bit
against a reference :class:`~repro.api.BloomDB` built the same way.

Worker pools are expensive (every worker is a spawned interpreter), so
the read-mostly tests share two session-scoped servers: ``served``
(static tree) and ``dynamic_served`` (dynamic tree, for the occupancy
write endpoints).  Tests that mutate them use fresh ids or set names.
The fault suites (failover, chaos) build their own small pools from the
``fault_*`` fixtures below.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import BloomDB, EngineConfig, SampleSpec
from repro.service import (
    AsyncReproServer,
    BatchPolicy,
    ProcessService,
    ProcessShardPool,
)
from repro.service.client import encode_result

NAMESPACE = 8_000


@pytest.fixture(scope="session")
def engine_config() -> EngineConfig:
    """The engine knobs every pool and reference engine shares."""
    return EngineConfig(namespace_size=NAMESPACE, accuracy=0.9,
                        set_size=150, seed=5)


@pytest.fixture(scope="session")
def workload() -> list[tuple[str, np.ndarray]]:
    """The deterministic (name, ids) pairs every consumer loads."""
    rng = np.random.default_rng(42)
    return [
        (f"set{i}", rng.choice(NAMESPACE, 150,
                               replace=False).astype(np.uint64))
        for i in range(8)
    ]


@pytest.fixture(scope="session")
def reference_db(engine_config, workload) -> BloomDB:
    """The direct engine served results must match bit-for-bit."""
    db = BloomDB.from_config(engine_config)
    for name, ids in workload:
        db.add_set(name, ids)
    return db


def serve(db: BloomDB, directory, workers: int = 2,
          hang_timeout_s: float | None = None, **policy):
    """Persist ``db`` into ``directory`` and wrap a pool in a server."""
    pool = ProcessShardPool.from_engine(
        db, directory, workers, hang_timeout_s=hang_timeout_s,
        policy=BatchPolicy(**{"max_delay_ms": 1.0, **policy}))
    return AsyncReproServer(ProcessService(pool), port=0)


@pytest.fixture(scope="session")
def served(reference_db, tmp_path_factory):
    """A running 2-worker server over the static reference engine."""
    directory = tmp_path_factory.mktemp("served") / "engine"
    with serve(reference_db, directory) as server:
        yield server


@pytest.fixture(scope="session")
def dynamic_served(tmp_path_factory):
    """A running 2-worker server over a dynamic tree holding ``alpha``."""
    rng = np.random.default_rng(12)
    occupied = np.sort(rng.choice(NAMESPACE, 1_000,
                                  replace=False).astype(np.uint64))
    db = BloomDB.plan(namespace_size=NAMESPACE, accuracy=0.9, set_size=150,
                      tree="dynamic", seed=5, occupied=occupied)
    db.add_set("alpha", rng.choice(occupied, 150, replace=False))
    directory = tmp_path_factory.mktemp("dynamic") / "engine"
    with serve(db, directory) as server:
        yield server


# -- failover and chaos fixtures ----------------------------------------------
#
# One compiled/delta dynamic-tree configuration and a six-set workload
# for the fault suites, plus helpers comparing pool answers bit-for-bit
# against the parent leader engine.  Pools there are small and fast: a
# 50 ms heartbeat, 1 s hang timeout, two to three workers.

#: Tight-but-safe deadline for respawn / reroute / readiness polls.
DEADLINE_S = 30.0


@pytest.fixture(scope="session")
def fault_config() -> EngineConfig:
    """Engine knobs shared by every fault-suite pool and reference."""
    return EngineConfig(namespace_size=NAMESPACE, accuracy=0.9,
                        set_size=150, seed=5, tree="dynamic")


@pytest.fixture(scope="session")
def fault_workload() -> list[tuple[str, np.ndarray]]:
    """Deterministic (name, ids) pairs every fault-suite pool loads."""
    rng = np.random.default_rng(42)
    return [
        (f"set{i}", rng.choice(NAMESPACE, 150,
                               replace=False).astype(np.uint64))
        for i in range(6)
    ]


@pytest.fixture(scope="session")
def fault_db(fault_config, fault_workload) -> BloomDB:
    """The loaded engine each fault test saves into its own directory."""
    db = BloomDB.from_config(fault_config)
    for name, ids in fault_workload:
        db.add_set(name, ids)
    return db


@pytest.fixture()
def engine_dir(fault_db, tmp_path):
    """A fresh serving directory per test (pools mutate EPOCH/WALs)."""
    path = tmp_path / "engine"
    fault_db.save(path)
    return path


def probe(pool, name, seed=4242, rounds=3):
    """One seeded sample through the pool (wire-format dict)."""
    return pool.submit("sample", (name,), rounds=rounds, replacement=False,
                       seed=seed).result(60)


def probe_via(pool, worker, name, seed=4242, rounds=3):
    """The same seeded sample, forced through one chosen worker."""
    route = pool._route
    pool._route = lambda key: worker
    try:
        return probe(pool, name, seed=seed, rounds=rounds)
    finally:
        pool._route = route


def reference(pool, name, seed=4242, rounds=3):
    """The leader engine's answer for the same seeded sample."""
    spec = SampleSpec(name, rounds, False, seed=seed, key="ref")
    return encode_result(pool.leader.sample_many([spec]).ordered()[0])


def counter_total(pool, name) -> int:
    """Sum an exported counter across its label series."""
    return sum(pool.metrics.export()["counters"].get(name, {}).values())


def wait_until(predicate, deadline_s=DEADLINE_S, interval_s=0.05,
               message="condition not reached in time"):
    """Poll ``predicate`` until truthy; returns its value."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError(message)
