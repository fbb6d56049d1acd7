"""Shared fixtures for the serving-subsystem suite.

One small engine configuration used everywhere, plus a deterministic
eight-set workload so served results can be compared bit-for-bit
against a reference :class:`~repro.api.BloomDB` built the same way.

Worker pools are expensive (every worker is a spawned interpreter), so
the read-mostly tests share two session-scoped servers: ``served``
(static tree) and ``dynamic_served`` (dynamic tree, for the occupancy
write endpoints).  Tests that mutate them use fresh ids or set names.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import BloomDB, EngineConfig
from repro.service import (
    AsyncReproServer,
    BatchPolicy,
    ProcessService,
    ProcessShardPool,
)

NAMESPACE = 8_000


@pytest.fixture(scope="session")
def engine_config() -> EngineConfig:
    """The engine knobs every pool and reference engine shares."""
    return EngineConfig(namespace_size=NAMESPACE, accuracy=0.9,
                        set_size=150, seed=5, plan="compiled")


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


def serve(db: BloomDB, directory, workers: int = 2, **policy):
    """Persist ``db`` into ``directory`` and wrap a pool in a server."""
    pool = ProcessShardPool.from_engine(
        db, directory, workers,
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
                      tree="dynamic", plan="compiled", seed=5,
                      occupied=occupied)
    db.add_set("alpha", rng.choice(occupied, 150, replace=False))
    directory = tmp_path_factory.mktemp("dynamic") / "engine"
    with serve(db, directory) as server:
        yield server
