"""Cross-process metric aggregation: exact fleet totals, kill-9 safe.

Workers ship cumulative metric deltas to the leader on the result pipe
*before* the results they cover, so any scrape taken after a future
resolves has counted that request.  The leader keys each worker's
cumulative export by shard id, which makes the fleet totals — and the
per-worker ``{worker="NN"}`` series — monotone across a SIGKILL and
respawn: the dead worker's contribution is retained, the replacement
starts shipping fresh deltas on top.
"""

import time

import pytest

from repro.api import BloomDB, EngineConfig
from repro.obs.metrics import export_snapshot
from repro.obs.prometheus import parse_exposition, validate_exposition
from repro.service import ProcessShardPool

NAMESPACE = 8_000
_RESPAWN_DEADLINE_S = 30.0


@pytest.fixture()
def pool(workload, tmp_path):
    config = EngineConfig(namespace_size=NAMESPACE, accuracy=0.9,
                          set_size=150, seed=5, tree="dynamic")
    db = BloomDB.from_config(config)
    for name, ids in workload:
        db.add_set(name, ids)
    pool = ProcessShardPool.from_engine(db, tmp_path / "engine", 2)
    pool.start()
    yield pool
    pool.close()


def drive(pool, workload, n, seed):
    """Submit ``n`` sample requests round-robin and wait for each."""
    for i in range(n):
        name = workload[i % len(workload)][0]
        pool.submit("sample", (name,), rounds=2, replacement=False,
                    seed=seed + i).result(60)


def served_series(text):
    """(fleet_total, {worker: value}) for ``requests_served_total``."""
    families = parse_exposition(text)
    fleet = None
    workers = {}
    for _, labels, value in families["requests_served_total"]["samples"]:
        if labels:
            workers[labels["worker"]] = value
        else:
            fleet = value
    return fleet, workers


def wait_for_respawn(pool, shard, restarts_before):
    deadline = time.monotonic() + _RESPAWN_DEADLINE_S
    while time.monotonic() < deadline:
        info = pool.workers_info()[shard]
        if info["alive"] and info["restarts"] > restarts_before:
            return info
        time.sleep(0.05)
    raise AssertionError(f"shard {shard} was not respawned in time")


class TestFleetAggregation:
    def test_fleet_total_equals_driven_equals_worker_sum(self, pool,
                                                         workload):
        n = 24
        drive(pool, workload, n, seed=4000)
        text = pool.metrics_text()
        assert validate_exposition(text) == []
        fleet, workers = served_series(text)
        assert fleet == n
        assert sum(workers.values()) == n
        assert set(workers) == {"00", "01"}, "both shards took traffic"

    def test_snapshot_counters_match_the_scrape(self, pool, workload):
        drive(pool, workload, 8, seed=4400)
        snapshot = export_snapshot(pool.fleet_export())
        fleet, _ = served_series(pool.metrics_text())
        assert snapshot["counters"]["requests_served"] == fleet == 8

    def test_deep_worker_stages_reach_the_leader(self, pool, workload):
        """Descent and frontier-cache series recorded inside worker
        processes must surface in the leader's fleet scrape."""
        drive(pool, workload, 8, seed=4800)
        families = parse_exposition(pool.metrics_text())
        assert families["stage_descent_s"]["type"] == "histogram"
        misses = next(v for _, labels, v in
                      families["frontier_cache_misses_total"]["samples"]
                      if not labels)
        assert misses > 0

    def test_trace_spans_cross_the_process_boundary(self, pool, workload):
        drive(pool, workload, 6, seed=5200)
        payload = pool.trace()
        assert payload["slowest"], "leader retained no worker traces"
        spans = payload["slowest"][0]["spans"]
        assert {"queue", "batch_assembly", "execute"} <= set(spans)
        stages = payload["stages"]
        assert stages["total"]["count"] >= 6
        assert 0 <= stages["total"]["p50"] <= stages["total"]["p99"]


class TestKillNineMonotonicity:
    def test_totals_survive_sigkill_and_respawn(self, pool, workload):
        first = 16
        drive(pool, workload, first, seed=6000)
        fleet_before, workers_before = served_series(pool.metrics_text())
        assert fleet_before == first

        victim = 0
        restarts_before = pool.workers_info()[victim]["restarts"]
        assert pool.kill_worker(victim) is not None
        wait_for_respawn(pool, victim, restarts_before)

        second = 10
        drive(pool, workload, second, seed=7000)
        text = pool.metrics_text()
        assert validate_exposition(text) == []
        fleet_after, workers_after = served_series(text)

        # Exact and monotone: the dead worker's pre-kill contribution is
        # retained, the respawn's fresh deltas stack on top.
        assert fleet_after == first + second
        assert sum(workers_after.values()) == fleet_after
        for worker, value in workers_before.items():
            assert workers_after[worker] >= value

        families = parse_exposition(text)
        restarts = next(v for _, labels, v in
                        families["worker_restarts_total"]["samples"]
                        if not labels)
        assert restarts >= 1
        deaths = next(v for _, labels, v in
                      families["worker_deaths_total"]["samples"]
                      if not labels)
        assert deaths >= 1

    def test_respawn_ships_recovery_counters(self, pool, workload):
        """The replacement worker replays its log and says so."""
        drive(pool, workload, 8, seed=8000)
        victim = 1
        restarts_before = pool.workers_info()[victim]["restarts"]
        assert pool.kill_worker(victim) is not None
        wait_for_respawn(pool, victim, restarts_before)
        drive(pool, workload, 4, seed=9000)

        snapshot = export_snapshot(pool.fleet_export())
        assert snapshot["counters"]["worker_restarts"] >= 1
        assert snapshot["counters"]["requests_served"] == 12
