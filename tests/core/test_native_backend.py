"""Backend equivalence: the native replay tier vs. the NumPy reference.

The contract of :mod:`repro.core.native`: every descent backend is
bit-for-bit interchangeable.  Given the same plan, the same requests and
the same per-request RNG streams, ``backend="native"`` must produce the
same values *and* the same OpCounters as ``backend="numpy"`` — across
hash families, tree backends, replacement modes and ``DeltaPlanView``
mutation epochs — and a missing native tier must degrade to the NumPy
path silently rather than fail.
"""

import numpy as np
import pytest

from repro.api import BloomDB
from repro.api.batch import SampleSpec
from repro.core import native
from repro.core.plan import DescentRequest, descend_frontier
from repro.obs.runtime import RUNTIME

NAMESPACE = 4_000
SET_SIZE = 120
NUM_SETS = 3

FAMILIES = ["simple", "murmur3", "md5"]
BACKENDS = ["static", "pruned", "dynamic"]

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason=f"native tier unavailable: {native.native_status()['reason']}")


def build_db(family: str, tree: str, **overrides) -> BloomDB:
    rng = np.random.default_rng(11)
    occupied = None
    universe = NAMESPACE
    if tree in ("pruned", "dynamic"):
        occupied = rng.choice(NAMESPACE, size=NAMESPACE // 4,
                              replace=False).astype(np.uint64)
        universe = occupied
    db = BloomDB.plan(
        namespace_size=NAMESPACE, accuracy=0.9, set_size=SET_SIZE,
        family=family, tree=tree, seed=5, occupied=occupied, **overrides,
    )
    for i in range(NUM_SETS):
        if isinstance(universe, np.ndarray):
            ids = rng.choice(universe, size=SET_SIZE, replace=False)
        else:
            ids = rng.choice(universe, size=SET_SIZE,
                             replace=False).astype(np.uint64)
        db.add_set(f"g{i}", ids)
    return db


def assert_equivalent(plan, queries, replacement, *, descent="threshold"):
    """Same plan + streams through both backends → identical results."""
    def batch(backend):
        requests = [
            DescentRequest(query, 16 + 7 * i, replacement,
                           rng=np.random.default_rng(1000 + i))
            for i, query in enumerate(queries)
        ]
        return descend_frontier(plan, requests, descent=descent,
                                backend=backend)

    for want, got in zip(batch("numpy"), batch("native")):
        assert want.values == got.values
        assert want.ops == got.ops
        assert want.shortfall == got.shortfall


@needs_native
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("replacement", [True, False])
class TestBackendEquivalence:
    def test_base_plan_bit_identical(self, family, backend, replacement):
        db = build_db(family, backend)
        plan = db.compiled_tree()
        queries = [db.filter(name) for name in db.names()]
        for descent in ("threshold", "floored"):
            assert_equivalent(plan, queries, replacement, descent=descent)

    def test_delta_view_bit_identical(self, family, backend, replacement):
        if backend == "static":
            pytest.skip("static trees take no occupancy mutations")
        db = build_db(family, backend)
        db.current_epoch()
        rng = np.random.default_rng(77)
        free = np.setdiff1d(
            np.arange(NAMESPACE, dtype=np.uint64), db.occupied)
        # Two mutation epochs: the second inherits the first's frontier
        # rows through ``parent_frontier``, which is exactly the path
        # whose programs must rebuild against the new view.
        for step in range(2):
            if backend == "dynamic":
                db.retire_ids(rng.choice(db.occupied, size=20,
                                         replace=False))
            db.insert_ids(rng.choice(free, size=20, replace=False))
            view = db.current_epoch().view()
            queries = [db.filter(name) for name in db.names()]
            assert_equivalent(view, queries, replacement)


class TestFallbackAndResolution:
    def test_resolve_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown descent backend"):
            native.resolve_backend("cuda")

    def test_env_var_overrides_request(self, monkeypatch):
        monkeypatch.setenv("REPRO_DESCENT_BACKEND", "numpy")
        assert native.resolve_backend("native") == "numpy"

    def test_forced_fallback_is_silent_and_identical(self, monkeypatch):
        db = build_db("murmur3", "static")
        plan = db.compiled_tree()
        query = db.filter("g0")
        want = plan.sample_many(query, 40, rng=np.random.default_rng(3),
                                backend="numpy")
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        native._reset()
        try:
            assert not native.native_available()
            assert native.resolve_backend("native") == "numpy"
            got = plan.sample_many(query, 40, rng=np.random.default_rng(3),
                                   backend="native")
            assert want.values == got.values
            assert want.ops == got.ops
        finally:
            monkeypatch.delenv("REPRO_NATIVE_DISABLE")
            native._reset()

    def test_status_reports_reason_when_unavailable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        native._reset()
        try:
            status = native.native_status()
            assert status["available"] is False
            assert "REPRO_NATIVE_DISABLE" in status["reason"]
        finally:
            monkeypatch.delenv("REPRO_NATIVE_DISABLE")
            native._reset()


class TestNoopCompactKeepsCaches:
    """A no-op ``compact()`` must not cold-miss the frontier cache."""

    def specs(self):
        return [SampleSpec(f"g{i % NUM_SETS}", 12, seed=500 + i, key=str(i))
                for i in range(6)]

    def test_compact_then_sample_is_bit_equal_and_cached(self):
        db = build_db("murmur3", "static")
        before = db.sample_many(self.specs())
        warm_hits = RUNTIME.counter("frontier_cache_hits")
        warm_misses = RUNTIME.counter("frontier_cache_misses")
        noops = RUNTIME.counter("compactions_noop")

        db.compact()  # nothing mutated: must reuse the plan object

        after = db.sample_many(self.specs())
        for i in range(6):
            assert before[str(i)].values == after[str(i)].values
            assert before[str(i)].ops == after[str(i)].ops
        assert RUNTIME.counter("compactions_noop") == noops + 1
        assert RUNTIME.counter("frontier_cache_misses") == warm_misses
        assert RUNTIME.counter("frontier_cache_hits") > warm_hits

    def test_mutated_compact_still_recompiles(self):
        db = build_db("murmur3", "dynamic")
        db.current_epoch()
        plan_before = db.current_epoch().plan
        db.retire_ids(db.occupied[:10])
        db.compact()
        assert db.current_epoch().plan is not plan_before
        assert db.current_epoch().delta is None


class TestStaleRowRepair:
    """A delta epoch repairs inherited frontier rows, never cold-misses.

    Crossing a mutation epoch punches holes in the cached frontier rows
    at the epoch's dirty slots; the next batch must patch exactly those
    holes (counted as ``frontier_cache_repairs``), not re-walk the
    wavefront as a cache miss — and the repaired row must serve results
    bit-identical to an engine rebuilt from scratch at the same
    occupancy.
    """

    def specs(self):
        return [SampleSpec(f"g{i % NUM_SETS}", 12, seed=900 + i, key=str(i))
                for i in range(6)]

    def test_epoch_crossing_repairs_instead_of_missing(self):
        db = build_db("murmur3", "dynamic")
        db.current_epoch()
        db.sample_many(self.specs())  # warm the frontier cache

        rng = np.random.default_rng(33)
        free = np.setdiff1d(
            np.arange(NAMESPACE, dtype=np.uint64), db.occupied)
        # Small enough not to trip the delta-density recompile: the
        # epoch must stay an overlay for the repair path to be on trial.
        db.retire_ids(rng.choice(db.occupied, size=8, replace=False))
        db.insert_ids(rng.choice(free, size=8, replace=False))

        misses = RUNTIME.counter("frontier_cache_misses")
        repairs = RUNTIME.counter("frontier_cache_repairs")
        got = db.sample_many(self.specs())
        assert RUNTIME.counter("frontier_cache_misses") == misses
        assert RUNTIME.counter("frontier_cache_repairs") > repairs

        rebuilt = BloomDB.plan(
            namespace_size=NAMESPACE, accuracy=0.9, set_size=SET_SIZE,
            family="murmur3", tree="dynamic", seed=5,
            occupied=np.array(db.occupied))
        for name in db.names():
            rebuilt.store.install(name, db.filter(name).copy())
        want = rebuilt.sample_many(self.specs())
        for i in range(6):
            assert want[str(i)].values == got[str(i)].values
            assert want[str(i)].ops == got[str(i)].ops
