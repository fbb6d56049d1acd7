"""BloomDB facade: end-to-end behaviour, batching, persistence."""

import numpy as np
import pytest

from repro.api import (
    BackendCapabilityError,
    BatchReport,
    BloomDB,
    EngineConfig,
)
from repro.core import (
    DynamicBloomSampleTree,
    MultiSampleResult,
    SampleResult,
    backend_key_of,
)

M = 8_192
VARIANTS = ("static", "pruned", "dynamic")


def make_db(tree="static", **kwargs):
    kwargs.setdefault("namespace_size", M)
    kwargs.setdefault("accuracy", 0.98)
    kwargs.setdefault("set_size", 128)
    kwargs.setdefault("seed", 21)
    return BloomDB.plan(tree=tree, **kwargs)


@pytest.fixture()
def ids():
    rng = np.random.default_rng(21)
    return np.sort(rng.choice(M, size=128, replace=False)).astype(np.uint64)


class TestEndToEnd:
    """The acceptance criterion: plan -> add_set -> sample, per variant."""

    @pytest.mark.parametrize("tree", VARIANTS)
    def test_plan_add_sample_chain(self, tree, ids):
        truth = set(int(x) for x in ids)
        result = make_db(tree).add_set("community", ids).sample("community")
        assert isinstance(result, SampleResult)
        assert result.value in truth

    @pytest.mark.parametrize("tree", VARIANTS)
    def test_variant_selected_by_config_string(self, tree, ids):
        db = make_db(tree)
        assert backend_key_of(db.tree) == tree
        assert db.config.tree == tree

    @pytest.mark.parametrize("tree", VARIANTS)
    def test_multi_sample(self, tree, ids):
        db = make_db(tree).add_set("community", ids)
        result = db.sample("community", r=32)
        assert isinstance(result, MultiSampleResult)
        truth = set(int(x) for x in ids)
        hits = sum(v in truth for v in result.values)
        assert hits >= 0.9 * len(result.values)

    @pytest.mark.parametrize("tree", VARIANTS)
    def test_reconstruct(self, tree, ids):
        db = make_db(tree).add_set("community", ids)
        result = db.reconstruct("community", exhaustive=True)
        truth = set(int(x) for x in ids)
        assert truth <= set(int(x) for x in result.elements)

    def test_union_and_intersection(self, ids):
        db = make_db("static")
        db.add_set("a", ids[:80]).add_set("b", ids[40:])
        union_truth = set(int(x) for x in ids)
        overlap_truth = set(int(x) for x in ids[40:80])
        assert db.sample_union(["a", "b"]).value in union_truth
        value = db.sample_intersection(["a", "b"]).value
        # Intersection sketch: overwhelmingly a true overlap element.
        assert value in union_truth
        assert value in overlap_truth or value is not None


class TestSetManagement:
    def test_names_contains_len(self, ids):
        db = make_db().add_set("a", ids[:10]).add_set("b", ids[10:20])
        assert db.names() == ["a", "b"]
        assert "a" in db and "zzz" not in db
        assert len(db) == 2

    def test_extend_and_drop(self, ids):
        db = make_db().add_set("a", ids[:10])
        db.extend_set("a", ids[10:20])
        assert all(db.contains("a", int(x)) for x in ids[:20])
        db.drop_set("a")
        assert "a" not in db

    def test_duplicate_name_rejected(self, ids):
        db = make_db().add_set("a", ids)
        with pytest.raises(KeyError):
            db.add_set("a", ids)

    def test_occupancy_synced_for_pruned(self, ids):
        db = make_db("pruned")
        assert db.occupied.size == 0
        db.add_set("a", ids)
        assert set(db.occupied.tolist()) == set(int(x) for x in ids)

    def test_static_has_no_occupancy(self, ids):
        assert make_db("static").occupied is None


class TestCapabilities:
    def test_static_rejects_occupancy_updates(self):
        db = make_db("static")
        with pytest.raises(BackendCapabilityError):
            db.insert_ids([1, 2, 3])
        with pytest.raises(BackendCapabilityError):
            db.retire_ids([1])

    def test_pruned_inserts_but_never_removes(self):
        db = make_db("pruned").insert_ids([5, 6, 7])
        assert {5, 6, 7} <= set(db.occupied.tolist())
        with pytest.raises(BackendCapabilityError):
            db.retire_ids([5])

    def test_dynamic_full_lifecycle(self, ids):
        db = make_db("dynamic").add_set("live", ids)
        victims = ids[:30]
        db.retire_ids(victims)
        gone = set(int(x) for x in victims)
        recovered = db.reconstruct("live", exhaustive=True)
        assert not (gone & set(int(x) for x in recovered.elements))


class TestBatching:
    def test_sample_many_all_sets(self, ids):
        db = make_db().add_set("a", ids[:60]).add_set("b", ids[60:])
        report = db.sample_many(r=16)
        assert isinstance(report, BatchReport)
        assert set(report) == {"a", "b"}
        assert report.requested == 32
        assert len(report["a"].values) == 16

    def test_sample_many_merges_ops(self, ids):
        db = make_db().add_set("a", ids[:60]).add_set("b", ids[60:])
        report = db.sample_many(["a", "b"], r=8)
        per_set = (report["a"].ops.intersections
                   + report["b"].ops.intersections)
        assert report.ops.intersections == per_set
        assert report.ops.intersections > 0
        row = report.as_row()
        assert row["sets"] == 2 and row["requested"] == 16

    def test_sample_many_per_set_demand(self, ids):
        db = make_db().add_set("a", ids[:60]).add_set("b", ids[60:])
        report = db.sample_many({"a": 4, "b": 12})
        assert report["a"].requested == 4
        assert report["b"].requested == 12

    def test_sample_many_rejects_bad_rounds(self, ids):
        db = make_db().add_set("a", ids)
        with pytest.raises(ValueError):
            db.sample_many(r=0)
        with pytest.raises(ValueError):
            db.sample_many({"a": -1})

    def test_sample_many_statistically_matches_singles(self, ids):
        """Batched sampling draws from the same distribution as singles.

        Compare per-element empirical frequencies of one-pass batches
        against repeated single samples over the same stored set; means
        must agree within a few standard errors.
        """
        db = make_db().add_set("community", ids)
        draws = 600
        batched = []
        while len(batched) < draws:
            batched.extend(db.sample("community", r=50).values)
        singles = []
        while len(singles) < draws:
            result = db.sample("community")
            if result.value is not None:
                singles.append(result.value)
        truth = set(int(x) for x in ids)
        hit_batched = np.mean([v in truth for v in batched[:draws]])
        hit_singles = np.mean([v in truth for v in singles[:draws]])
        assert abs(hit_batched - hit_singles) < 0.05
        # Both spread over the whole set, not a starved corner of it.
        assert len(set(batched) & truth) > 0.5 * len(truth)
        assert len(set(singles) & truth) > 0.5 * len(truth)

    def test_reconstruct_all(self, ids):
        db = make_db().add_set("a", ids[:60]).add_set("b", ids[60:])
        report = db.reconstruct_all(exhaustive=True)
        assert set(report) == {"a", "b"}
        elements = report.elements
        assert set(int(x) for x in ids[:60]) <= set(
            int(x) for x in elements["a"])
        assert report.ops.memberships > 0
        assert report.produced == sum(r.size for r in report.results.values())


class TestPersistence:
    @pytest.mark.parametrize("tree", VARIANTS)
    def test_save_load_round_trip(self, tree, ids, tmp_path):
        db = make_db(tree, family="simple", seed=4)
        db.add_set("a", ids[:60]).add_set("b", ids[60:])
        db.save(tmp_path / "engine")

        loaded = BloomDB.load(tmp_path / "engine")
        # Config, family spec and tree variant survive.
        assert loaded.config == db.config
        assert loaded.family.name == "simple"
        assert backend_key_of(loaded.tree) == tree
        # Stored sets survive bit-for-bit.
        assert loaded.names() == ["a", "b"]
        for name in ("a", "b"):
            assert np.array_equal(loaded.filter(name).bits.words,
                                  db.filter(name).bits.words)
        # And the loaded engine still serves queries.
        truth = set(int(x) for x in ids[:60])
        assert loaded.sample("a").value in truth

    def test_load_rejects_bad_format(self, tmp_path):
        db = make_db()
        path = db.save(tmp_path / "engine")
        (path / "engine.json").write_text('{"format": 99, "config": {}}')
        with pytest.raises(ValueError, match="save format"):
            BloomDB.load(path)

    def test_save_writes_the_legacy_engine_keys(self, ids, tmp_path):
        """Releases that still read ``plan`` / ``mutation`` take a save
        without them for an object save and look for ``tree.npz``."""
        import json

        path = make_db().add_set("a", ids).save(tmp_path / "engine")
        config = json.loads((path / "engine.json").read_text())["config"]
        assert (config["plan"], config["mutation"]) == ("compiled", "delta")
        assert sorted(p.name for p in path.iterdir()) == [
            "engine.json", "plan.bst", "sets.bst"]

    def test_dynamic_save_load_keeps_occupancy(self, ids, tmp_path):
        db = make_db("dynamic").add_set("a", ids)
        db.retire_ids(ids[:10])
        db.save(tmp_path / "engine")
        loaded = BloomDB.load(tmp_path / "engine")
        assert isinstance(loaded.tree, DynamicBloomSampleTree)
        assert np.array_equal(loaded.occupied, db.occupied)


class TestIntrospection:
    def test_describe(self, ids):
        db = make_db("pruned").add_set("a", ids)
        info = db.describe()
        assert info["sets"] == 1
        assert info["occupied"] == ids.size
        assert info["tree"] == "pruned"
        assert info["m"] == db.params.m

    def test_repr(self, ids):
        text = repr(make_db().add_set("a", ids))
        assert "BloomDB" in text and "sets=1" in text

    def test_from_config_equivalent_to_plan(self):
        config = EngineConfig(namespace_size=M, accuracy=0.98,
                              set_size=128, seed=21)
        a = BloomDB.from_config(config)
        b = make_db()
        assert a.config == b.config
        assert a.params == b.params

    def test_plan_accepts_and_ignores_the_legacy_knobs(self):
        legacy = make_db(plan="compiled", mutation="delta")
        assert legacy.config == make_db().config
        with pytest.raises(TypeError, match="planner"):
            make_db(planner="compiled")

    def test_sampler_for_is_reproducible(self, ids):
        db = make_db().add_set("a", ids)
        query = db.filter("a")
        first = db.sampler_for(np.random.default_rng(7)).sample(query)
        second = db.sampler_for(np.random.default_rng(7)).sample(query)
        assert first.value == second.value
