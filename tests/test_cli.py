"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestPlan:
    def test_prints_parameters(self, capsys):
        assert main(["plan", "-M", "100000", "-n", "500",
                     "-a", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "filter bits m" in out
        assert "tree depth" in out
        assert "MB" in out

    def test_cost_ratio_flag(self, capsys):
        main(["plan", "-M", "100000", "-n", "500", "--cost-ratio", "1000"])
        shallow = capsys.readouterr().out
        main(["plan", "-M", "100000", "-n", "500", "--cost-ratio", "5"])
        deep = capsys.readouterr().out
        depth_of = lambda text: int(
            next(l for l in text.splitlines() if "tree depth" in l)
            .split(":")[1])
        assert depth_of(deep) > depth_of(shallow)


class TestDemo:
    def test_runs_end_to_end(self, capsys):
        assert main(["demo", "--namespace", "5000", "--set-size", "100"]) == 0
        out = capsys.readouterr().out
        assert "10 samples" in out
        assert "reconstruction" in out


class TestDemoVariants:
    def test_tree_flag_selects_backend(self, capsys):
        assert main(["demo", "--namespace", "5000", "--set-size", "100",
                     "--tree", "pruned"]) == 0
        out = capsys.readouterr().out
        assert "tree='pruned'" in out


class TestSample:
    def test_ephemeral_engine(self, capsys):
        assert main(["sample", "-M", "5000", "-n", "100", "-r", "6"]) == 0
        out = capsys.readouterr().out
        assert "samples from 'hidden'" in out
        assert "true elements" in out
        assert "intersections" in out

    def test_save_and_reload_db(self, tmp_path, capsys):
        db_dir = str(tmp_path / "engine")
        assert main(["sample", "-M", "5000", "-n", "100", "--tree",
                     "dynamic", "--save-db", db_dir]) == 0
        capsys.readouterr()
        assert main(["sample", "--db", db_dir, "-r", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 samples from 'hidden'" in out

    def test_unknown_set_in_db(self, tmp_path, capsys):
        db_dir = str(tmp_path / "engine")
        main(["sample", "-M", "5000", "-n", "100", "--save-db", db_dir])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["sample", "--db", db_dir, "--set", "nope"])


class TestReconstruct:
    def test_ephemeral_engine(self, capsys):
        assert main(["reconstruct", "-M", "5000", "-n", "100"]) == 0
        out = capsys.readouterr().out
        assert "reconstruction of 'hidden'" in out
        assert "of the true set recovered" in out

    def test_exhaustive_flag(self, capsys):
        assert main(["reconstruct", "-M", "5000", "-n", "100",
                     "--exhaustive"]) == 0
        out = capsys.readouterr().out
        assert "exhaustive" in out
        assert "100/100 of the true set recovered" in out


def save_object_layout(db, directory):
    """Save ``db`` the way releases with an object plan did: the config
    carries ``"plan": "objects"``, the tree and filters are npz files."""
    import json

    from repro.core.serialization import save_tree

    directory.mkdir(parents=True)
    config = {**db.config.to_dict(), "plan": "objects", "mutation": "delta"}
    (directory / "engine.json").write_text(
        json.dumps({"format": 1, "config": config}, indent=2))
    save_tree(db.tree, directory / "tree.npz")
    db.store.save(directory / "sets.npz")


class TestSavedEngines:
    def test_demo_save_is_served_by_sample_and_serve(self, tmp_path,
                                                      capsys):
        db_dir = tmp_path / "engine"
        assert main(["demo", "-M", "5000", "-n", "100",
                     "--save-db", str(db_dir)]) == 0
        assert sorted(p.name for p in db_dir.iterdir()) == [
            "engine.json", "plan.bst", "sets.bst"]
        capsys.readouterr()
        assert main(["sample", "--db", str(db_dir), "-r", "3"]) == 0
        assert "3 samples from 'hidden'" in capsys.readouterr().out
        assert main(["serve", "--workers", "1", "--smoke", "--requests",
                     "20", "--db", str(db_dir)]) == 0
        for command in ("sample", "serve"):
            with pytest.raises(SystemExit, match="no saved engine"):
                main([command, "--db", str(tmp_path / "nope")])

    def test_object_layout_save_loads_answers_like_the_oracle_and_serves(
            self, tmp_path):
        import numpy as np

        from repro.api import BloomDB, SampleSpec
        from repro.core.sampling import BSTSampler

        rng = np.random.default_rng(4)
        occupied = rng.choice(6_000, 1_500, replace=False).astype(np.uint64)
        db = BloomDB.plan(namespace_size=6_000, set_size=100, seed=3,
                          tree="dynamic", occupied=occupied)
        for i in range(2):
            db.add_set(f"s{i}", rng.choice(occupied, 100, replace=False))
        db_dir = tmp_path / "objects"
        save_object_layout(db, db_dir)

        loaded = BloomDB.load(db_dir)
        specs = [SampleSpec(f"s{i % 2}", 6 + i, bool(i % 3), seed=50 + i,
                            key=str(i)) for i in range(6)]
        got = loaded.sample_many(specs)
        for spec in specs:
            want = BSTSampler(db.tree, db.config.threshold,
                              np.random.default_rng(spec.seed),
                              db.config.descent).sample_many(
                db.filter(spec.name), spec.rounds, spec.replacement)
            assert want.values == got[spec.key].values
            assert want.ops == got[spec.key].ops
        assert not (db_dir / "plan.bst").exists()
        assert main(["serve", "--workers", "1", "--smoke", "--requests",
                     "20", "--db", str(db_dir)]) == 0
        assert (db_dir / "plan.bst").exists()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_compile_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "--db", "engine"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "compile" not in capsys.readouterr().out


class TestServeAndRecover:
    def test_serve_has_one_tier(self):
        serve = build_parser().parse_args(["serve"])
        assert serve.workers == 1
        assert not hasattr(serve, "shards")
        assert not hasattr(serve, "plan")

    def test_removed_ring_layout_is_refused_by_name(self, tmp_path):
        (tmp_path / "ring.json").write_text('{"format": 1, "shards": 2}')
        for argv in (["serve", "--durable", str(tmp_path), "--port", "0"],
                     ["recover", str(tmp_path)],
                     ["recover", str(tmp_path), "--inspect"]):
            with pytest.raises(SystemExit, match="durable ring"):
                main(argv)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ring.json"]
