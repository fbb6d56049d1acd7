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


class TestPaperTables:
    def test_prints_both_tables(self, capsys):
        assert main(["paper-tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Table 3" in out
        assert "137231" in out or "137230" in out  # accuracy-1.0 row


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


class TestCompile:
    def test_compile_then_reload_and_sample(self, tmp_path, capsys):
        db_dir = str(tmp_path / "engine")
        main(["sample", "-M", "5000", "-n", "100", "--save-db", db_dir])
        capsys.readouterr()
        assert main(["compile", "--db", db_dir]) == 0
        out = capsys.readouterr().out
        assert "compiled" in out and "plan.bst" in out
        assert (tmp_path / "engine" / "plan.bst").exists()
        assert (tmp_path / "engine" / "sets.bst").exists()
        # The flipped engine.json loads through the compiled path and
        # still serves samples.
        assert main(["sample", "--db", db_dir, "-r", "3"]) == 0
        assert "3 samples from 'hidden'" in capsys.readouterr().out

    def test_second_compile_is_a_noop_without_force(self, tmp_path, capsys):
        db_dir = str(tmp_path / "engine")
        main(["sample", "-M", "5000", "-n", "100", "--save-db", db_dir])
        main(["compile", "--db", db_dir])
        capsys.readouterr()
        assert main(["compile", "--db", db_dir]) == 0
        assert "already holds a compiled plan" in capsys.readouterr().out
        assert main(["compile", "--db", db_dir, "--force"]) == 0
        assert "compiled" in capsys.readouterr().out

    def test_missing_engine_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="no saved engine"):
            main(["compile", "--db", str(tmp_path / "nope")])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


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
