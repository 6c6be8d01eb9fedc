"""Tests for the experiment harness: config validation, replication
determinism, report schema, and the command-line entry points."""

import json
import math
import runpy
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from magorder.cli import (
    SCHEMA_VERSION,
    ExperimentConfig,
    _student_t_quantile,
    main,
    run,
    selfcheck,
)
from magorder.data import load_network, save_network
from magorder.errors import ConfigError
from magorder.graph import MixedGraph


def strip_volatile(report):
    """Report dict minus wall-clock style fields, for equality checks."""
    out = report.to_dict()
    out.pop("elapsed")
    out["aggregate"] = {k: v for k, v in out["aggregate"].items()
                        if k != "wall_clock"}
    for row in out["replications"]:
        row.pop("wall_clock")
    return out


class TestExperimentConfig:
    def test_minimal_oracle_config(self):
        cfg = ExperimentConfig(graph={"kind": "er", "n": 5, "p": 0.4})
        assert cfg.tester == {"kind": "oracle"}
        assert cfg.searcher == {"kind": "hc"}
        assert cfg.replications == 1

    @pytest.mark.parametrize("raw", [
        {"graph": {"kind": "nope"}},
        {"graph": {"kind": "er", "n": 0, "p": 0.5}},
        {"graph": {"kind": "er", "n": 4.5, "p": 0.5}},
        {"graph": {"kind": "er", "n": 4, "p": 1.5}},
        {"graph": {"kind": "er", "n": 4}},
        {"graph": {"kind": "er", "n": 4, "p": "0.5"}},
        {"graph": {"kind": "file"}},
        {"graph": {"kind": "bundled"}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "tester": {"kind": "parrot"}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "tester": {"kind": "fisher_z", "alpha": 0.0}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "tester": {"kind": "fisher_z", "num_samples": 0}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "tester": {"kind": "fisher_z", "standardize": "yes"}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "sa"}},
        {"graph": {"kind": "bundled", "name": "asia"}, "latent": {}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "latent": {"fraction": 0.2, "count": 1}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "latent": {"fraction": 1.0}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "latent": {"count": -1}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "latent": {"fraction": "0.2"}},
        {"graph": {"kind": "bundled", "name": "asia"}, "replications": 0},
        {"graph": {"kind": "bundled", "name": "asia"}, "workers": 0},
        {"graph": {"kind": "bundled", "name": "asia"}, "max_sep_size": -1},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "hc", "max_iters": 5}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "tester": {"kind": "fisher_z", "samples": 100}},
        {"graph": {"kind": "bundled", "name": "asia"}, "replications": "3"},
        {"graph": {"kind": "bundled", "name": "asia"}, "seed": 1.5},
        {"graph": {"kind": "bundled", "name": "asia"}, "workers": True},
        {"graph": {"kind": "bundled", "name": "asia"}, "max_sep_size": "2"},
        {"graph": {"kind": "bundled", "name": "asia"},
         "tester": {"kind": "fisher_z", "alpha": "0.1"}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "tester": {"kind": "fisher_z", "alpha": True}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "hc", "max_iter": "5"}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "hc", "max_swap": 2.0}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "hc", "max_iter": True}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "vi", "cap": "20"}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "pg", "episodes": 1.5}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "pg", "batch_size": False}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "pg", "num_buckets": "4"}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "pg", "learning_rate": "0.5"}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "pg", "temperature": None}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "vi", "max_iter": 5}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "hc", "episodes": 10}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "pg", "batch_size": 0}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "pg", "temperature": 0}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "pg", "temperature": -1.0}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "pg", "num_buckets": 0}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "pg", "learning_rate": float("nan")}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "pg", "episodes": 0}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "vi", "cap": 0}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "vi", "cap": 25}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "tester": {"kind": "oracle", "alpha": 0.1}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "hc", "initializer": "nope"}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "hc", "max_iter": 0}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "hc", "max_swap": 0}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": "hc", "max_swap": -3}},
        {"graph": {"kind": "bundled", "name": "nope"}},
        {"graph": {"kind": "er", "n": 5, "p": 0.3, "nn": 7}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "latent": {"count": 1, "typo": 2}},
        [{"graph": {"kind": "bundled", "name": "asia"}}],
        {"graph": {"kind": ["er"], "n": 4, "p": 0.5}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "tester": {"kind": ["oracle"]}},
        {"graph": {"kind": "bundled", "name": "asia"},
         "searcher": {"kind": {"hc": 1}}},
        {"graph": "er"},
        {"graph": {"kind": "bundled", "name": "asia"}, "tester": "oracle"},
        {"graph": {"kind": "bundled", "name": "asia"}, "searcher": "hc"},
        {"graph": {"kind": "bundled", "name": "asia"}, "latent": "count"},
        {"graph": {"kind": "bundled", "name": "asia"}, "seed": -3},
        {"graph": {"kind": "file", "path": "g.edges", "manifest": 5}},
        {"graph": {"kind": "file", "path": "g.edges", "manifest": {"n": 2}}},
        {"graph": {"kind": "file", "path": "g.edges", "manifest": [2, "1"]}},
    ])
    def test_invalid_configs_rejected(self, raw):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_unknown_keys_and_missing_graph(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict(
                {"graph": {"kind": "er", "n": 3, "p": 0.5}, "spice": 1})
        with pytest.raises(ConfigError, match="graph"):
            ExperimentConfig.from_dict({"replications": 2})

    def test_dict_round_trip(self):
        raw = {"graph": {"kind": "er", "n": 6, "p": 0.3},
               "tester": {"kind": "fisher_z", "alpha": 0.05,
                          "standardize": True},
               "searcher": {"kind": "vi"},
               "latent": {"count": 1}, "replications": 3, "seed": 9,
               "workers": 1, "max_sep_size": 4, "output": None}
        assert ExperimentConfig.from_dict(raw).to_dict() == raw


class TestRun:
    def test_oracle_er_recovers_exactly(self):
        cfg = ExperimentConfig(graph={"kind": "er", "n": 7, "p": 0.4},
                               searcher={"kind": "vi"}, replications=3,
                               seed=5)
        report = run(cfg)
        assert report.aggregate["failures"] == 0
        for row in report.rows:
            assert row["metrics"]["shd"] == 0
            assert row["metrics"]["f1"] == 1.0
            assert row["orientation_conflict"] is None
            assert row["cost"] == row["metrics"]["tp"]
            assert sorted(row["order"]) == list(range(7))

    def test_runs_are_deterministic(self):
        cfg = ExperimentConfig(
            graph={"kind": "bundled", "name": "asia"},
            tester={"kind": "fisher_z", "alpha": 0.05, "standardize": True},
            searcher={"kind": "hc"}, latent={"count": 1},
            replications=3, seed=11)
        assert strip_volatile(run(cfg)) == strip_volatile(run(cfg))

    def test_worker_count_does_not_change_results(self):
        base = {"graph": {"kind": "er", "n": 6, "p": 0.5},
                "searcher": {"kind": "hc"}, "replications": 4, "seed": 3}
        serial = run(ExperimentConfig.from_dict(dict(base, workers=1)))
        parallel = run(ExperimentConfig.from_dict(dict(base, workers=2)))
        a, b = strip_volatile(serial), strip_volatile(parallel)
        a["config"].pop("workers")
        b["config"].pop("workers")
        assert a == b

    @pytest.mark.parametrize("graph, tester, searcher", [
        ({"kind": "er", "n": 12, "p": 0.4}, {"kind": "oracle"},
         {"kind": "hc", "max_iter": 20, "max_swap": 10,
          "initializer": "mb_size_sort"}),
        ({"kind": "er", "n": 8, "p": 0.4}, {"kind": "oracle"},
         {"kind": "vi", "cap": 20}),
        ({"kind": "er", "n": 6, "p": 0.4}, {"kind": "oracle"},
         {"kind": "pg", "episodes": 500, "learning_rate": 0.5,
          "batch_size": 10, "num_buckets": 4, "temperature": 1.0}),
        ({"kind": "er", "n": 8, "p": 0.3},
         {"kind": "fisher_z", "alpha": 0.01, "num_samples": 400,
          "standardize": False},
         {"kind": "hc"}),
    ])
    def test_spelled_out_defaults_change_nothing(self, graph, tester,
                                                 searcher):
        spelled = {"graph": graph, "tester": tester, "searcher": searcher,
                   "replications": 2, "seed": 1}
        bare = dict(spelled, tester={"kind": tester["kind"]},
                    searcher={"kind": searcher["kind"]})
        rows = [strip_volatile(run(ExperimentConfig.from_dict(raw)))[
            "replications"] for raw in (spelled, bare)]
        assert rows[0] == rows[1]
        assert all(row["error"] is None for row in rows[0])

    def test_aggregate_matches_rows(self):
        cfg = ExperimentConfig(graph={"kind": "er", "n": 6, "p": 0.5},
                               replications=5, seed=2)
        report = run(cfg)
        agg = report.aggregate
        shds = [row["metrics"]["shd"] for row in report.rows]
        assert agg["replications"] == 5
        assert agg["failures"] == 0
        assert agg["shd"]["mean"] == pytest.approx(np.mean(shds))
        lo, hi = agg["shd"]["ci80"]
        assert lo <= agg["shd"]["mean"] <= hi

    def test_single_replication_has_no_interval(self):
        cfg = ExperimentConfig(graph={"kind": "er", "n": 5, "p": 0.4},
                               replications=1)
        assert run(cfg).aggregate["shd"]["ci80"] is None

    def test_failed_replications_are_recorded(self, tmp_path):
        # Fisher-Z needs a DAG source; a graph file with a bidirected edge
        # makes every replication fail without aborting the run.
        mag = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
        path = tmp_path / "mag.edges"
        save_network(mag, path)
        cfg = ExperimentConfig(graph={"kind": "file", "path": str(path)},
                               tester={"kind": "fisher_z"}, replications=2)
        report = run(cfg)
        assert report.aggregate["failures"] == 2
        assert report.aggregate["shd"] is None
        for row in report.rows:
            assert "ConfigError" in row["error"]
            assert row["metrics"] is None

    @pytest.mark.parametrize("searcher", ["hc", "vi", "pg"])
    def test_single_vertex_graph(self, searcher):
        cfg = ExperimentConfig(graph={"kind": "er", "n": 1, "p": 0.5},
                               searcher={"kind": searcher}, replications=2)
        report = run(cfg)
        assert report.aggregate["failures"] == 0
        for row in report.rows:
            assert list(row["order"]) == [0]
            assert row["cost"] == 0
            assert row["metrics"]["shd"] == 0
            assert row["metrics"]["f1"] == 1.0

    def test_sample_size_below_markov_boundary_needs_rejected(self):
        # 8 observed variables: total conditioning needs more than 9.
        cfg = ExperimentConfig(graph={"kind": "bundled", "name": "asia"},
                               tester={"kind": "fisher_z", "num_samples": 9})
        with pytest.raises(ConfigError, match="samples"):
            run(cfg)
        ok = ExperimentConfig(graph={"kind": "bundled", "name": "asia"},
                              tester={"kind": "fisher_z", "num_samples": 9},
                              latent={"count": 1})
        assert run(ok).aggregate["failures"] == 0

    def test_report_schema(self):
        cfg = ExperimentConfig(graph={"kind": "er", "n": 5, "p": 0.3},
                               replications=2, seed=1)
        out = run(cfg).to_dict()
        assert out["schema_version"] == SCHEMA_VERSION == 1
        assert set(out) == {"schema_version", "config", "replications",
                            "aggregate", "elapsed"}
        row = out["replications"][0]
        assert set(row) == {"index", "error", "metrics", "cost", "trace",
                            "ci_tests", "order", "orientation_conflict",
                            "wall_clock"}
        assert json.dumps(out)  # JSON-serializable end to end


class TestStudentT:
    def test_closed_forms(self):
        assert _student_t_quantile(0.9, 1) == pytest.approx(
            math.tan(0.4 * math.pi), rel=1e-12)
        assert _student_t_quantile(0.9, 2) == pytest.approx(
            0.8 / math.sqrt(0.18), rel=1e-12)

    @pytest.mark.parametrize("df, quantile", [
        (4, 1.533206274058944),
        (29, 1.311433647301551),
    ])
    def test_tabulated_values(self, df, quantile):
        assert _student_t_quantile(0.9, df) == pytest.approx(quantile,
                                                             abs=1e-9)

    def test_tends_to_normal_quantile(self):
        normal = NormalDist().inv_cdf(0.9)
        gaps = [_student_t_quantile(0.9, df) - normal
                for df in (10, 100, 1000, 5000)]
        assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3


class TestSelfcheck:
    def test_all_checks_pass(self):
        rows = selfcheck(cap=4, seed=0)
        assert [r["name"] for r in rows] and all(r["ok"] for r in rows)

    def test_cap_validated(self):
        with pytest.raises(ConfigError):
            selfcheck(cap=1)
        with pytest.raises(ConfigError, match="seed"):
            selfcheck(seed=-1)


class TestMain:
    def test_run_with_flags_and_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["run", "--er", "6", "0.4", "--searcher", "vi",
                     "--replications", "2", "--seed", "4",
                     "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["aggregate"]["failures"] == 0
        assert "shd" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {"graph": {"kind": "bundled", "name": "asia"},
               "tester": {"kind": "fisher_z", "alpha": 0.5},
               "replications": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        code = main(["run", "--config", str(path), "--alpha", "0.01",
                     "--standardize", "--output", str(out)])
        assert code == 0
        written = json.loads(out.read_text())["config"]
        assert written["tester"]["alpha"] == 0.01
        assert written["tester"]["standardize"] is True

    @pytest.mark.parametrize("argv", [
        ["run", "--er", "4", "1.5"],
        ["run", "--er", "x", "0.5"],
        ["run", "--er", "4", "0.4", "--network", "asia"],
        ["run", "--config", "/nonexistent/config.json"],
        ["run", "--er", "4", "0.4", "--vi-cap", "5"],
        ["score", "/nonexistent/a.edges", "/nonexistent/b.edges"],
        ["run", "--er", "3", "0.5", "--latent-count", "3"],
        ["run", "--er", "5", "0.5", "--latent-fraction", "0.99"],
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [
        [1, 2],
        {"graph": {"kind": "er", "n": 4, "p": 0.5}, "tester": "oracle"},
        {"graph": {"kind": "er", "n": 4, "p": 0.5}, "searcher": "hc"},
    ])
    def test_config_shape_errors_exit_2(self, raw, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, raw", [
        (["--er", "5", "0.5", "--seed", "-1"], None),
        ([], {"graph": {"kind": "er", "n": 5, "p": 0.5}, "seed": -3}),
        (["--er", "5", "0.5", "--output", "missing/report.json"], None),
        (["--er", "5", "0.5", "--output", "."], None),
    ])
    def test_rejected_before_any_replication(self, argv, raw, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        if raw is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(raw))
            argv = ["--config", "cfg.json", *argv]
        started = []
        monkeypatch.setattr("magorder.cli._run_replication",
                            lambda *job: started.append(job))
        assert main(["run", *argv]) == 2
        assert "error:" in capsys.readouterr().err
        assert started == []

    @pytest.mark.parametrize("argv", [
        ["selfcheck", "--seed", "-1"],
        ["score", "folder", "folder"],
        ["run", "--config", "folder"],
        ["run", "--config", "utf16.json"],
        ["run", "--graph-file", "missing.edges"],
        ["run", "--graph-file", "bad.edges"],
        ["run", "--graph-file", "folder"],
        ["run", "--config", "manifest.json"],
        ["run", "--config", "manifest.json", "--latent-count", "1"],
        ["run", "--er", "25", "0.1", "--searcher", "vi", "--vi-cap", "10"],
        ["run", "--er", "5", "0.5", "--searcher", "vi", "--vi-cap", "25"],
        ["run", "--network", "alarm", "--searcher", "vi"],
    ])
    def test_bad_inputs_exit_2_before_any_replication(self, argv, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "folder").mkdir()
        (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{}")
        (tmp_path / "bad.edges").write_text("n 2\n0 -> 5\n")
        save_network(MixedGraph(2, directed=[(0, 1)]), tmp_path / "g.edges")
        (tmp_path / "manifest.json").write_text(json.dumps({"graph": {
            "kind": "file", "path": "g.edges", "manifest": [2, 3]}}))
        started = []
        monkeypatch.setattr("magorder.cli._run_replication",
                            lambda *job: started.append(job))
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        if "utf16.json" in argv:
            assert "config file utf16.json is not UTF-8" in err[0]
        assert started == []

    def test_mistyped_alpha_exits_2(self, tmp_path, capsys):
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps({
            "graph": {"kind": "bundled", "name": "asia"},
            "tester": {"kind": "fisher_z", "alpha": "0.1"}}))
        assert main(["run", "--config", str(path)]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_unknown_initializer_exits_2(self, tmp_path, capsys):
        path = tmp_path / "init.json"
        path.write_text(json.dumps({
            "graph": {"kind": "er", "n": 4, "p": 0.5},
            "searcher": {"kind": "hc", "initializer": "nope"}}))
        assert main(["run", "--config", str(path)]) == 2
        assert "nope" in capsys.readouterr().err

    def test_too_few_fisher_z_samples_exit_2(self, capsys):
        # alarm has 37 variables; the Markov boundaries need over 38 samples.
        assert main(["run", "--network", "alarm", "--tester", "fisher_z",
                     "--samples", "30"]) == 2
        assert "38" in capsys.readouterr().err

    def test_bad_json_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_misspelled_searcher_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({
            "graph": {"kind": "er", "n": 4, "p": 0.5},
            "searcher": {"kind": "hc", "max_iters": 5}}))
        assert main(["run", "--config", str(path)]) == 2
        assert "max_iters" in capsys.readouterr().err

    def test_all_failed_replications_exit_1(self, tmp_path):
        mag = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
        path = tmp_path / "mag.edges"
        save_network(mag, path)
        code = main(["run", "--graph-file", str(path),
                     "--tester", "fisher_z", "--replications", "2"])
        assert code == 1

    def test_package_runs_as_module(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["magorder", "selfcheck", "--cap",
                                         "4"])
        with pytest.raises(SystemExit) as done:
            runpy.run_module("magorder", run_name="__main__")
        assert done.value.code == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_import_leaves_scipy_unloaded(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys, magorder, magorder.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_selfcheck_command(self, capsys):
        assert main(["selfcheck", "--cap", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 5 and "FAIL" not in out

    def test_gen_round_trip(self, tmp_path, capsys):
        prefix = tmp_path / "inst"
        code = main(["gen", "--n", "8", "--p", "0.4", "--seed", "3",
                     "--latent-count", "2", "--samples", "100",
                     "--standardize", "--out", str(prefix)])
        assert code == 0
        listed = capsys.readouterr().out.split()
        assert listed == [f"{prefix}.edges", f"{prefix}_observed.edges",
                          f"{prefix}_observed.json", f"{prefix}.csv"]
        full = load_network(f"{prefix}.edges")
        assert full.n == 8 and full.is_dag()
        observed = json.loads(
            (tmp_path / "inst_observed.json").read_text())["observed"]
        assert len(observed) == 6
        mag = load_network(f"{prefix}_observed.edges")
        assert mag.n == 6
        header, *rows = (tmp_path / "inst.csv").read_text().splitlines()
        assert len(header.split(",")) == 6
        assert len(rows) == 100

    @pytest.mark.parametrize("flags", [
        ["--n", "5", "--p", "1.5"],
        ["--n", "-3", "--p", "0.5"],
        ["--n", "5", "--p", "0.5", "--seed", "-2"],
        ["--n", "5", "--p", "0.5", "--samples", "0"],
        ["--n", "5", "--p", "0.5", "--latent-count", "5"],
    ])
    def test_gen_usage_errors_exit_2(self, flags, tmp_path, capsys):
        assert main(["gen", *flags, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_score_command(self, tmp_path, capsys):
        a = MixedGraph(3, directed=[(0, 1), (1, 2)])
        b = MixedGraph(3, directed=[(0, 1), (0, 2)])
        pa, pb = tmp_path / "a.edges", tmp_path / "b.edges"
        save_network(a, pa)
        save_network(b, pb)
        assert main(["score", str(pa), str(pb)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got == {"tp": 1, "fp": 1, "fn": 1, "shd": 2,
                       "precision": 0.5, "recall": 0.5, "f1": 0.5}

    def test_score_vertex_mismatch_exits_2(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.edges", tmp_path / "b.edges"
        save_network(MixedGraph(3), pa)
        save_network(MixedGraph(4), pb)
        assert main(["score", str(pa), str(pb)]) == 2
        assert "error:" in capsys.readouterr().err
