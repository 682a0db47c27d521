"""CLI subcommands: stage-by-stage smoke tests, exit codes, run determinism."""

import csv
import io
import json
import logging
import multiprocessing
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import reachbench.cli as cli
from reachbench.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_RUNTIME,
    _write_csv,
    derive_seed,
    main,
)
from reachbench.estimators import estimate, estimate_all
from reachbench.evaluation import sensitivity_analysis
from reachbench.fuzzer import CampaignError, parse_units
from reachbench.incidence import build_incidence_matrix

from conftest import DATA_DIR

FIXTURE_LOG = DATA_DIR / "fixture_incidence.txt"

TINY_RUN = {
    "master_seed": 5,
    "n_programs": 1,
    "generation": {"n_nonterminals": 4, "alphabet_size": 8},
    "campaign": {"budget_n": 400, "unit_size_r": 10},
    "trials_k": 2,
    "unit_sizes": [10, 20],
    "estimators": ["chao2", "jk1"],
    "bootstrap_b": 30,
}
# One meta.json schema, from ``run`` and from ``gen-grammar``.
META_KEYS = {"seed", "cyclomatic_complexity", "n_elements", "true_richness", "generation"}


def test_seed_derivation_stable_and_distinct():
    assert derive_seed(1, "grammar", 0) == derive_seed(1, "grammar", 0)
    seen = {derive_seed(1, "grammar", i) for i in range(10)}
    seen |= {derive_seed(1, "campaign", i) for i in range(10)}
    seen |= {derive_seed(2, "grammar", i) for i in range(10)}
    assert len(seen) == 30


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_commands_run_without_scipy(tmp_path):
    """No reachbench module imports scipy: a fresh interpreter's import of
    the CLI loads none, and with scipy made unimportable a run whose
    sensitivity stage takes the Shapiro-Wilk and Welch paths, with
    normal-approximation CIs, and ``estimate --methods all`` both succeed."""
    config = {"master_seed": 1, "generation": {"n_nonterminals": 30, "alphabet_size": 32},
              "campaign": {"budget_n": 200, "unit_size_r": 10}, "trials_k": 5,
              "unit_sizes": [10, 20], "estimators": ["chao2", "chao2_bc", "jk1"],
              "bootstrap_b": 30}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = textwrap.dedent(f"""
        import sys
        import reachbench.cli
        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy was imported"
        sys.modules["scipy"] = None  # any later import of scipy raises ImportError
        main = reachbench.cli.main
        assert main(["run", "--config", "cfg.json", "--out", "run"]) == 0
        assert main(["estimate", "--incidence", {str(FIXTURE_LOG)!r}, "--methods", "all",
                     "--out", "estimates.csv"]) == 0
    """)
    src = Path(cli.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                   env=dict(os.environ, PYTHONPATH=str(src)), check=True, timeout=60)
    assert "welch" in {row["test_used"] for row in csv.DictReader(
        (tmp_path / "run/verdicts_prog000.csv").open())}
    assert "analytic-normal" in (tmp_path / "run/estimates/prog000/trial000.csv").read_text()
    assert (tmp_path / "estimates.csv").read_text().count("\n") == 1 + 12


def test_interrupted_csv_write_keeps_previous_file(tmp_path):
    path = tmp_path / "estimates.csv"
    _write_csv(path, ["method", "point"], [{"method": "jk1", "point": 1.5}])
    before = path.read_bytes()

    def rows():
        yield {"method": "chao2", "point": 2.0}
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        _write_csv(path, ["method", "point"], rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["estimates.csv"]


def test_stagewise_pipeline(tmp_path):
    gdir = tmp_path / "g"
    assert main(["gen-grammar", "--seed", "3", "--out", str(gdir)]) == EXIT_OK
    assert (gdir / "grammar.txt").exists()
    meta = json.loads((gdir / "meta.json").read_text())
    assert meta["true_richness"] > 0
    assert set(meta) == META_KEYS and meta["seed"] == 3

    pdir = tmp_path / "p"
    rc = main(["gen-parser", "--grammar", str(gdir / "grammar.txt"),
               "--label", str(gdir / "label.txt"), "--out", str(pdir)])
    assert rc == EXIT_OK
    for name in ("parser.c", "parser.ir.json", "elements.txt"):
        assert (pdir / name).exists()
    ir = json.loads((pdir / "parser.ir.json").read_text())
    assert ir["procedures"]

    fdir = tmp_path / "f"
    rc = main(["fuzz", "--program", str(pdir), "--trials", "2", "--budget", "500",
               "--unit-size", "10", "--seed", "1", "--out", str(fdir)])
    assert rc == EXIT_OK
    units = parse_units((fdir / "trial000.units.txt").read_text())
    assert len(units) == 50
    summary = json.loads((fdir / "trial000.summary.json").read_text())
    assert summary["t"] == 50 and summary["discovered"] > 0
    # The seeds' parses count; the mutants that reused a parse do not.
    assert 10 < summary["parser_runs"] < 500

    rebinned = tmp_path / "rebinned.txt"
    rc = main(["rebin", "--incidence", str(fdir / "trial000.units.txt"),
               "-m", "5", "--out", str(rebinned)])
    assert rc == EXIT_OK
    assert len(parse_units(rebinned.read_text())) == 10

    edir = tmp_path / "e"
    rc = main(["estimate", "--incidence", str(fdir / "trial000.units.txt"),
               "--methods", "chao2,jk1,bootstrap", "--out", str(edir / "t0.csv")])
    assert rc == EXIT_OK
    rows = list(csv.DictReader((edir / "t0.csv").open()))
    assert [r["method"] for r in rows] == ["chao2", "jk1", "bootstrap"]
    for row in rows:
        assert row["status"] in ("ok", "degenerate-fallback", "failed")

    report = tmp_path / "report.csv"
    rc = main(["evaluate", "--truth", str(pdir / "elements.txt"),
               "--estimates", str(edir), "--out", str(report)])
    assert rc == EXIT_OK
    entries = list(csv.DictReader(report.open()))
    assert {e["estimator"] for e in entries} == {"chao2", "jk1", "bootstrap"}

    verdicts = tmp_path / "verdicts.csv"
    rc = main(["sensitivity", "--logs", str(fdir), "--unit-sizes", "10,20",
               "--methods", "chao2", "--out", str(verdicts)])
    assert rc == EXIT_OK
    (v,) = list(csv.DictReader(verdicts.open()))
    assert (v["r_a"], v["r_b"]) == ("10", "20")
    assert v["reliable"] in ("True", "False")


def test_import_incidence_schemas(tmp_path, fixture_matrix):
    from reachbench.incidence import to_dense_csv
    from reachbench.fuzzer import serialize_units

    dense = tmp_path / "w.csv"
    dense.write_text(to_dense_csv(fixture_matrix))
    out = tmp_path / "out.txt"
    rc = main(["import-incidence", "--input", str(dense), "--schema", "dense-csv",
               "--out", str(out)])
    assert rc == EXIT_OK
    assert parse_units(out.read_text()) == fixture_matrix.units()

    sparse = tmp_path / "w.txt"
    sparse.write_text(serialize_units(fixture_matrix.units()))
    out2 = tmp_path / "out2.txt"
    rc = main(["import-incidence", "--input", str(sparse), "--out", str(out2)])
    assert rc == EXIT_OK
    assert out2.read_text() == out.read_text()


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path):
        rc = main(["estimate", "--incidence", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_CONFIG

    def test_malformed_incidence_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not incidence data\n")
        rc = main(["estimate", "--incidence", str(bad),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_CONFIG

    def test_malformed_incidence_record_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("incidence v1\nt 1\nunit\n")
        rc = main(["estimate", "--incidence", str(bad),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_CONFIG

    def test_infeasible_generator_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_nonterminals": 0}))
        rc = main(["gen-grammar", "--config", str(cfg),
                   "--out", str(tmp_path / "g")])
        assert rc == EXIT_CONFIG

    def test_sensitivity_without_logs_is_config_error(self, tmp_path):
        rc = main(["sensitivity", "--logs", str(tmp_path), "--unit-sizes", "1,2",
                   "--out", str(tmp_path / "v.csv")])
        assert rc == EXIT_CONFIG

    @staticmethod
    def assert_one_line_error(caplog, message):
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r.getMessage() for r in errors] == [message]
        assert errors[0].exc_info is None  # no traceback

    @pytest.mark.parametrize("level", ["1.0", "-0.2", "1.5", "nan"])
    def test_ci_level_outside_unit_interval_is_config_error(self, tmp_path, caplog, level):
        out = tmp_path / "o.csv"
        rc = main(["estimate", "--incidence", str(FIXTURE_LOG), "--level", level,
                   "--out", str(out)])
        assert rc == EXIT_CONFIG and not out.exists()
        self.assert_one_line_error(caplog, f"CI level must lie in [0, 1), got {float(level)}")

    @pytest.fixture
    def logs(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        shutil.copy(FIXTURE_LOG, logs / "trial000.units.txt")
        return logs

    @pytest.mark.parametrize("flags,message", [
        (["--unit-sizes", "0,5"], "unit size must be >= 1"),
        (["--unit-sizes", "5,-5"], "unit size must be >= 1"),
        (["--unit-sizes", "1,2", "--level", "1.0"], "CI level must lie in [0, 1), got 1.0"),
        (["--unit-sizes", "1,2", "--alpha", "0"], "alpha must lie in (0, 1), got 0.0"),
        (["--unit-sizes", "1,2", "--alpha", "1.0"], "alpha must lie in (0, 1), got 1.0"),
    ], ids=["unit-size-0", "unit-size-negative", "level-1", "alpha-0", "alpha-1"])
    def test_bad_sensitivity_settings_are_config_errors(self, tmp_path, caplog, logs, flags,
                                                        message):
        rc = main(["sensitivity", "--logs", str(logs), *flags, "--methods", "jk1",
                   "--out", str(tmp_path / "v.csv")])
        assert rc == EXIT_CONFIG
        self.assert_one_line_error(caplog, message)

    @pytest.mark.parametrize("key,value,message", [
        ("ci_level", 1.0, "CI level must lie in [0, 1), got 1.0"),
        ("ci_level", "0.9", "CI level must lie in [0, 1), got 0.9"),
        ("alpha", 0.0, "alpha must lie in (0, 1), got 0.0"),
        ("trials_k", "x", "trials_k must be an integer >= 1, got 'x'"),
        ("n_programs", 0, "n_programs must be an integer >= 1, got 0"),
        ("n_seeds", 2.5, "n_seeds must be an integer >= 1, got 2.5"),
        ("max_depth", True, "max_depth must be an integer >= 1, got True"),
        ("bootstrap_b", -1, "bootstrap_b must be an integer >= 1, got -1"),
        ("campaign", {"budget_n": -5}, "budget_n must be an integer >= 1, got -5"),
        ("campaign", {"unit_size_r": "10"}, "unit_size_r must be an integer >= 1, got '10'"),
        ("campaign", {"unit_size_r": 100}, "unit size 10 is not a multiple of base 100"),
        ("unit_sizes", [7, 10], "unit size 7 is not a multiple of base 10"),
        ("unit_sizes", [10], "need at least two unit sizes"),
        ("unit_sizes", [10, "20"], "unit sizes must be integers"),
        ("campaign", {"budget_n": 500, "foo": 1}, "unknown campaign key(s): 'foo'"),
        ("campaign", {"policy": {"bar": 1}}, "unknown campaign.policy key(s): 'bar'"),
        ("generation", {"baz": 1, "abc": 2}, "unknown generation key(s): 'abc', 'baz'"),
        ("estimators", ["jk1", "nope"], "unknown estimator 'nope'"),
        ("estimators", "jk1",
         "estimators must be 'all' or a non-empty list of method names, got 'jk1'"),
        ("checkpoints", [5, 0], "checkpoints must be an integer >= 1, got 0"),
        ("checkpoints", "10", "checkpoints must be a list of unit counts, got '10'"),
        ("generation", {"n_nonterminals": "x"}, "n_nonterminals must be an integer, got 'x'"),
        ("generation", {"rule_length": 3}, "rule_length must be a pair of integers, got 3"),
        ("campaign", {"budget_n": 5, "unit_size_r": 10}, "budget smaller than one sampling unit"),
        ("campaign", {"policy": {"max_len": "a"}}, "max_len must be an integer >= 1, got 'a'"),
        ("master_seed", "a", "master_seed must be an integer, got 'a'"),
        # The default campaign has 10_000 executions in units of 10.
        ("checkpoints", [5000], "checkpoint 5000 exceeds the campaigns' 1000 units"),
        ("checkpoints", [5000, 1000], "checkpoint 5000 exceeds the campaigns' 1000 units"),
        ("checkpoints", [100, 100], "checkpoints repeat a unit count: [100, 100]"),
        ("trial_k", 3, "unknown run config key(s): 'trial_k'"),
        ("generation", {"seed": 3},
         "generation.seed is derived from master_seed and cannot be set"),
        ("campaign", {"budget_n": 500, "trial_seed": 3},
         "campaign.trial_seed is derived from master_seed and cannot be set"),
    ])
    def test_bad_run_levels_are_config_errors_before_any_work(self, tmp_path, caplog, key,
                                                              value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        self.assert_one_line_error(caplog, message)

    @pytest.mark.parametrize("flags,message", [
        (["--budget", "0", "--trials", "2"], "budget_n must be an integer >= 1, got 0"),
        (["--trials", "0"], "trials_k must be an integer >= 1, got 0"),
        (["--n-seeds", "0"], "n_seeds must be an integer >= 1, got 0"),
        (["--max-depth", "-1"], "max_depth must be an integer >= 1, got -1"),
        (["--unit-size", "0"], "unit_size_r must be an integer >= 1, got 0"),
        (["--budget", "50"], "budget smaller than one sampling unit"),
    ], ids=["budget-0", "trials-0", "n-seeds-0", "max-depth-negative", "unit-size-0",
            "budget-below-unit"])
    def test_bad_fuzz_settings_are_config_errors_before_any_work(self, tmp_path, caplog,
                                                                 program_dir, flags, message):
        out = tmp_path / "f"
        rc = main(["fuzz", "--program", str(program_dir), *flags, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        self.assert_one_line_error(caplog, message)

    @pytest.mark.parametrize("text", ["[]", "3", '"x"', "null"])
    def test_run_config_that_is_not_an_object_is_config_error(self, tmp_path, caplog, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        self.assert_one_line_error(
            caplog, f"a run config must be a JSON object, got {json.loads(text)!r}")


class TestRun:
    def _run(self, tmp_path, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_RUN))
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        return out

    def test_artifact_layout_and_manifest(self, tmp_path):
        out = self._run(tmp_path, "run1")
        for rel in (
            "grammars/prog000/grammar.txt",
            "grammars/prog000/elements.txt",
            "incidence/prog000/trial000.units.txt",
            "estimates/prog000/trial001.csv",
            "report.csv",
            "report.json",
            "verdicts_prog000.csv",
        ):
            assert (out / rel).exists(), rel
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert set(manifest["stages"]) == {
            "generate", "fuzz", "estimate", "evaluate", "sensitivity",
        }
        # Every artifact is hashed, and every hash names a real file.
        for rel in manifest["artifacts"]:
            assert (out / rel).exists()
        assert "report.csv" in manifest["artifacts"]
        # The manifest records the resolved config, which reads back as itself.
        resolved = cli.ExperimentConfig.from_json(TINY_RUN)
        assert manifest["config"] == resolved.to_json()
        assert cli.ExperimentConfig.from_json(manifest["config"]) == resolved

    def test_reruns_are_digest_identical(self, tmp_path):
        a = self._run(tmp_path, "runA")
        b = self._run(tmp_path, "runB")
        ma = json.loads((a / "run_manifest.json").read_text())
        mb = json.loads((b / "run_manifest.json").read_text())
        assert ma["artifacts"] == mb["artifacts"]
        assert ma["parser_runs"] == mb["parser_runs"]
        assert set(ma["parser_runs"]) == {"prog000"}

    def test_resume_skips_finished_stages(self, tmp_path):
        out = self._run(tmp_path, "runC")
        manifest_before = json.loads((out / "run_manifest.json").read_text())
        marker = out / "incidence" / "prog000" / ".stage.digest"
        assert marker.exists()
        cfg = tmp_path / "cfg.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest_after = json.loads((out / "run_manifest.json").read_text())
        assert manifest_before["artifacts"] == manifest_after["artifacts"]

    def test_resume_redoes_a_stage_whose_files_are_damaged(self, tmp_path):
        """A stage marker holds the hash of each trial file the stage wrote,
        so a rerun redoes a stage whose file is missing or changed, and only
        that stage; the run's artifacts come back as they were."""
        out = self._run(tmp_path, "runE")
        first = json.loads((out / "run_manifest.json").read_text())["artifacts"]
        cfg = tmp_path / "cfg.json"
        estimates = out / "estimates/prog000/trial001.csv"
        kept = estimates.read_bytes()
        estimates.unlink()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert estimates.read_bytes() == kept
        assert {row["k"] for row in json.loads((out / "report.json").read_text())} == {2}
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["parser_runs"] == {}  # the campaigns were not run again

        units = out / "incidence/prog000/trial000.units.txt"
        kept = units.read_bytes()
        units.write_bytes(kept[:len(kept) // 2])
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert units.read_bytes() == kept
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert set(manifest["parser_runs"]) == {"prog000"}
        assert manifest["artifacts"] == first

    def test_report_command_prints_rows(self, tmp_path, capsys):
        out = self._run(tmp_path, "runD")
        assert main(["report", "--run", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "chao2" in text and "bias=" in text

    def test_partial_nested_objects_keep_the_run_defaults(self, tmp_path):
        """A nested object is merged over the run's defaults at its level, and
        ``meta.json`` records the resolved generation settings."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generation": {"n_nonterminals": 8},
                                   "campaign": {"budget_n": 200}, "estimators": ["chao2"]}))
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        # Restating a default gives the default run's grammar.
        gdir = out / "grammars/prog000"
        assert ((gdir / "grammar.txt").read_bytes()
                == (DATA_DIR / "golden/smoke/grammars/prog000/grammar.txt").read_bytes())
        meta = json.loads((gdir / "meta.json").read_text())
        assert set(meta) == META_KEYS
        assert meta["generation"] == cli.DEFAULT_EXPERIMENT["generation"]
        assert meta["seed"] == derive_seed(1, "grammar", 0)
        units = parse_units((out / "incidence/prog000/trial000.units.txt").read_text())
        assert len(units) == 20  # unit_size_r kept the run's 10

    def test_stage_commands_reproduce_the_run(self, tmp_path):
        """``fuzz`` on a run's program 0, with the run's settings and master
        seed, gives its campaigns; ``estimate`` with a checkpoint's seed gives
        the run's estimates at that checkpoint."""
        config = dict(TINY_RUN, ci_level=0.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        run = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(run)]) == EXIT_OK
        master, campaign = config["master_seed"], config["campaign"]
        assert main(["fuzz", "--program", str(run / "grammars/prog000"),
                     "--trials", str(config["trials_k"]), "--budget", str(campaign["budget_n"]),
                     "--unit-size", str(campaign["unit_size_r"]),
                     "--n-seeds", str(cli.DEFAULT_EXPERIMENT["n_seeds"]),
                     "--max-depth", str(cli.DEFAULT_EXPERIMENT["max_depth"]), "--seed", str(master),
                     "--out", str(tmp_path / "f")]) == EXIT_OK
        logs = sorted((run / "incidence/prog000").glob("trial*.units.txt"))
        assert len(logs) == config["trials_k"]
        for path in logs:
            assert (tmp_path / "f" / path.name).read_bytes() == path.read_bytes()
        t = campaign["budget_n"] // campaign["unit_size_r"]
        est = tmp_path / "e.csv"
        assert main(["estimate", "--incidence", str(logs[0]), "--level", "0",
                     "--methods", ",".join(config["estimators"]),
                     "--seed", str(derive_seed(master, f"ci:0:{t}", 0)),
                     "--out", str(est)]) == EXIT_OK
        rows = list(csv.DictReader((run / "estimates/prog000/trial000.csv").open()))
        assert (list(csv.DictReader(est.open()))
                == [r for r in rows if r["t"] == str(t)])


# ---------------------------------------------------------------------------
# The worker pool: one worker or two give the same files.
# ---------------------------------------------------------------------------

POOL_RUN = dict(TINY_RUN, n_programs=3)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(cli, "_available_cpus", lambda: n)


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def _fail_on(monkeypatch, trial_seed, exc):
    real = cli.run_campaign

    def run_campaign(program, corpus, config):
        if config.trial_seed == trial_seed:
            raise exc
        return real(program, corpus, config)

    monkeypatch.setattr(cli, "run_campaign", run_campaign)


def test_worker_count_is_capped_by_cpus_and_campaigns(monkeypatch):
    _cpus(monkeypatch, 2)
    assert [cli._pool_workers(n) for n in (0, 1, 2, 6)] == [0, 1, 2, 2]
    _cpus(monkeypatch, 1)
    assert cli._pool_workers(6) == 1


@pytest.fixture(scope="module")
def program_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("prog")
    assert main(["gen-grammar", "--seed", "3", "--out", str(base / "g")]) == EXIT_OK
    assert main(["gen-parser", "--grammar", str(base / "g" / "grammar.txt"),
                 "--label", str(base / "g" / "label.txt"), "--out", str(base / "p")]) == EXIT_OK
    return base / "p"


def _fuzz(program_dir, out):
    return main(["fuzz", "--program", str(program_dir), "--trials", "3", "--budget", "300",
                 "--unit-size", "10", "--seed", "2", "--out", str(out)])


def _pool_run(tmp_path, monkeypatch, cpus, config=POOL_RUN):
    _cpus(monkeypatch, cpus)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"run{cpus}"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert multiprocessing.active_children() == []
    return rc, out


class TestCampaignPool:
    def test_run_artifacts_match_across_worker_counts(self, tmp_path, monkeypatch):
        manifests = []
        for cpus in (1, 2):
            rc, out = _pool_run(tmp_path, monkeypatch, cpus)
            assert rc == EXIT_OK
            manifests.append(json.loads((out / "run_manifest.json").read_text()))
        assert manifests[0]["artifacts"] == manifests[1]["artifacts"]
        assert len([a for a in manifests[0]["artifacts"] if a.endswith(".units.txt")]) == 6
        assert [m["fuzz_workers"] for m in manifests] == [1, 2]

    def test_resumed_run_fuzzes_nothing(self, tmp_path, monkeypatch):
        _, out = _pool_run(tmp_path, monkeypatch, 2)
        before = _files(out)
        rc, _ = _pool_run(tmp_path, monkeypatch, 2)
        assert rc == EXIT_OK
        assert json.loads((out / "run_manifest.json").read_text())["fuzz_workers"] == 0
        after = _files(out)
        assert before.keys() == after.keys()
        assert all(before[k] == after[k] for k in before if k != "run_manifest.json")

    @pytest.mark.parametrize("exc,code", [(RuntimeError("boom"), EXIT_RUNTIME),
                                          (CampaignError("bad campaign"), EXIT_CONFIG)],
                             ids=["runtime", "config"])
    def test_failing_campaign_stops_the_run_the_same_way(self, tmp_path, monkeypatch, exc,
                                                         code):
        _fail_on(monkeypatch, derive_seed(POOL_RUN["master_seed"], "campaign:1", 1), exc)
        files = []
        for cpus in (1, 2):
            rc, out = _pool_run(tmp_path, monkeypatch, cpus)
            assert rc == code
            files.append(_files(out))
        assert files[0] == files[1]
        assert "incidence/prog001/trial000.units.txt" in files[0]
        assert "incidence/prog001/trial001.units.txt" not in files[0]
        assert "incidence/prog001/.stage.digest" not in files[0]
        assert not any(name.startswith("incidence/prog002") for name in files[0])

    def test_fuzz_units_match_across_worker_counts(self, tmp_path, monkeypatch, program_dir):
        units = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            out = tmp_path / f"f{cpus}"
            assert _fuzz(program_dir, out) == EXIT_OK
            assert multiprocessing.active_children() == []
            units.append({p.name: p.read_bytes() for p in sorted(out.glob("*.units.txt"))})
        assert len(units[0]) == 3 and units[0] == units[1]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_fuzz_keeps_other_trials_when_one_fails(self, tmp_path, monkeypatch, program_dir,
                                                    cpus):
        _cpus(monkeypatch, cpus)
        _fail_on(monkeypatch, derive_seed(2, "campaign:0", 1), RuntimeError("boom"))
        out = tmp_path / "f"
        assert _fuzz(program_dir, out) == EXIT_PARTIAL
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in out.iterdir()) == [
            "trial000.summary.json", "trial000.units.txt",
            "trial002.summary.json", "trial002.units.txt",
        ]
        summary = json.loads((out / "trial002.summary.json").read_text())
        assert summary["t"] == 30 and summary["trial_seed"] == derive_seed(2, "campaign:0", 2)


# Method shards of the estimate and sensitivity stages.
SHARD_RUN = dict(TINY_RUN, n_programs=2, estimators=["chao2", "unpmle", "pnpmle", "jk1"],
                 bootstrap_b=20)


def _fail_shard(monkeypatch, method, seeds, exc):
    """Make the estimate batch of ``method`` raise ``exc`` when it has a job
    with one of ``seeds``."""
    real = cli.estimate_many

    def fail(jobs, *args, **kwargs):
        if any(m == method and seed in seeds for _, m, seed in jobs):
            raise exc
        return real(jobs, *args, **kwargs)

    monkeypatch.setattr(cli, "estimate_many", fail)


def _no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", refuse)


class TestMethodShards:
    def test_run_artifacts_match_across_worker_counts(self, tmp_path, monkeypatch):
        manifests, files = [], []
        for cpus in (1, 2):
            rc, out = _pool_run(tmp_path, monkeypatch, cpus, SHARD_RUN)
            assert rc == EXIT_OK
            manifests.append(json.loads((out / "run_manifest.json").read_text()))
            files.append({k: v for k, v in _files(out).items() if k != "run_manifest.json"})
        assert files[0] == files[1]
        assert [(m["estimate_workers"], m["sensitivity_workers"]) for m in manifests] == [
            (1, 1), (2, 2)]
        # A row is its own job's estimate, wherever the job ran.
        trial = build_incidence_matrix(parse_units(
            (tmp_path / "run2/incidence/prog001/trial001.units.txt").read_text()))
        rows = list(csv.DictReader((tmp_path / "run2/estimates/prog001/trial001.csv").open()))
        assert [r["method"] for r in rows[-4:]] == SHARD_RUN["estimators"]
        est = estimate(trial, "unpmle", 0.9, boot_b=20,
                       seed=derive_seed(SHARD_RUN["master_seed"], f"ci:1:{trial.t}", 1))
        assert ([float(rows[-3][f]) for f in ("point", "ci_low", "ci_high")]
                == [est.point, est.ci_low, est.ci_high])
        trials = [build_incidence_matrix(parse_units(
            (tmp_path / f"run2/incidence/prog001/trial{k:03d}.units.txt").read_text()))
            for k in range(2)]
        cli._write_verdicts(tmp_path / "verdicts.csv", sensitivity_analysis(
            trials, [10, 20], SHARD_RUN["estimators"], base_r=10, boot_b=20,
            seed=derive_seed(SHARD_RUN["master_seed"], "sensitivity:1")))
        assert (tmp_path / "verdicts.csv").read_bytes() == files[1]["verdicts_prog001.csv"]

    def test_estimate_and_sensitivity_match_across_worker_counts(self, tmp_path, monkeypatch):
        logs = tmp_path / "logs"
        logs.mkdir()
        for k in range(2):
            shutil.copy(FIXTURE_LOG, logs / f"trial{k:03d}.units.txt")
        outputs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            est, ver = tmp_path / f"e{cpus}.csv", tmp_path / f"v{cpus}.csv"
            assert main(["estimate", "--incidence", str(FIXTURE_LOG), "--methods", "all",
                         "--seed", "5", "--out", str(est)]) == EXIT_OK
            assert multiprocessing.active_children() == []
            assert main(["sensitivity", "--logs", str(logs), "--unit-sizes", "1,2,4",
                         "--methods", "jk1,chao2,ice", "--out", str(ver)]) == EXIT_OK
            assert multiprocessing.active_children() == []
            outputs.append((est.read_bytes(), ver.read_bytes()))
        assert outputs[0] == outputs[1]
        rows = list(csv.DictReader(io.StringIO(outputs[0][0].decode())))
        expected = estimate_all(build_incidence_matrix(parse_units(FIXTURE_LOG.read_text())),
                                seed=5)
        assert ([(r["method"], float(r["point"]), float(r["ci_low"]), float(r["ci_high"]))
                 for r in rows] == [(e.method, e.point, e.ci_low, e.ci_high) for e in expected])
        rows = list(csv.DictReader(io.StringIO(outputs[0][1].decode())))
        assert [r["method"] for r in rows] == ["jk1"] * 3 + ["chao2"] * 3 + ["ice"] * 3

    @pytest.mark.parametrize("stage,method,exc,code", [
        ("estimates", "pnpmle", RuntimeError("boom"), EXIT_RUNTIME),
        ("sensitivity", "unpmle", ValueError("bad shard"), EXIT_CONFIG),
    ])
    def test_failing_shard_keeps_earlier_programs(self, tmp_path, monkeypatch, stage, method,
                                                  exc, code):
        master = SHARD_RUN["master_seed"]
        if stage == "estimates":  # program 1's checkpoint seeds
            seeds = {derive_seed(master, f"ci:1:{t}", k) for t in range(1, 41) for k in range(2)}
        else:
            seeds = {derive_seed(master, "sensitivity:1")}
        _fail_shard(monkeypatch, method, seeds, exc)
        files = []
        for cpus in (1, 2):
            rc, out = _pool_run(tmp_path, monkeypatch, cpus, SHARD_RUN)
            assert rc == code
            files.append(_files(out))
        assert files[0] == files[1]
        assert "run_manifest.json" not in files[0]
        # Program 0 is finished and kept; program 1 failed in the stage.
        assert "estimates/prog000/.stage.digest" in files[0]
        assert ("estimates/prog001/.stage.digest" in files[0]) == (stage == "sensitivity")
        assert ("verdicts_prog000.csv" in files[0]) == (stage == "sensitivity")
        assert "verdicts_prog001.csv" not in files[0]

    @pytest.mark.parametrize("argv,message", [
        (["estimate", "--methods", "jk1,nope"], "unknown estimator 'nope'"),
        (["estimate", "--methods", "jk1,ice", "--level", "1.0"],
         "CI level must lie in [0, 1), got 1.0"),
        (["sensitivity", "--methods", "jk1,nope", "--unit-sizes", "1,2"],
         "unknown estimator 'nope'"),
        (["sensitivity", "--methods", "jk1,ice", "--unit-sizes", "2,3"],
         "unit size 3 is not a multiple of base 2"),
        (["sensitivity", "--methods", "jk1,ice", "--unit-sizes", "1,2", "--alpha", "0"],
         "alpha must lie in (0, 1), got 0.0"),
    ], ids=["estimate-method", "estimate-level", "sensitivity-method", "sensitivity-size",
            "sensitivity-alpha"])
    def test_bad_settings_fail_before_any_worker(self, tmp_path, monkeypatch, caplog, argv,
                                                  message):
        logs = tmp_path / "logs"
        logs.mkdir()
        shutil.copy(FIXTURE_LOG, logs / "trial000.units.txt")
        _cpus(monkeypatch, 2)
        _no_pool(monkeypatch)
        source = ["--incidence", str(FIXTURE_LOG)] if argv[0] == "estimate" else [
            "--logs", str(logs)]
        out = tmp_path / "o.csv"
        assert main([*argv, *source, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        TestExitCodes.assert_one_line_error(caplog, message)

    def test_one_method_starts_no_estimate_or_sensitivity_pool(self, tmp_path, monkeypatch):
        config = dict(SHARD_RUN, estimators=["chao2_bc"])
        _, out = _pool_run(tmp_path, monkeypatch, 2, config)
        before = _files(out)
        shutil.rmtree(out / "estimates")
        _no_pool(monkeypatch)  # the fuzz stage resumes; nothing else may start a pool
        rc, _ = _pool_run(tmp_path, monkeypatch, 2, config)
        assert rc == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert (manifest["fuzz_workers"], manifest["estimate_workers"],
                manifest["sensitivity_workers"]) == (0, 1, 1)
        after = _files(out)
        assert all(after[k] == before[k] for k in before if k != "run_manifest.json")
        est = tmp_path / "e.csv"
        assert main(["estimate", "--incidence", str(FIXTURE_LOG), "--methods", "chao2_bc",
                     "--out", str(est)]) == EXIT_OK
        assert main(["sensitivity", "--logs", str(out / "incidence/prog000"),
                     "--unit-sizes", "10,20", "--methods", "chao2_bc",
                     "--out", str(tmp_path / "v.csv")]) == EXIT_OK
