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
from dataclasses import replace
from pathlib import Path

import pytest

import reachbench.cli as cli
import reachbench.codegen as codegen
import reachbench.evaluation as evaluation
from reachbench.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_RUNTIME,
    _write_csv,
    derive_seed,
    main,
    run_experiment,
)
from reachbench.estimators import ALL_METHODS, estimate, estimate_all
from reachbench.evaluation import sensitivity_analysis
from reachbench.fuzzer import CampaignError, parse_units
from reachbench.incidence import build_incidence_matrix

from conftest import DATA_DIR, units_of

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
    assert parse_units(out.read_text()) == units_of(fixture_matrix)

    sparse = tmp_path / "w.txt"
    sparse.write_text(serialize_units(fixture_matrix))
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

    @pytest.mark.parametrize("command", [
        ["estimate", "--incidence"],
        ["rebin", "-m", "1", "--incidence"],
        ["import-incidence", "--input"],
        ["import-incidence", "--schema", "dense-csv", "--input"],
        ["sensitivity", "--unit-sizes", "1,2", "--logs"],
    ], ids=["estimate", "rebin", "import-sparse", "import-dense", "sensitivity"])
    def test_element_id_outside_int64_is_config_error(self, tmp_path, caplog, command):
        """An id of 2**63 - 1 is read; one more is rejected with its line."""
        logs = tmp_path / "logs"
        logs.mkdir()
        dense = "dense-csv" in command
        for el, rc in ((2 ** 63 - 1, EXIT_OK), (2 ** 63, EXIT_CONFIG)):
            (logs / "trial000.units.txt").write_text(
                f"element_id,u0,u1\n{el},1,0\n1,1,1\n" if dense
                else f"incidence v1\nt 2\nunit 0: {el} 1\nunit 1: 1\n")
            path = logs if command[0] == "sensitivity" else logs / "trial000.units.txt"
            caplog.clear()
            assert main([*command, str(path), "--out", str(tmp_path / "o")]) == rc
        self.assert_one_line_error(caplog, "line 2: element id 9223372036854775808 is "
                                   "outside int64" if dense else
                                   "line 3: element id outside int64")

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

    @pytest.mark.parametrize("estimates", ["empty", "missing"])
    def test_evaluate_without_estimates_is_config_error(self, tmp_path, caplog, estimates):
        truth, edir, out = tmp_path / "elements.txt", tmp_path / estimates, tmp_path / "r.csv"
        truth.write_text("elements v1\n0 rule grammar reachable\n")
        if estimates == "empty":
            edir.mkdir()
        rc = main(["evaluate", "--truth", str(truth), "--estimates", str(edir),
                   "--out", str(out)])
        assert rc == EXIT_CONFIG and not out.exists()
        self.assert_one_line_error(caplog, f"no *.csv estimates in {edir}")

    @staticmethod
    def assert_one_line_error(caplog, message):
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r.getMessage() for r in errors] == [message]
        assert errors[0].exc_info is None  # no traceback

    def test_evaluate_rejects_a_csv_that_is_not_an_estimate_csv(self, tmp_path, caplog):
        """README's ``evaluate`` run twice with its report among the estimates:
        the second run reads the first one's report as an estimate CSV."""
        truth, edir = tmp_path / "elements.txt", tmp_path / "work"
        truth.write_text("elements v1\n0 rule grammar reachable\n")
        assert main(["estimate", "--incidence", str(FIXTURE_LOG), "--methods", "chao2",
                     "--out", str(edir / "trial000.csv")]) == EXIT_OK
        argv = ["evaluate", "--truth", str(truth), "--estimates", str(edir), "--out"]
        assert main(argv + [str(edir / "report.csv")]) == EXIT_OK
        out = tmp_path / "again.csv"
        caplog.clear()
        assert main(argv + [str(out)]) == EXIT_CONFIG and not out.exists()
        header = ["method", "t", "point", "ci_low", "ci_high", "status", "diagnostics"]
        self.assert_one_line_error(
            caplog, f"{edir / 'report.csv'} is not an estimate CSV: its header is "
            f"{cli.REPORT_FIELDS}, not {header}")

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
        (["--unit-sizes", "1,2,1"], "unit sizes repeat a size: [1, 2, 1]"),
        (["--unit-sizes", "1,x"], "--unit-sizes: 'x' is not an integer"),
        (["--unit-sizes", "1,,2"], "--unit-sizes: '' is not an integer"),
    ], ids=["unit-size-0", "unit-size-negative", "level-1", "alpha-0", "alpha-1",
            "unit-size-repeated", "unit-size-not-integer", "unit-size-empty"])
    def test_bad_sensitivity_settings_are_config_errors(self, tmp_path, caplog, logs, flags,
                                                        message):
        rc = main(["sensitivity", "--logs", str(logs), *flags, "--methods", "jk1",
                   "--out", str(tmp_path / "v.csv")])
        assert rc == EXIT_CONFIG
        self.assert_one_line_error(caplog, message)

    @pytest.mark.parametrize("sizes,message", [
        ("1,x", "--unit-sizes: 'x' is not an integer"),
        ("2,4,2", "unit sizes repeat a size: [2, 4, 2]"),
    ], ids=["not-integer", "repeated"])
    def test_unit_sizes_are_checked_before_any_log_is_read(self, tmp_path, caplog, sizes,
                                                            message):
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "trial000.units.txt").write_text("not a units file\n")
        rc = main(["sensitivity", "--logs", str(logs), "--unit-sizes", sizes,
                   "--out", str(tmp_path / "v.csv")])
        assert rc == EXIT_CONFIG
        self.assert_one_line_error(caplog, message)

    @pytest.mark.parametrize("command", ["estimate", "sensitivity"])
    def test_bootstrap_b_is_checked_before_any_log_is_read(self, tmp_path, caplog, command):
        log = tmp_path / "logs" / "trial000.units.txt"
        log.parent.mkdir()
        log.write_text("not a units file\n")
        source = (["--incidence", str(log)] if command == "estimate"
                  else ["--logs", str(log.parent), "--unit-sizes", "1,2"])
        rc = main([command, *source, "--bootstrap-b", "0", "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_CONFIG
        self.assert_one_line_error(caplog, "--bootstrap-b must be an integer >= 1, got 0")

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
        # A unit of 20000 executions is two campaigns long.
        ("unit_sizes", [10, 20000], "unit size 20000 merges 2000 units, more than the "
         "campaigns' 1000"),
        ("unit_sizes", [10, 10], "unit sizes repeat a size: [10, 10]"),
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

    def test_rerun_with_fewer_trials_drops_the_later_trials(self, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "runF"
        for trials_k in (3, 2):
            cfg.write_text(json.dumps(dict(TINY_RUN, trials_k=trials_k)))
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert {row["k"] for row in json.loads((out / "report.json").read_text())} == {2}
        assert not list(out.rglob("trial002*"))
        artifacts = json.loads((out / "run_manifest.json").read_text())["artifacts"]
        assert not [rel for rel in artifacts if "trial002" in rel]

    def test_rerun_with_fewer_programs_drops_the_later_programs(self, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "runG"
        for n_programs in (3, 2):
            cfg.write_text(json.dumps(dict(TINY_RUN, n_programs=n_programs)))
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert {row["program"] for row in json.loads((out / "report.json").read_text())} == {0, 1}
        assert not [p for p in out.rglob("*") if "prog002" in str(p.relative_to(out))]
        artifacts = json.loads((out / "run_manifest.json").read_text())["artifacts"]
        assert not [rel for rel in artifacts if "prog002" in rel]

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
        seed, gives its campaigns; ``estimate`` with seed S_0 + k on trial k's
        log gives the run's estimates of the whole log; ``sensitivity`` with
        S_0 gives its verdicts, and ``evaluate`` its report rows.  The run
        keeps the default ``bootstrap_b`` and level 0.9, the commands take
        that ``bootstrap_b``, and the bootstrap estimator's interval depends
        on the seed."""
        config = dict(TINY_RUN, bootstrap_b=cli.DEFAULT_EXPERIMENT["bootstrap_b"],
                      ci_level=0.9, estimators=["chao2", "jk1", "bootstrap"])
        boot_b = ["--bootstrap-b", str(config["bootstrap_b"])]
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
        assert main(["estimate", "--incidence", str(logs[0]),
                     "--methods", ",".join(config["estimators"]),
                     "--seed", str(derive_seed(master, "sensitivity:0") + 0), *boot_b,
                     "--out", str(est)]) == EXIT_OK
        rows = list(csv.DictReader((run / "estimates/prog000/trial000.csv").open()))
        assert (list(csv.DictReader(est.open()))
                == [r for r in rows if r["t"] == str(t)])
        ver = tmp_path / "v.csv"
        assert main(["sensitivity", "--logs", str(run / "incidence/prog000"),
                     "--unit-sizes", ",".join(map(str, config["unit_sizes"])),
                     "--methods", ",".join(config["estimators"]),
                     "--seed", str(derive_seed(master, "sensitivity:0")), *boot_b,
                     "--out", str(ver)]) == EXIT_OK
        assert ver.read_bytes() == (run / "verdicts_prog000.csv").read_bytes()
        report = tmp_path / "r.csv"
        assert main(["evaluate", "--truth", str(run / "grammars/prog000/elements.txt"),
                     "--estimates", str(run / "estimates/prog000"),
                     "--out", str(report)]) == EXIT_OK
        run_rows = [{k: v for k, v in r.items() if k not in ("program", "true_s")}
                    for r in csv.DictReader((run / "report.csv").open()) if r["program"] == "0"]
        assert list(csv.DictReader(report.open())) == run_rows


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
        assert [(m["generate_workers"], m["fuzz_workers"]) for m in manifests] == [(1, 1),
                                                                                   (2, 2)]

    def test_resumed_run_fuzzes_nothing(self, tmp_path, monkeypatch):
        _, out = _pool_run(tmp_path, monkeypatch, 2)
        before = _files(out)
        rc, _ = _pool_run(tmp_path, monkeypatch, 2)
        assert rc == EXIT_OK
        assert json.loads((out / "run_manifest.json").read_text())["fuzz_workers"] == 0
        after = _files(out)
        assert before.keys() == after.keys()
        assert all(before[k] == after[k] for k in before if k != "run_manifest.json")

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), CampaignError("bad campaign")],
                             ids=["runtime", "config"])
    def test_failing_campaign_stops_the_run_the_same_way(self, tmp_path, monkeypatch, exc):
        """A failed campaign stops its own program after the fuzz stage, on
        one worker or two, whatever it raised; the other programs finish and
        the run exits 3."""
        _fail_on(monkeypatch, derive_seed(POOL_RUN["master_seed"], "campaign:1", 1), exc)
        files = []
        for cpus in (1, 2):
            rc, out = _pool_run(tmp_path, monkeypatch, cpus)
            assert rc == EXIT_PARTIAL
            files.append({k: v for k, v in _files(out).items() if k != "run_manifest.json"})
        assert files[0] == files[1]
        assert "incidence/prog001/trial000.units.txt" in files[0]
        assert not [name for name in files[0] if "prog001/trial001" in name]
        assert "incidence/prog001/.stage.digest" not in files[0]
        assert not (out / "estimates/prog001").exists()
        for b in (0, 1, 2):
            assert (f"estimates/prog{b:03d}/.stage.digest" in files[0]) == (b != 1)
            assert (f"verdicts_prog{b:03d}.csv" in files[0]) == (b != 1)
        assert {row["program"] for row in json.loads(files[0]["report.json"])} == {0, 2}
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["failed_trials"] == {"prog001": [1]}

    def test_rerun_after_a_failed_campaign_fuzzes_only_its_program(self, tmp_path, monkeypatch):
        """The program with the failed campaign has no marker, so a rerun
        fuzzes it, and only it, and ends with the files of a clean run."""
        real = cli.run_campaign
        _fail_on(monkeypatch, derive_seed(POOL_RUN["master_seed"], "campaign:1", 1),
                 RuntimeError("boom"))
        rc, out = _pool_run(tmp_path, monkeypatch, 2)
        assert rc == EXIT_PARTIAL
        monkeypatch.setattr(cli, "run_campaign", real)
        rc, _ = _pool_run(tmp_path, monkeypatch, 2)
        assert rc == EXIT_OK
        resumed = json.loads((out / "run_manifest.json").read_text())
        assert set(resumed["parser_runs"]) == {"prog001"}
        assert resumed["failed_trials"] == {}
        rc, clean = _pool_run(tmp_path, monkeypatch, 1)
        assert rc == EXIT_OK
        assert resumed["artifacts"] == json.loads(
            (clean / "run_manifest.json").read_text())["artifacts"]

    def test_failed_program_loses_its_earlier_results(self, tmp_path, monkeypatch):
        """A program whose campaign fails keeps no estimates or verdicts from an
        earlier run, so the report, the verdicts and the manifest agree."""
        rc, out = _pool_run(tmp_path, monkeypatch, 2)
        assert rc == EXIT_OK
        config = dict(POOL_RUN, bootstrap_b=POOL_RUN["bootstrap_b"] + 1)
        _fail_on(monkeypatch, derive_seed(config["master_seed"], "campaign:1", 0),
                 RuntimeError("boom"))
        rc, _ = _pool_run(tmp_path, monkeypatch, 2, config)
        assert rc == EXIT_PARTIAL
        stale = ["estimates/prog001", "verdicts_prog001.csv", "incidence/prog001/.stage.digest",
                 "incidence/prog001/trial000.units.txt"]
        assert not [rel for rel in stale if (out / rel).exists()]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert not [rel for rel in manifest["artifacts"] if rel.startswith(tuple(stale))]
        assert {row["program"] for row in json.loads((out / "report.json").read_text())} == {0, 2}

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

    def test_fuzz_with_fewer_trials_drops_the_later_trials(self, tmp_path, program_dir):
        out = tmp_path / "logs"
        for trials in ("3", "2"):
            assert main(["fuzz", "--program", str(program_dir), "--trials", trials,
                         "--budget", "300", "--unit-size", "10", "--seed", "1",
                         "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "trial000.summary.json", "trial000.units.txt",
            "trial001.summary.json", "trial001.units.txt",
        ]


def _count_compiles(monkeypatch, log):
    """Append the pid of each runner compile, in this process or a forked
    worker, to the file ``log``."""
    real = codegen._runner_code

    def counting(program):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(program)

    monkeypatch.setattr(codegen, "_runner_code", counting)


class TestGeneratePool:
    def test_run_compiles_each_runner_once_in_the_generate_workers(self, tmp_path, monkeypatch):
        log = tmp_path / "compiles"
        _count_compiles(monkeypatch, log)
        rc, _ = _pool_run(tmp_path, monkeypatch, 2)
        assert rc == EXIT_OK
        pids = log.read_text().split()
        assert len(pids) == POOL_RUN["n_programs"]
        assert str(os.getpid()) not in pids

    def test_fuzz_compiles_its_runner_once_before_the_workers_fork(self, tmp_path, monkeypatch,
                                                                   program_dir):
        _cpus(monkeypatch, 2)
        log = tmp_path / "compiles"
        _count_compiles(monkeypatch, log)
        assert _fuzz(program_dir, tmp_path / "f") == EXIT_OK
        assert log.read_text().split() == [str(os.getpid())]

    @pytest.mark.parametrize("case", ["config", "runtime"])
    def test_failed_generation_ends_the_run_the_same_way(self, tmp_path, monkeypatch, caplog,
                                                         case):
        """A program that cannot be generated ends the run before the fuzz
        stage, with the same exit code and error on one worker or two."""
        config = POOL_RUN
        if case == "config":  # no grammar of one rule per nonterminal over one byte
            config = dict(POOL_RUN, generation={
                "n_nonterminals": 3, "alphabet_size": 1, "rules_per_nonterminal": [1, 1],
                "max_attempts": 5})
        else:
            real = cli.generate_grammar
            seed = derive_seed(POOL_RUN["master_seed"], "grammar", 1)

            def generate_grammar(gen):
                if gen.seed == seed:
                    raise RuntimeError("boom")
                return real(gen)

            monkeypatch.setattr(cli, "generate_grammar", generate_grammar)
        errors = []
        for cpus in (1, 2):
            caplog.clear()
            rc, out = _pool_run(tmp_path, monkeypatch, cpus, config)
            assert not (out / "incidence").exists()
            errors.append([(r.getMessage(), r.exc_info is None)
                           for r in caplog.records if r.levelno >= logging.ERROR])
            assert rc == (EXIT_CONFIG if case == "config" else EXIT_RUNTIME)
        assert errors[0] == errors[1]
        if case == "config":
            TestExitCodes.assert_one_line_error(
                caplog, "generation failed after 5 attempts; binding constraint: "
                "a generated nonterminal is not productive")


# Method shards of the estimate and sensitivity stages.
SHARD_RUN = dict(TINY_RUN, n_programs=2, estimators=["chao2", "unpmle", "pnpmle", "jk1"],
                 bootstrap_b=20)


def _fail_shard(monkeypatch, method, seeds, ts, exc):
    """Make the estimate batch of ``method`` raise ``exc`` when its jobs with
    one of ``seeds`` are at the unit counts ``ts``, no more and no fewer."""
    real = cli.estimate_many

    def fail(jobs, *args, **kwargs):
        if {matrix.t for matrix, m, seed in jobs if m == method and seed in seeds} == ts:
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
                       seed=derive_seed(SHARD_RUN["master_seed"], "sensitivity:1") + 1)
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
        # A row reads back as the record it was written from.  Its diagnostics
        # went through JSON, which need not give back equal values (a NaN, or
        # a value written with ``default=str``).
        assert ([replace(evaluation._row_to_estimate(r), diagnostics=None) for r in rows]
                == [replace(e, diagnostics=None) for e in expected])
        rows = list(csv.DictReader(io.StringIO(outputs[0][1].decode())))
        assert [r["method"] for r in rows] == ["jk1"] * 3 + ["chao2"] * 3 + ["ice"] * 3

    @pytest.mark.parametrize("stage,method,exc,code", [
        ("estimates", "pnpmle", RuntimeError("boom"), EXIT_RUNTIME),
        ("sensitivity", "unpmle", ValueError("bad shard"), EXIT_CONFIG),
    ])
    def test_failing_shard_keeps_earlier_programs(self, tmp_path, monkeypatch, stage, method,
                                                  exc, code):
        # Program 1's trials draw from the same seeds in both stages, so the
        # stage is told by its jobs' unit counts: the estimate stage's are its
        # checkpoints, and the sensitivity stage's are unit size 20's 20
        # units, as it takes size 10's from the estimate stage.
        ts = {"estimates": {5, 10, 20, 40}, "sensitivity": {20}}[stage]
        seed = derive_seed(SHARD_RUN["master_seed"], "sensitivity:1")
        _fail_shard(monkeypatch, method, {seed, seed + 1}, ts, exc)
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
        real = cli._fuzz_stage

        def fuzz_stage(*args):
            # The generate stage pools its two programs; the fuzz stage
            # resumes, and nothing after the generate stage may start a pool.
            _no_pool(monkeypatch)
            return real(*args)

        monkeypatch.setattr(cli, "_fuzz_stage", fuzz_stage)
        rc, _ = _pool_run(tmp_path, monkeypatch, 2, config)
        assert rc == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert (manifest["generate_workers"], manifest["fuzz_workers"],
                manifest["estimate_workers"], manifest["sensitivity_workers"]) == (2, 0, 1, 1)
        after = _files(out)
        assert all(after[k] == before[k] for k in before if k != "run_manifest.json")
        est = tmp_path / "e.csv"
        assert main(["estimate", "--incidence", str(FIXTURE_LOG), "--methods", "chao2_bc",
                     "--out", str(est)]) == EXIT_OK
        assert main(["sensitivity", "--logs", str(out / "incidence/prog000"),
                     "--unit-sizes", "10,20", "--methods", "chao2_bc",
                     "--out", str(tmp_path / "v.csv")]) == EXIT_OK


# ---------------------------------------------------------------------------
# Each estimate once: trial k of program b draws from seed S_b + k in both
# estimator stages, and the sensitivity stage takes its base-size estimates
# from the estimate stage's rows of the whole logs.
# ---------------------------------------------------------------------------

def _record_jobs(monkeypatch):
    """The (matrix, method, seed) jobs sent to ``estimate_many`` in this
    process, each matrix as its t, element ids and W bytes."""
    jobs, real = [], cli.estimate_many

    def recording(batch, *args, **kwargs):
        jobs.extend((m.t, m.element_ids, m.w.tobytes(), method, seed)
                    for m, method, seed in batch)
        return real(batch, *args, **kwargs)

    monkeypatch.setattr(cli, "estimate_many", recording)
    return jobs


def _trials(out, b):
    return [build_incidence_matrix(parse_units(p.read_text()))
            for p in sorted((out / f"incidence/prog{b:03d}").glob("*.units.txt"))]


class TestEachEstimateOnce:
    def test_run_makes_each_estimate_once(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 1)
        jobs = _record_jobs(monkeypatch)
        out = tmp_path / "run"
        assert run_experiment({}, out) == EXIT_OK
        # 12 methods x 2 trials x (4 checkpoints + unit size 20); unit size
        # 10's jobs are the estimate stage's at t = 1000.
        assert len(jobs) == 12 * 2 * 5
        assert len(set(jobs)) == len(jobs)
        cfg = cli.ExperimentConfig()
        seed = derive_seed(cfg.master_seed, "sensitivity:0")
        assert {job[-1] for job in jobs} == {seed, seed + 1}  # S_0 + k
        cli._write_verdicts(tmp_path / "v.csv", sensitivity_analysis(
            _trials(out, 0), list(cfg.unit_sizes), ALL_METHODS, alpha=cfg.alpha,
            level=cfg.ci_level, base_r=cfg.campaign.unit_size_r, seed=seed,
            boot_b=cfg.bootstrap_b))
        assert (tmp_path / "v.csv").read_bytes() == (out / "verdicts_prog000.csv").read_bytes()

    def test_rerun_takes_the_estimates_it_wrote(self, tmp_path, monkeypatch):
        _, out = _pool_run(tmp_path, monkeypatch, 1, SHARD_RUN)
        before = _files(out)
        jobs = _record_jobs(monkeypatch)
        rc, _ = _pool_run(tmp_path, monkeypatch, 1, SHARD_RUN)
        assert rc == EXIT_OK
        after = _files(out)
        assert {k: v for k, v in after.items() if k != "run_manifest.json"} == {
            k: v for k, v in before.items() if k != "run_manifest.json"}
        # Both markers hold: only unit size 20's 20-unit jobs are estimated.
        assert {t for t, *_ in jobs} == {20}
        assert len(jobs) == 2 * 2 * len(SHARD_RUN["estimators"])

    def test_checkpoints_without_t_max_give_the_sensitivity_commands_verdicts(
            self, tmp_path, monkeypatch):
        config = dict(TINY_RUN, checkpoints=[5, 20], bootstrap_b=500,
                      estimators=["chao2", "jk1", "bootstrap"])
        rc, out = _pool_run(tmp_path, monkeypatch, 1, config)
        assert rc == EXIT_OK
        rows = list(csv.DictReader((out / "estimates/prog000/trial000.csv").open()))
        assert {r["t"] for r in rows} == {"5", "20"}
        ver = tmp_path / "v.csv"
        assert main(["sensitivity", "--logs", str(out / "incidence/prog000"),
                     "--unit-sizes", "10,20", "--methods", ",".join(config["estimators"]),
                     "--seed", str(derive_seed(config["master_seed"], "sensitivity:0")),
                     "--out", str(ver)]) == EXIT_OK
        assert ver.read_bytes() == (out / "verdicts_prog000.csv").read_bytes()
