"""CLI subcommands: stage-by-stage smoke tests, exit codes, run determinism."""

import csv
import json
from pathlib import Path

import pytest

from reachbench.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    derive_seed,
    main,
)
from reachbench.fuzzer import parse_units

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


def test_stagewise_pipeline(tmp_path):
    gdir = tmp_path / "g"
    assert main(["gen-grammar", "--seed", "3", "--out", str(gdir)]) == EXIT_OK
    assert (gdir / "grammar.txt").exists()
    meta = json.loads((gdir / "meta.json").read_text())
    assert meta["true_richness"] > 0

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

    def test_reruns_are_digest_identical(self, tmp_path):
        a = self._run(tmp_path, "runA")
        b = self._run(tmp_path, "runB")
        ma = json.loads((a / "run_manifest.json").read_text())["artifacts"]
        mb = json.loads((b / "run_manifest.json").read_text())["artifacts"]
        assert ma == mb

    def test_resume_skips_finished_stages(self, tmp_path):
        out = self._run(tmp_path, "runC")
        manifest_before = json.loads((out / "run_manifest.json").read_text())
        marker = out / "incidence" / "prog000" / ".stage.digest"
        assert marker.exists()
        cfg = tmp_path / "cfg.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest_after = json.loads((out / "run_manifest.json").read_text())
        assert manifest_before["artifacts"] == manifest_after["artifacts"]

    def test_report_command_prints_rows(self, tmp_path, capsys):
        out = self._run(tmp_path, "runD")
        assert main(["report", "--run", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "chao2" in text and "bias=" in text
