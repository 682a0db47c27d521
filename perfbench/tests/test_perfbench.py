"""The benchmark's own tests: every workload at a tiny size, the tracer, and
each correctness check rejecting a deliberately wrong output.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, trace
from perfbench.run import CHECKOUT, END_TO_END, measure
from perfbench.workloads import FUZZ_LARGE_CONFIG, RunExperiment, Rq2Wide

TINY = {
    # Shorter logs are no quicker to check: on them the reference NPMLE
    # can run to its 100k-iteration cap.
    "smoke": lambda: RunExperiment("smoke", {"bootstrap_b": 20}, seeded=False),
    "fuzz_large": lambda: RunExperiment("fuzz_large", dict(
        FUZZ_LARGE_CONFIG, n_programs=2,
        generation={"n_nonterminals": 20, "alphabet_size": 32,
                    "n_unreachable": 3, "n_dead_branches": 3},
        campaign={"budget_n": 1000, "unit_size_r": 50}), seeded=True),
    "rq2_wide": lambda: Rq2Wide(elements=60, units=40, estimate_units=20, trials_k=3,
                                 unit_sizes=(5, 10)),
}
BENCHMARK = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ref():
    return checks.load_reference(CHECKOUT)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory, ref):
    """One untraced tiny run per workload: (workload, inputs dir, result)."""
    out = {}
    for name, make in TINY.items():
        base = tmp_path_factory.mktemp(name)
        workload = make()
        out[name] = (workload, base, measure(workload, 3, 0, 0, base, ref))
    return out


def _inputs(workload, base):
    return workload.setup(_fresh(base / "inputs_again"), 3)


def _fresh(path):
    if path.exists():
        shutil.rmtree(path)
    path.mkdir()
    return path


def _copy_round(base, tmp_path):
    dest = tmp_path / "round"
    shutil.copytree(base / "round0", dest)
    return dest


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_is_correct(tiny_runs, name):
    _, _, result = tiny_runs[name]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == set(END_TO_END)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_reports_every_layer_metric(tmp_path, ref, name):
    result = measure(TINY[name](), 3, 0, 1, tmp_path, ref)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    spans = json.loads((tmp_path / "trace.json").read_text())["rounds"][0]["spans"]
    assert any(s[0].startswith(trace.ROOT_PREFIX) for s in spans)
    metrics = result["metrics"]
    if name == "fuzz_large":
        assert metrics["codegen.exec_calls"]["value"] == 2 * 2 * 1000
        assert metrics["estimators.em_iterations"]["value"] == 0
    if name == "rq2_wide":
        assert metrics["codegen.exec_calls"]["value"] == 0
        assert metrics["estimators.em_iterations"]["value"] > 0


def test_tracer_self_time_and_uninstall():
    import reachbench.cli as cli
    import reachbench.estimators as estimators
    import reachbench.fuzzer as fuzzer

    spans = [["op:run", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
             ["a", 5.0, 6.0, 0]]
    agg = trace.aggregate(spans)
    assert agg["op:run"]["self"] == pytest.approx(6.0)
    assert agg["a"] == {"calls": 2, "total": pytest.approx(4.0), "self": pytest.approx(3.0)}
    original = estimators.estimate
    original_campaign = fuzzer.run_campaign
    assert cli.run_campaign is original_campaign
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert estimators.estimate is not original
        # cli calls run_campaign through its own binding of it.
        assert cli.run_campaign is not original_campaign
    finally:
        tracer.uninstall()
    assert estimators.estimate is original
    assert cli.run_campaign is original_campaign


class _Flaky:
    """A workload whose output changes between rounds and whose second
    operation exits non-zero."""

    name = "flaky"

    def setup(self, workdir, seed):
        return {}

    def operations(self, inputs, round_dir):
        def write():
            (Path(round_dir) / "out.txt").write_text(str(round_dir))
            return 0
        return [("write", write), ("exit", lambda: 2)]

    def check(self, inputs, round_dir, ref):
        return {"write": [], "exit": []}


def test_changed_artifacts_and_exit_codes_fail_operations(tmp_path):
    result = measure(_Flaky(), 1, 0, 0, tmp_path, None)
    assert not result["correct"]
    assert result["attempted"] == 4
    assert result["failed"] == 3  # both ops of round 1, the exit op of round 0


def test_check_rejects_perturbed_closed_form_point(tiny_runs, ref, tmp_path):
    workload, base, _ = tiny_runs["smoke"]
    out = _copy_round(base, tmp_path)
    path = out / "estimates" / "prog000" / "trial001.csv"

    def perturb(rows):
        row = next(r for r in rows if r["method"] == "jk1")
        row["point"] = repr(float(row["point"]) * 1.001)
    _edit_csv(path, perturb)
    failures = workload.check(_inputs(workload, base), out, ref)["run"]
    assert any("jk1: point" in f and "!= reference" in f for f in failures)


def test_check_rejects_perturbed_npmle_point(tiny_runs, ref, tmp_path):
    workload, base, _ = tiny_runs["smoke"]
    out = _copy_round(base, tmp_path)
    path = out / "estimates" / "prog000" / "trial000.csv"

    def perturb(rows):
        t_max = max(int(r["t"]) for r in rows)
        row = next(r for r in rows if r["method"] == "pnpmle" and int(r["t"]) == t_max)
        row["point"] = repr(float(row["point"]) * 1.01)
        row["ci_high"] = repr(float(row["ci_high"]) * 1.01)
    _edit_csv(path, perturb)
    failures = workload.check(_inputs(workload, base), out, ref)["run"]
    assert any("pnpmle: point" in f and "!= reference" in f for f in failures)


def test_check_rejects_dropped_unit(tiny_runs, ref, tmp_path):
    workload, base, _ = tiny_runs["smoke"]
    out = _copy_round(base, tmp_path)
    path = out / "incidence" / "prog000" / "trial000.units.txt"
    units = checks.read_units(path)
    checks.write_units(path, units[:-1])
    failures = workload.check(_inputs(workload, base), out, ref)["run"]
    assert any("units, expected" in f for f in failures)


def test_check_rejects_covered_dead_guard(tiny_runs, ref, tmp_path):
    workload, base, _ = tiny_runs["fuzz_large"]
    out = _copy_round(base, tmp_path)
    table = checks.element_table((out / "grammars" / "prog000" / "grammar.txt").read_text())
    dead = next(i for i, (kind, _) in table.items() if kind == "dead-guard")
    path = out / "incidence" / "prog000" / "trial000.units.txt"
    units = checks.read_units(path)
    units[3].add(dead)
    checks.write_units(path, units)
    failures = workload.check(_inputs(workload, base), out, ref)["run"]
    assert any("covers unreachable elements" in f for f in failures)


def test_check_rejects_wrong_report_metric(tiny_runs, ref, tmp_path):
    workload, base, _ = tiny_runs["smoke"]
    out = _copy_round(base, tmp_path)
    report = json.loads((out / "report.json").read_text())
    report[0]["ci_coverage"] = 0.5 if report[0]["ci_coverage"] != 0.5 else 1.0
    (out / "report.json").write_text(json.dumps(report))
    failures = workload.check(_inputs(workload, base), out, ref)["run"]
    assert any("ci_coverage" in f for f in failures)


def test_check_rejects_wrong_p_value(tiny_runs, ref, tmp_path):
    workload, base, _ = tiny_runs["rq2_wide"]
    out = _copy_round(base, tmp_path)

    def perturb(rows):
        row = next(r for r in rows if r["inconclusive"] == "False")
        row["p_value"] = repr(min(float(row["p_value"]) + 0.01, 1.0) - 0.005)
    _edit_csv(out / "verdicts.csv", perturb)
    failures = workload.check(_inputs(workload, base), out, ref)["sensitivity"]
    assert any("p-value" in f and "!= scipy" in f for f in failures)


def test_check_rejects_point_below_sobs_and_bad_status(tiny_runs, ref, tmp_path):
    workload, base, _ = tiny_runs["rq2_wide"]
    out = _copy_round(base, tmp_path)

    def perturb(rows):
        rows[0]["point"] = rows[0]["ci_low"] = "1.0"
        rows[1]["status"] = "fine"
    _edit_csv(out / "estimates.csv", perturb)
    failures = workload.check(_inputs(workload, base), out, ref)["estimate"]
    assert any("below S_obs" in f for f in failures)
    assert any("invalid status" in f for f in failures)


def test_check_rejects_wrong_rebin():
    from reachbench.incidence import build_incidence_matrix, rebin

    units = [{1, 2}, {2}, {3}, {1}, {4}, set()]
    assert checks.check_rebin(lambda m: rebin(build_incidence_matrix(units), m),
                              units, 2, "log") == []
    wrong = lambda m: build_incidence_matrix(units[::m])  # noqa: E731
    assert checks.check_rebin(wrong, units, 2, "log")


def test_fails_without_program_sources(tmp_path):
    """In a directory holding only the benchmark, the command fails quickly
    and prints no result."""
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(CHECKOUT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
