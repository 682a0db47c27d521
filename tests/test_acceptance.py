"""Acceptance gate: the eleven release criteria with pinned tolerances.

Each test is one criterion, numbered in its name.  Oracles are independent
of the implementation: exhaustive input-space walks and fuzzing for ground
truth, a compiled C parser for the codegen differential, hand-derived
constants and the formula transcriptions in ``reference_estimators`` for
the estimators, scipy for the statistical tests, and a Bernoulli product
simulation with known richness for CI coverage.
"""

import json
import random
import struct
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import reference_estimators as ref
from conftest import exhaustive_coverage
from reachbench.cli import EXIT_OK, run_experiment
from reachbench.codegen import (
    _c_name,
    compile_to_parser,
    execute_parser,
    interpret_parser,
    export_c_source,
)
from reachbench.estimators import ALL_METHODS, EstimateWithCI, estimate, point_estimate
from reachbench.evaluation import (
    BernoulliProductModel,
    TrialResult,
    imprecision,
    mean_bias,
    sensitivity_analysis,
    simulate_incidence,
)
from reachbench.fuzzer import (
    CampaignConfig,
    MutationPolicy,
    generate_seed_corpus,
    mutate_input,
    run_campaign,
)
from reachbench.grammargen import GenConfig, generate_grammar
from reachbench.incidence import build_incidence_matrix, frequency_counts, rebin
from reachbench.stattests import mann_whitney_u, shapiro_wilk, welch_t_test
from test_estimators import mkcounts


def test_criterion_01_ground_truth_exact_small_scale():
    """20 small grammars: exhaustive coverage over inputs of length <= 8
    equals the computed ground truth with zero discrepancies."""
    t0 = time.perf_counter()
    for seed in range(20):
        cfg = GenConfig(
            seed=seed, n_nonterminals=3 + seed % 4, alphabet_size=4,
            rules_per_nonterminal=(1, 2), rule_length=(0, 1), n_dead_branches=1,
        )
        grammar, label = generate_grammar(cfg)
        program = compile_to_parser(grammar, label)
        covered = exhaustive_coverage(program, grammar, 8)
        assert covered == program.ground_truth, (
            f"seed {seed}: discrepancies {sorted(covered ^ program.ground_truth)}"
        )
    assert time.perf_counter() - t0 < 120


def test_criterion_02_ground_truth_sound_medium_scale():
    """10 grammars of 50-200 nonterminals, 10^6 fuzzed executions total:
    nothing outside ground truth, and no injected dead/unreachable element
    is ever covered."""
    t0 = time.perf_counter()
    for i in range(10):
        n = 50 + (150 * i) // 9
        cfg = GenConfig(
            seed=100 + i, n_nonterminals=n, alphabet_size=24,
            n_unreachable=max(2, n // 20), n_dead_branches=5,
        )
        grammar, label = generate_grammar(cfg)
        program = compile_to_parser(grammar, label)
        corpus = generate_seed_corpus(grammar, 20, 25, i)
        clog = run_campaign(
            program, corpus,
            CampaignConfig(trial_seed=i, budget_n=100_000, unit_size_r=1000),
        )
        covered = clog.discovered()
        assert covered <= program.ground_truth, (
            f"grammar {i}: out-of-truth elements "
            f"{sorted(covered - program.ground_truth)}"
        )
        dead = {el.id for el in program.elements if el.kind == "dead-guard"}
        unreachable_arms = {
            el.id for el in program.elements
            if el.kind == "rule-arm" and el.origin in label.unreachable_rules
        }
        assert covered.isdisjoint(dead)
        assert covered.isdisjoint(unreachable_arms)
    assert time.perf_counter() - t0 < 600


_BATCH_HARNESS = """
#define main parser_single_main
#include "parser.c"
#undef main
#include <string.h>

int main(void) {
  unsigned char lenbuf[4];
  static unsigned char buf[1 << 16];
  unsigned i;
  while (fread(lenbuf, 1, 4, stdin) == 4) {
    size_t n = ((size_t)lenbuf[0] << 24) | ((size_t)lenbuf[1] << 16)
             | ((size_t)lenbuf[2] << 8) | (size_t)lenbuf[3];
    if (n > sizeof buf || fread(buf, 1, n, stdin) != n) return 2;
    inp = buf; inp_len = n; pos = 0;
    memset(hit, 0, sizeof hit);
    int err = START();
    int ok = !err && pos == inp_len;
    printf(ok ? "A" : "R");
    for (i = 0; i < N_ELEMENTS; i++) if (hit[i]) printf(" %u", i);
    printf("\\n");
  }
  return 0;
}
"""


def test_criterion_03_codegen_differential(tmp_path):
    """Reference interpreter vs exported-and-compiled C parser: identical
    covered sets and verdicts on 10^4 random inputs for each of 5 programs;
    and the generated parser's results equal the interpreter's."""
    for pi in range(5):
        cfg = GenConfig(seed=pi, n_nonterminals=6 + pi, alphabet_size=10,
                        n_dead_branches=2)
        grammar, label = generate_grammar(cfg)
        program = compile_to_parser(grammar, label)
        pdir = tmp_path / f"p{pi}"
        pdir.mkdir()
        (pdir / "parser.c").write_text(export_c_source(program))
        (pdir / "harness.c").write_text(
            _BATCH_HARNESS.replace("START", _c_name(program.start))
        )
        subprocess.run(
            ["cc", "-O2", "-o", str(pdir / "harness"), str(pdir / "harness.c"),
             "-I", str(pdir)],
            check=True, capture_output=True,
        )
        rng = random.Random(pi)
        corpus = generate_seed_corpus(grammar, 20, 20, pi)
        policy = MutationPolicy()
        inputs = [
            mutate_input(corpus.inputs[rng.randrange(len(corpus.inputs))],
                         policy, rng, corpus.inputs)
            for _ in range(10_000)
        ]
        blob = b"".join(struct.pack(">I", len(d)) + d for d in inputs)
        proc = subprocess.run([str(pdir / "harness")], input=blob,
                              capture_output=True, check=True)
        lines = proc.stdout.decode().splitlines()
        assert len(lines) == len(inputs)
        mismatches = gen_mismatches = 0
        for data, line in zip(inputs, lines):
            parts = line.split()
            c_verdict = "accept" if parts[0] == "A" else "reject"
            c_covered = frozenset(int(x) for x in parts[1:])
            res = interpret_parser(program, data)
            if res.verdict != c_verdict or res.covered != c_covered:
                mismatches += 1
            if execute_parser(program, data) != res:
                gen_mismatches += 1
        assert mismatches == 0, f"program {pi}: {mismatches} mismatches"
        assert gen_mismatches == 0, f"program {pi}: {gen_mismatches} generated-parser mismatches"


def test_criterion_04_estimator_formula_fixtures():
    """Hand-derived constants, recomputed by the independent transcription."""
    base = mkcounts(20, {1: 10, 2: 5, 10: 85})  # t=20, S_obs=100
    pinned = {
        "chao2": (109.5, 1e-9),
        "chao2_bc": (107.125, 1e-9),
        "jk1": (109.5, 1e-9),
        "jk2": (114.2368421052632, 1e-9),
        "zelterman": (158.1976706869326, 1e-3),
    }
    reference = {
        "chao2": ref.ref_chao2, "chao2_bc": ref.ref_chao2_bc,
        "jk1": ref.ref_jk1, "jk2": ref.ref_jk2, "zelterman": ref.ref_zelterman,
    }
    for method, (expected, tol) in pinned.items():
        point, status, _ = point_estimate(base, method)
        assert status == "ok"
        assert abs(point - expected) <= tol, method
        assert abs(reference[method](base.t, base.f) - expected) <= tol, method

    boot = mkcounts(2, {1: 1, 2: 1})
    point, _, _ = point_estimate(boot, "bootstrap")
    assert abs(point - 2.25) <= 1e-9
    assert abs(ref.ref_bootstrap(2, [1, 2]) - 2.25) <= 1e-9


def test_criterion_05_reference_cross_validation(fixture_matrix):
    """Closed-form estimators within 1e-6 relative of the independent
    reference on the bundled incidence fixture; EM estimators within 1e-3
    relative with matching support-point counts."""
    counts = frequency_counts(fixture_matrix)
    t, f = counts.t, counts.f
    closed = {
        "ichao2": ref.ref_ichao2(t, f),
        "ice": ref.ref_ice(t, f),
        "ice1": ref.ref_ice(t, f, bias_corrected=True),
        "chao_bunge": ref.ref_chao_bunge(t, f),
    }
    for method, expected in closed.items():
        point, status, _ = point_estimate(counts, method)
        assert status == "ok"
        assert point == pytest.approx(expected, rel=1e-6), method

    for method, penalized in (("unpmle", False), ("pnpmle", True)):
        point, status, diagnostics = point_estimate(counts, method)
        expected, n_support = ref.ref_npmle(t, f, penalized=penalized)
        assert status == "ok"
        assert point == pytest.approx(expected, rel=1e-3), method
        assert diagnostics["support_points"] == n_support, method


def test_criterion_06_simulation_oracle_ci_coverage():
    """Homogeneous Bernoulli model (S=200, pi=0.05, t=100), 1000 replicates:
    Chao2's 90% CI covers in [0.85, 0.95]; |mean_bias| < 0.05."""
    t0 = time.perf_counter()
    true_s = 200
    model = BernoulliProductModel.homogeneous(true_s, 0.05, 100)
    hits = 0
    bias_sum = 0.0
    n_rep = 1000
    for i in range(n_rep):
        matrix = simulate_incidence(model, i)
        res = estimate(matrix, "chao2", level=0.90)
        assert res.status == "ok"
        if res.ci_low <= true_s <= res.ci_high:
            hits += 1
        bias_sum += (res.point - true_s) / true_s
    coverage = hits / n_rep
    assert 0.85 <= coverage <= 0.95, f"empirical coverage {coverage}"
    assert abs(bias_sum / n_rep) < 0.05
    assert time.perf_counter() - t0 < 300


def test_criterion_07_bias_and_imprecision_identities():
    def trials(points):
        return [
            TrialResult(i, "chao2", 10,
                        EstimateWithCI("chao2", p, p, p, 0.9, "ok"))
            for i, p in enumerate(points)
        ]

    # Symmetric estimates around S: bias cancels to exactly zero.
    assert mean_bias(trials([90.0, 110.0]), 100.0) == 0.0
    assert mean_bias(trials([70.0, 100.0, 130.0]), 100.0) == 0.0
    # Identical estimates: zero imprecision.
    assert imprecision(trials([123.0, 123.0, 123.0]), 100.0) == 0.0
    # Worked values.
    assert mean_bias(trials([110.0, 120.0, 115.0]), 100.0) == pytest.approx(
        0.15, abs=1e-12)
    assert mean_bias(trials([98.0, 106.0]), 100.0) == pytest.approx(
        0.02, abs=1e-12)


def test_criterion_08_rebinning_correctness():
    rng = np.random.default_rng(0)
    for trial in range(100):
        t = int(rng.integers(4, 33))
        units = [
            frozenset(int(e) for e in rng.choice(30, rng.integers(0, 7),
                                                 replace=False))
            for _ in range(t)
        ]
        matrix = build_incidence_matrix(units)
        for m in (1, 2, 4):
            if m > t:
                continue
            merged = rebin(matrix, m)
            t_new = t // m
            brute = [
                frozenset().union(*units[j * m:(j + 1) * m]) for j in range(t_new)
            ]
            assert merged.t == t_new
            assert merged.units() == brute
            if t % m == 0:
                before = {i for u in units for i in u}
                after = {i for u in merged.units() for i in u}
                assert after == before


def test_criterion_09_statistical_tests_vs_reference():
    rng = np.random.default_rng(42)
    sizes = (5, 8, 12, 25, 40)
    for idx in range(20):
        na, nb = rng.choice(sizes, 2)
        if idx % 3 == 0:
            a, b = rng.normal(0, 1, na), rng.normal(0.4, 1.5, nb)
        elif idx % 3 == 1:
            a, b = rng.exponential(1, na), rng.exponential(1.4, nb)
        else:
            a, b = rng.uniform(0, 1, na), rng.uniform(0.2, 1.1, nb)

        _, _, p_welch = welch_t_test(a, b)
        assert p_welch == pytest.approx(
            scipy.stats.ttest_ind(a, b, equal_var=False).pvalue, abs=1e-6)

        _, p_sw = shapiro_wilk(a)
        assert p_sw == pytest.approx(scipy.stats.shapiro(a).pvalue, abs=1e-6)

        _, p_mw = mann_whitney_u(a, b)
        tie_free = len(np.unique(np.concatenate([a, b]))) == na + nb
        if tie_free and na <= 20 and nb <= 20:
            p_ref = scipy.stats.mannwhitneyu(a, b, method="exact").pvalue
        else:
            p_ref = scipy.stats.mannwhitneyu(
                a, b, method="asymptotic", use_continuity=True).pvalue
        assert p_mw == pytest.approx(p_ref, abs=1e-6)

    # Trivial identity: identical samples give Welch p = 1 exactly.
    sample = list(rng.normal(0, 1, 10))
    _, _, p = welch_t_test(sample, sample)
    assert p == 1.0


def test_criterion_10_rq2_machinery():
    t0 = time.perf_counter()
    # Part 1: identical data under identical binning is always reliable.
    model = BernoulliProductModel(
        45, (0.7,) * 8 + (0.25,) * 12 + (0.08,) * 15 + (0.02,) * 10, 25)
    trials = [simulate_incidence(model, s) for s in range(6)]
    verdicts = sensitivity_analysis(trials, [1, 1], ALL_METHODS, boot_b=60)
    assert len(verdicts) == len(ALL_METHODS)
    for v in verdicts:
        assert not v.inconclusive, v.method
        assert v.reliable, v.method
        assert v.p_value == 1.0, v.method

    # Part 2: power — strongly heterogeneous detection probabilities make
    # singleton-driven estimators disagree across binnings.
    model = BernoulliProductModel(
        120, (0.5,) * 20 + (0.02,) * 40 + (0.004,) * 60, 128)
    trials = [simulate_incidence(model, 1000 + s) for s in range(50)]
    verdicts = sensitivity_analysis(
        trials, [1, 8], ["chao2", "jk1", "jk2", "bootstrap"], boot_b=100)
    unreliable = [v.method for v in verdicts
                  if not v.inconclusive and not v.reliable]
    assert unreliable, "no estimator flagged unreliable: the test has no power"
    assert time.perf_counter() - t0 < 300


def test_criterion_11_end_to_end_determinism_and_smoke(tmp_path):
    # Defaults are the smoke config: 1 program, K=2, N=10^4, unit sizes 10/20.
    t0 = time.perf_counter()
    assert run_experiment({}, tmp_path / "runA") == EXIT_OK
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"smoke run took {elapsed:.1f}s"
    assert run_experiment({}, tmp_path / "runB") == EXIT_OK

    incidence_a = sorted((tmp_path / "runA" / "incidence").rglob("*.units.txt"))
    incidence_b = sorted((tmp_path / "runB" / "incidence").rglob("*.units.txt"))
    assert incidence_a and len(incidence_a) == len(incidence_b)
    for pa, pb in zip(incidence_a, incidence_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name

    # The rest of the artifact tree is digest-identical too.
    ma = json.loads((tmp_path / "runA" / "run_manifest.json").read_text())
    mb = json.loads((tmp_path / "runB" / "run_manifest.json").read_text())
    assert ma["artifacts"] == mb["artifacts"]
