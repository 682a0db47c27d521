"""Accuracy metrics, simulation oracle, and the rebinning sensitivity analysis."""

import math

import numpy as np
import pytest

from reachbench.estimators import EstimateWithCI
from reachbench.evaluation import (
    BernoulliProductModel,
    EvaluationError,
    TrialResult,
    ci_coverage,
    imprecision,
    mean_bias,
    sensitivity_analysis,
    simulate_incidence,
)
from reachbench.incidence import build_incidence_matrix, frequency_counts


def mktrial(i, point, lo=None, hi=None, status="ok"):
    lo = point if lo is None else lo
    hi = point if hi is None else hi
    est = EstimateWithCI("chao2", point, lo, hi, 0.90, status)
    return TrialResult(trial=i, method="chao2", t=10, estimate=est)


class TestMetrics:
    def test_mean_bias_hand_worked(self):
        trials = [mktrial(0, 110.0), mktrial(1, 120.0), mktrial(2, 115.0)]
        assert mean_bias(trials, 100.0) == pytest.approx(0.15)
        assert mean_bias([mktrial(0, 98.0), mktrial(1, 106.0)], 100.0) == pytest.approx(0.02)

    def test_mean_bias_zero_for_exact_estimates(self):
        assert mean_bias([mktrial(0, 50.0)], 50.0) == 0.0

    def test_mean_bias_errors(self):
        with pytest.raises(EvaluationError):
            mean_bias([], 10.0)
        with pytest.raises(EvaluationError):
            mean_bias([mktrial(0, 5.0)], 0.0)

    def test_imprecision_hand_worked(self):
        trials = [mktrial(0, 110.0), mktrial(1, 120.0)]
        # biases 0.1 and 0.2; sample variance = 0.005
        assert imprecision(trials, 100.0) == pytest.approx(0.005)

    def test_imprecision_needs_two_trials(self):
        with pytest.raises(EvaluationError):
            imprecision([mktrial(0, 110.0)], 100.0)

    def test_ci_coverage_counts_hits_and_failures(self):
        trials = [
            mktrial(0, 105.0, 95.0, 110.0),   # hit
            mktrial(1, 120.0, 115.0, 130.0),  # miss
            mktrial(2, 99.0, 90.0, 101.0),    # hit
            mktrial(3, float("nan"), status="failed"),
        ]
        cov, n_failed = ci_coverage(trials, 100.0)
        assert cov == pytest.approx(2 / 3)
        assert n_failed == 1

    def test_ci_coverage_all_failed(self):
        cov, n_failed = ci_coverage([mktrial(0, float("nan"), status="failed")], 10.0)
        assert math.isnan(cov) and n_failed == 1


class TestSimulation:
    def test_deterministic_per_seed(self):
        model = BernoulliProductModel.homogeneous(50, 0.3, 20)
        assert simulate_incidence(model, 4) == simulate_incidence(model, 4)
        assert simulate_incidence(model, 4) != simulate_incidence(model, 5)

    def test_moments_match_model(self):
        model = BernoulliProductModel.homogeneous(200, 0.3, 50)
        m = simulate_incidence(model, 1)
        counts = frequency_counts(m)
        assert counts.s_obs <= 200
        # Mean detection rate over all S*t cells, absent rows included.
        rate = counts.total_incidence / (200 * 50)
        assert rate == pytest.approx(0.3, abs=0.02)

    def test_rare_elements_sometimes_unobserved(self):
        model = BernoulliProductModel.homogeneous(100, 0.01, 5)
        m = simulate_incidence(model, 2)
        assert len(m.element_ids) < 100

    def test_certain_detection(self):
        model = BernoulliProductModel.homogeneous(10, 1.0, 4)
        m = simulate_incidence(model, 0)
        counts = frequency_counts(m)
        assert counts.s_obs == 10 and counts.f == {4: 10}

    @pytest.mark.parametrize(
        "kw",
        [
            dict(s=3, pi=(0.5, 0.5), t=4),
            dict(s=2, pi=(0.5, 0.0), t=4),
            dict(s=2, pi=(0.5, 1.5), t=4),
            dict(s=2, pi=(0.5, 0.5), t=0),
        ],
    )
    def test_invalid_models_rejected(self, kw):
        with pytest.raises(EvaluationError):
            BernoulliProductModel(**kw).validate()


class TestSensitivity:
    def test_identical_saturated_trials_are_reliable(self):
        # Every element in every unit: estimates are S_obs at both binnings,
        # CIs collapse to the point, and the verdict must be reliable.
        trials = [build_incidence_matrix([frozenset({0, 1, 2})] * 4) for _ in range(3)]
        (v,) = sensitivity_analysis(trials, [1, 2], ["chao2"], boot_b=20)
        assert (v.r_a, v.r_b) == (1, 2)
        assert v.mean_a == v.mean_b == 3.0
        assert v.p_value == 1.0
        assert v.ci_overlap and v.reliable and not v.inconclusive

    def test_majority_failures_inconclusive(self):
        # Saturated data: zelterman's lambda is undefined (f1 = f2 = 0).
        trials = [build_incidence_matrix([frozenset({0, 1})] * 4) for _ in range(3)]
        (v,) = sensitivity_analysis(trials, [1, 2], ["zelterman"])
        assert v.inconclusive
        assert v.n_failed_a == 3 and v.n_failed_b == 3
        assert not v.reliable

    def test_one_verdict_per_method_and_size_pair(self):
        rng = np.random.default_rng(0)
        trials = [
            build_incidence_matrix([frozenset(int(e) for e in rng.choice(20, 5, replace=False))
                                    for _ in range(8)])
            for _ in range(4)
        ]
        verdicts = sensitivity_analysis(trials, [1, 2, 4], ["jk1", "bootstrap"],
                                        boot_b=20)
        keys = {(v.method, v.r_a, v.r_b) for v in verdicts}
        assert len(verdicts) == 6  # 2 methods x 3 size pairs
        assert keys == {(m, a, b) for m in ("jk1", "bootstrap")
                        for a, b in ((1, 2), (1, 4), (2, 4))}
        for v in verdicts:
            assert v.test_used in ("welch", "mann-whitney")
            assert 0.0 <= v.p_value <= 1.0

    def test_unit_size_validation(self):
        trials = [build_incidence_matrix([frozenset({0})] * 4)] * 3
        with pytest.raises(EvaluationError):
            sensitivity_analysis(trials, [2], ["jk1"])
        with pytest.raises(EvaluationError):
            sensitivity_analysis(trials, [2, 3], ["jk1"], base_r=2)

    def test_divergent_binnings_flagged_unreliable(self):
        # Means far apart with tight disjoint CIs must not pass.
        rng = np.random.default_rng(7)
        # Hand-build campaigns where coarse binning reveals many more
        # elements per unit: rare elements each in exactly one unit.
        trials = []
        for _ in range(6):
            units = []
            for j in range(16):
                rare = {100 + 16 * len(trials) + j}
                units.append(frozenset({0, 1} | rare))
            trials.append(build_incidence_matrix(units))
        (v,) = sensitivity_analysis(trials, [1, 8], ["jk1"], boot_b=40)
        # f1 dominates at fine binning: jk1 inflates heavily at r=1 only.
        assert abs(v.mean_a - v.mean_b) > 1.0
        assert not v.reliable
