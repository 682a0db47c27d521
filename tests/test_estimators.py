"""Estimator formulas against hand-worked values, degenerate-input contract, CIs."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachbench.estimators as estimators
from reachbench.cli import derive_seed
from reachbench.estimators import (
    ALL_METHODS,
    EMConfig,
    estimate,
    estimate_all,
    point_estimate,
    point_estimates,
)
from reachbench.evaluation import BernoulliProductModel, simulate_incidence
from reachbench.incidence import FrequencyCounts, build_incidence_matrix, frequency_counts


def mkcounts(t, f):
    y = tuple(sorted(k for k, fk in f.items() for _ in range(fk)))
    return FrequencyCounts(t=t, f=dict(f), s_obs=len(y), y=y)


# t=20, S_obs=100, f1=10, f2=5; the remaining 85 elements are frequent.
BASE = mkcounts(20, {1: 10, 2: 5, 10: 85})


class TestHandWorkedPoints:
    @pytest.mark.parametrize(
        "method,expected",
        [
            ("chao2", 109.5),            # 100 + (19/20) * 10^2 / (2*5)
            ("chao2_bc", 107.125),       # 100 + (19/20) * 10*9 / (2*6)
            ("jk1", 109.5),              # 100 + 10 * 19/20
            ("jk2", 114.2368421052632),  # 100 + 10*37/20 - 5*18^2/380
            ("zelterman", 158.19767068693262),  # lambda=1, 100/(1-e^-1)
        ],
    )
    def test_closed_forms(self, method, expected):
        point, status, _ = point_estimate(BASE, method)
        assert status == "ok"
        assert point == pytest.approx(expected, rel=1e-12)

    def test_chao2_f2_zero_branch(self):
        point, status, diagnostics = point_estimate(mkcounts(10, {1: 3}), "chao2")
        assert status == "ok" and diagnostics["form"] == "f2-zero"
        assert point == pytest.approx(3 + 0.9 * 3 * 2 / 2)  # 5.7

    def test_chao2_no_singletons(self):
        point, status, diagnostics = point_estimate(mkcounts(10, {2: 4}), "chao2")
        assert point == 4.0 and diagnostics["form"] == "no-singletons"

    def test_ichao2_hand_worked(self):
        c = mkcounts(20, {1: 10, 2: 5, 3: 4, 4: 2})
        point, status, _ = point_estimate(c, "ichao2")
        # chao2 = 30.5; extra = (17/80)*(4/2)*(10 - (17/38)*5*(4/2))
        assert status == "ok"
        assert point == pytest.approx(30.5 + 0.2125 * 2 * (10 - (17 / 38) * 10),
                                      rel=1e-12)

    def test_ichao2_f4_substitution(self):
        c = mkcounts(20, {1: 10, 2: 5, 3: 4})
        point, status, diagnostics = point_estimate(c, "ichao2")
        assert status == "ok" and diagnostics["f4_substituted"]

    def test_bootstrap_hand_worked(self):
        c = mkcounts(2, {1: 1, 2: 1})
        point, status, _ = point_estimate(c, "bootstrap")
        assert point == pytest.approx(2.25)  # 2 + 0.5^2 + 0^2

    def test_chao_bunge_hand_worked(self):
        c = mkcounts(20, {1: 2, 2: 3, 5: 5})
        # theta = 2 * (2 + 12 + 125) / 33^2; point = 8 / (1 - theta)
        theta = 2 * 139 / 33 ** 2
        point, status, diagnostics = point_estimate(c, "chao_bunge")
        assert status == "ok"
        assert diagnostics["theta"] == pytest.approx(theta)
        assert point == pytest.approx(8 / (1 - theta), rel=1e-12)


class TestFixtureRegression:
    """Pinned values for the frozen incidence fixture (t=25, S_obs=34)."""

    EXPECTED = {
        "chao2": 43.72,
        "chao2_bc": 40.912,
        "ichao2": 46.06666666666666,
        "jk1": 42.64,
        "jk2": 47.393333333333331,
        "ice": 41.70976223,
        "ice1": 44.39074629,
        "zelterman": 57.73596469,
        "bootstrap": 37.83999406,
        "chao_bunge": 48.47074468,
    }

    @pytest.mark.parametrize("method", sorted(EXPECTED))
    def test_closed_form_methods(self, method, fixture_matrix):
        counts = frequency_counts(fixture_matrix)
        point, status, _ = point_estimate(counts, method)
        assert status == "ok"
        assert point == pytest.approx(self.EXPECTED[method], rel=1e-7)

    @pytest.mark.parametrize("method,expected", [("unpmle", 43.43083),
                                                 ("pnpmle", 42.67132)])
    def test_em_methods(self, method, expected, fixture_matrix):
        counts = frequency_counts(fixture_matrix)
        point, status, diagnostics = point_estimate(counts, method)
        assert status == "ok"
        assert point == pytest.approx(expected, rel=1e-4)
        assert diagnostics["support_points"] == 3
        assert sum(w for _, w in diagnostics["support"]) == pytest.approx(1.0)


class TestBatchedEM:
    """point_estimates fits many count vectors in one EM; every row must come
    out exactly as it does when fitted alone, whatever its neighbours do."""

    @staticmethod
    def assert_rows_fit_alone(rows, method, em_config):
        batch = point_estimates(rows, method, em_config=em_config)
        assert len(batch) == len(rows)
        for counts, (point, status, diagnostics) in zip(rows, batch):
            alone = point_estimate(counts, method, em_config=em_config)
            assert (point, status) == alone[:2]
            # Whole diagnostics (iterations, support, log-likelihood, or the
            # failure reason and ll_delta), serialized so that NaN == NaN.
            assert json.dumps(diagnostics, sort_keys=True) == json.dumps(alone[2], sort_keys=True)
        return batch

    @pytest.mark.parametrize("method", ["unpmle", "pnpmle"])
    def test_rows_of_mixed_widths_match_single_fits(self, method, fixture_matrix):
        rows = [
            frequency_counts(fixture_matrix),   # width 14
            BASE,                               # width 3
            mkcounts(10, {1: 3, 2: 2}),         # width 2, shares a stack with the next
            mkcounts(10, {1: 4, 3: 1}),
            mkcounts(50, {1: 4, 3: 2, 20: 6}),  # width 3, other t
            mkcounts(10, {1: 1}),               # width 1
            FrequencyCounts(t=10, f={}, s_obs=0, y=()),
            mkcounts(1, {1: 3}),
        ]
        batch = self.assert_rows_fit_alone(rows, method, EMConfig())
        assert [status for _, status, _ in batch] == ["ok"] * 6 + ["failed"] * 2
        assert batch[6][2]["reason"] == "no observed elements"
        assert batch[7][2]["reason"] == "need at least 2 sampling units"

    @pytest.mark.parametrize("max_iter", [2, 20])
    def test_nonconverged_row_leaves_neighbours_alone(self, max_iter, fixture_matrix):
        cfg = EMConfig(max_iter=max_iter)
        # Rows 1-2 and rows 3-4 each share t and width, so each pair iterates
        # in one stacked array.
        rows = [frequency_counts(fixture_matrix), mkcounts(10, {1: 1}), mkcounts(10, {10: 5}),
                mkcounts(10, {1: 6, 2: 1}), mkcounts(10, {1: 3, 3: 2})]
        batch = self.assert_rows_fit_alone(rows, "unpmle", cfg)
        _, status, diagnostics = batch[0]
        assert status == "failed" and diagnostics["reason"] == "EM did not converge"
        assert diagnostics["iterations"] == max_iter
        assert math.isfinite(diagnostics["ll_delta"]) and diagnostics["ll_delta"] > 0
        if max_iter == 20:
            assert batch[1][1] == "ok" and batch[1][2]["iterations"] == 7
            assert batch[2][1] == "ok" and batch[2][2]["iterations"] == 10
            assert batch[3][1] == "ok" and batch[3][2]["iterations"] == 13
            assert batch[4][1] == "failed" and batch[4][2]["iterations"] == 20

    def test_nonfinite_row_fails_without_touching_neighbours(self):
        # With a two-point grid near 0 and 1, no support point can produce
        # k = t/2: the mixture density underflows and the responsibilities
        # are 0/0 on the first iteration.
        cfg = EMConfig(grid_size=2)
        rows = [mkcounts(2000, {1: 3}), mkcounts(2000, {1000: 3}), mkcounts(2000, {5: 3})]
        batch = self.assert_rows_fit_alone(rows, "unpmle", cfg)
        assert [status for _, status, _ in batch] == ["ok", "failed", "ok"]
        assert batch[1][2]["reason"] == "EM did not converge"
        assert batch[1][2]["iterations"] == 1

    # Percentile bounds of the batched bootstrap.  Not compared exactly: the
    # BLAS summation order, and so the last bits, vary across CPUs.
    @pytest.mark.parametrize("method,ci_low,ci_high,kept", [
        ("unpmle", 28.676757801229893, 43.55169892640739, 200),
        ("pnpmle", 28.597847526864253, 42.671315480235975, 199),
    ], ids=["unpmle", "pnpmle"])
    def test_bootstrap_ci_pinned(self, method, ci_low, ci_high, kept, fixture_matrix):
        res = estimate(fixture_matrix, method, seed=5, boot_b=200)
        assert res.status == "ok"
        assert res.diagnostics["bootstrap_resamples"] == kept
        assert res.ci_low == pytest.approx(ci_low, rel=1e-9)
        assert res.ci_high == pytest.approx(ci_high, rel=1e-9)


def heavy_tailed_counts(pi_seed, t, sim_seed):
    """Frequency counts of t units of a 400-element program whose detection
    probabilities are clip(exp(N(ln 0.01, 2)), 1e-4, 0.9), drawn from
    ``default_rng(pi_seed)``: the law of the rq2_wide benchmark workload."""
    rng = np.random.default_rng(pi_seed)
    pi = np.clip(np.exp(rng.normal(np.log(0.01), 2.0, 400)), 1e-4, 0.9)
    model = BernoulliProductModel(400, tuple(float(p) for p in pi), t)
    return frequency_counts(simulate_incidence(model, sim_seed))


class TestSquaremEM:
    """The SQUAREM-accelerated EM against its own EM map iterated plainly to
    a tight tolerance, the oracle.  Besides the fixture, two heavy-tailed
    logs on which the plain EM crawls: 200 units, where it stopped after 721
    steps, and 100 units, where ``pnpmle`` did not converge in 5000."""

    CASES = {
        "fixture": None,
        "wide-200": (1, 200, derive_seed(1, "rq2_wide", 1)),
        "wide-100": (7, 100, 100),
    }

    @pytest.fixture(params=sorted(CASES))
    def counts(self, request, fixture_matrix):
        case = self.CASES[request.param]
        return frequency_counts(fixture_matrix) if case is None else heavy_tailed_counts(*case)

    @staticmethod
    def plain_em_point(c, penalized, tol=1e-12, max_iter=10 ** 5):
        cfg = EMConfig()
        ks, fks = np.ascontiguousarray(np.array([sorted(c.f.items())], dtype=float).transpose(2, 0, 1))
        data, w, pis = estimators._em_start(c.t, ks, fks, estimators._log_binom_coef(c.t),
                                            penalized, cfg)
        prev = -np.inf
        with np.errstate(invalid="ignore", divide="ignore"):
            for it in range(1, max_iter + 1):
                w, pis, obj, ll = estimators._em_map(c.t, data, w, pis)
                if abs(obj[0] - prev) < tol:
                    break
                prev = obj[0]
            else:
                pytest.fail(f"plain EM did not reach tol {tol} in {max_iter} steps")
        point, status, _ = estimators._npmle_finish(c, penalized, cfg, w[0], pis[0], ll[0],
                                                    it, 0.0, True)
        assert status == "ok"
        return point

    @pytest.mark.parametrize("method", ["unpmle", "pnpmle"])
    def test_point_matches_plain_em_fixed_point(self, method, counts):
        point, status, _ = point_estimate(counts, method)
        assert status == "ok"
        assert point == pytest.approx(self.plain_em_point(counts, method == "pnpmle"), rel=1e-4)

    @pytest.mark.parametrize("method", ["unpmle", "pnpmle"])
    def test_no_kept_cycle_lowers_the_objective(self, method, counts, monkeypatch):
        objectives = []
        em_map = estimators._em_map

        def recording(t, data, w, pis):
            out = em_map(t, data, w, pis)
            objectives.append(float(out[2][0]))
            return out

        monkeypatch.setattr(estimators, "_em_map", recording)
        _, status, diagnostics = point_estimate(counts, method)
        assert status == "ok" and diagnostics["iterations"] == len(objectives)
        # A fit alone evaluates the map three times a cycle; the first
        # evaluation of each cycle is at the point the last cycle kept.
        starts = np.array(objectives[::3])
        assert len(objectives) % 3 == 1 and np.all(np.diff(starts) >= 0)

    def test_pnpmle_converges_where_plain_em_did_not(self):
        _, status, diagnostics = point_estimate(heavy_tailed_counts(*self.CASES["wide-100"]),
                                                "pnpmle")
        assert status == "ok" and diagnostics["iterations"] < EMConfig().max_iter


class TestDegenerateContract:
    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            point_estimate(BASE, "chao3")

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_single_unit_fails_cleanly(self, method):
        point, status, diagnostics = point_estimate(mkcounts(1, {1: 3}), method)
        assert status == "failed" and "reason" in diagnostics

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_estimate_never_raises_on_single_unit(self, method):
        matrix = build_incidence_matrix([frozenset({0, 1, 2})])
        res = estimate(matrix, method)
        assert res.status == "failed"
        assert math.isnan(res.point)

    def test_zelterman_needs_f1_and_f2(self):
        _, status, _ = point_estimate(mkcounts(10, {2: 4}), "zelterman")
        assert status == "failed"
        _, status, _ = point_estimate(mkcounts(10, {1: 4}), "zelterman")
        assert status == "failed"

    def test_ichao2_needs_four_units(self):
        _, status, _ = point_estimate(mkcounts(3, {1: 2, 2: 2}), "ichao2")
        assert status == "failed"

    def test_chao_bunge_theta_at_least_one_fails(self):
        _, status, diagnostics = point_estimate(mkcounts(10, {1: 10}), "chao_bunge")
        assert status == "failed" and "theta" in diagnostics["reason"]

    def test_ice_no_infrequent_elements(self):
        point, status, _ = point_estimate(mkcounts(30, {20: 5}), "ice")
        assert status == "degenerate-fallback" and point == 5.0

    def test_ice_all_singletons_falls_back_to_chao2(self):
        c = mkcounts(10, {1: 5})
        point, status, diagnostics = point_estimate(c, "ice")
        assert status == "degenerate-fallback"
        assert "chao2" in diagnostics["reason"]
        assert point == pytest.approx(point_estimate(c, "chao2")[0])

    def test_em_nonconvergence_reported(self, fixture_matrix):
        counts = frequency_counts(fixture_matrix)
        _, status, diagnostics = point_estimate(
            counts, "unpmle", em_config=EMConfig(max_iter=2)
        )
        assert status == "failed" and "converge" in diagnostics["reason"]


class TestConfidenceIntervals:
    def test_chao2_default_is_truncated_normal(self, fixture_matrix):
        res = estimate(fixture_matrix, "chao2", level=0.90)
        assert res.diagnostics["ci"] == "analytic-normal-truncated"
        s_obs = frequency_counts(fixture_matrix).s_obs
        assert s_obs <= res.ci_low <= res.point <= res.ci_high
        assert res.diagnostics["variance"] > 0

    def test_wider_level_widens_analytic_interval(self, fixture_matrix):
        narrow = estimate(fixture_matrix, "chao2", level=0.80)
        wide = estimate(fixture_matrix, "chao2", level=0.99)
        assert wide.ci_high - wide.ci_low > narrow.ci_high - narrow.ci_low

    def test_bootstrap_ci_for_nonanalytic_method(self, fixture_matrix):
        res = estimate(fixture_matrix, "jk1", level=0.90, seed=3, boot_b=200)
        assert res.diagnostics["ci"] == "unit-bootstrap-percentile"
        assert res.diagnostics["bootstrap_resamples"] == 200
        assert res.diagnostics["bootstrap_failed"] == 0
        assert res.ci_low <= res.point <= res.ci_high

    def test_bootstrap_counts_failed_resamples(self):
        # f1 = 2 and f2 = 2, but a resample of five units often loses every
        # doubleton, and Zelterman's lambda is then undefined.
        units = [frozenset({0, 1, 2}), frozenset({0, 2}), frozenset({1, 3}),
                 frozenset({2, 4}), frozenset({2})]
        res = estimate(build_incidence_matrix(units), "zelterman", seed=0, boot_b=100)
        assert res.status == "ok"
        assert res.diagnostics["bootstrap_failed"] > 0
        assert res.diagnostics["bootstrap_resamples"] + res.diagnostics["bootstrap_failed"] == 100

    def test_bootstrap_ci_deterministic_per_seed(self, fixture_matrix):
        a = estimate(fixture_matrix, "jk2", seed=11, boot_b=100)
        b = estimate(fixture_matrix, "jk2", seed=11, boot_b=100)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_degenerate_bootstrap_collapses_to_point(self):
        matrix = build_incidence_matrix([frozenset({0, 1})] * 3)
        res = estimate(matrix, "jk1", boot_b=50)
        assert res.ci_low == res.ci_high == res.point == 2.0

    def test_level_zero_gives_point_interval(self, fixture_matrix):
        res = estimate(fixture_matrix, "zelterman", level=0.0)
        assert res.ci_low == res.ci_high == res.point
        assert res.diagnostics["ci"] == "point"

    def test_estimate_all_covers_every_method(self, fixture_matrix):
        results = estimate_all(fixture_matrix, level=0.90, boot_b=50)
        assert [r.method for r in results] == list(ALL_METHODS)
        for r in results:
            assert r.status in ("ok", "degenerate-fallback")
            assert r.ci_low <= r.point <= r.ci_high


@given(
    st.lists(st.frozensets(st.integers(0, 12), max_size=6), min_size=2, max_size=15),
    st.sampled_from([m for m in ALL_METHODS if m not in ("unpmle", "pnpmle")]),
)
@settings(max_examples=120, deadline=None)
def test_estimator_contract_property(units, method):
    """Never raises; ok estimates are finite and bracket the interval."""
    if not any(units):
        return
    res = estimate(build_incidence_matrix(units), method, boot_b=30)
    assert res.status in ("ok", "degenerate-fallback", "failed")
    if res.status != "failed":
        assert math.isfinite(res.point)
        assert res.point >= 0
        assert res.ci_low <= res.point <= res.ci_high
