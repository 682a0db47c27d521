"""Estimator formulas against hand-worked values, degenerate-input contract, CIs."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachbench.estimators as estimators
from reachbench.cli import derive_seed
from reachbench.estimators import (
    ALL_METHODS,
    EMConfig,
    EstimateWithCI,
    estimate,
    estimate_all,
    estimate_many,
    point_estimates,
)
from reachbench.evaluation import BernoulliProductModel, simulate_incidence
from reachbench.incidence import IncidenceMatrix, build_incidence_matrix, head

import reference_estimators as ref


def mkcounts(t, f):
    """(t, Y) of a log with the frequency counts {k: f_k}, Y ascending."""
    return t, np.array(sorted(k for k, fk in f.items() for _ in range(fk)), dtype=np.int64)


def y_of(matrix):
    """(t, Y) of an incidence matrix, Y in element order, as ``estimate_many``
    reads it."""
    return matrix.t, matrix.w.sum(axis=1, dtype=np.int64)


def tally(y):
    """The frequency counts {k: f_k} of the incidence frequencies ``y``."""
    k, fk = np.unique(y, return_counts=True)
    return dict(zip(k.tolist(), fk.tolist()))


def fit_one(pair, method, em_config=None):
    """``point_estimates`` of one (t, Y) pair."""
    return point_estimates([pair], method, em_config=em_config)[0]


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
        point, status, _ = fit_one(BASE, method)
        assert status == "ok"
        assert point == pytest.approx(expected, rel=1e-12)

    def test_chao2_f2_zero_branch(self):
        point, status, diagnostics = fit_one(mkcounts(10, {1: 3}), "chao2")
        assert status == "ok" and diagnostics["form"] == "f2-zero"
        assert point == pytest.approx(3 + 0.9 * 3 * 2 / 2)  # 5.7

    def test_chao2_no_singletons(self):
        point, status, diagnostics = fit_one(mkcounts(10, {2: 4}), "chao2")
        assert point == 4.0 and diagnostics["form"] == "no-singletons"

    def test_ichao2_hand_worked(self):
        c = mkcounts(20, {1: 10, 2: 5, 3: 4, 4: 2})
        point, status, _ = fit_one(c, "ichao2")
        # chao2 = 30.5; extra = (17/80)*(4/2)*(10 - (17/38)*5*(4/2))
        assert status == "ok"
        assert point == pytest.approx(30.5 + 0.2125 * 2 * (10 - (17 / 38) * 10),
                                      rel=1e-12)

    def test_ichao2_f4_substitution(self):
        c = mkcounts(20, {1: 10, 2: 5, 3: 4})
        point, status, diagnostics = fit_one(c, "ichao2")
        assert status == "ok" and diagnostics["f4_substituted"]

    def test_bootstrap_hand_worked(self):
        c = mkcounts(2, {1: 1, 2: 1})
        point, status, _ = fit_one(c, "bootstrap")
        assert point == pytest.approx(2.25)  # 2 + 0.5^2 + 0^2

    def test_chao_bunge_hand_worked(self):
        c = mkcounts(20, {1: 2, 2: 3, 5: 5})
        # theta = 2 * (2 + 12 + 125) / 33^2; point = 8 / (1 - theta)
        theta = 2 * 139 / 33 ** 2
        point, status, diagnostics = fit_one(c, "chao_bunge")
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
        counts = y_of(fixture_matrix)
        point, status, _ = fit_one(counts, method)
        assert status == "ok"
        assert point == pytest.approx(self.EXPECTED[method], rel=1e-7)

    @pytest.mark.parametrize("method,expected", [("unpmle", 43.43083),
                                                 ("pnpmle", 42.67132)])
    def test_em_methods(self, method, expected, fixture_matrix):
        counts = y_of(fixture_matrix)
        point, status, diagnostics = fit_one(counts, method)
        assert status == "ok"
        assert point == pytest.approx(expected, rel=1e-4)
        assert diagnostics["support_points"] == 3


class TestBatchedEM:
    """point_estimates fits many logs' Y in one EM; every row must come
    out exactly as it does when fitted alone, whatever its neighbours do."""

    @staticmethod
    def assert_rows_fit_alone(rows, method, em_config, stack_rows=None):
        batch = point_estimates(rows, method, em_config=em_config, stack_rows=stack_rows)
        assert len(batch) == len(rows)
        for counts, (point, status, diagnostics) in zip(rows, batch):
            alone = fit_one(counts, method, em_config=em_config)
            assert (point, status) == alone[:2]
            # Whole diagnostics (iterations, support, log-likelihood, or the
            # failure reason and ll_delta), serialized so that NaN == NaN.
            assert json.dumps(diagnostics, sort_keys=True) == json.dumps(alone[2], sort_keys=True)
        return batch

    @pytest.mark.parametrize("method", ["unpmle", "pnpmle"])
    def test_rows_of_mixed_widths_match_single_fits(self, method, fixture_matrix):
        rows = [
            y_of(fixture_matrix),   # width 14
            BASE,                               # width 3
            mkcounts(10, {1: 3, 2: 2}),         # width 2, shares a stack with the next
            mkcounts(10, {1: 4, 3: 1}),
            mkcounts(50, {1: 4, 3: 2, 20: 6}),  # width 3, other t
            mkcounts(10, {1: 1}),               # width 1
            (10, np.zeros(0, dtype=np.int64)),
            mkcounts(1, {1: 3}),
        ]
        batch = self.assert_rows_fit_alone(rows, method, EMConfig())
        assert [status for _, status, _ in batch] == ["ok"] * 6 + ["failed"] * 2
        assert batch[6][2]["reason"] == "no observed elements"
        assert batch[7][2]["reason"] == "need at least 2 sampling units"

    @pytest.mark.parametrize("max_iter", [2, 20])
    def test_nonconverged_row_leaves_neighbours_alone(self, max_iter, fixture_matrix):
        cfg = EMConfig(max_iter=max_iter)
        # Rows 1-4 share t and a padded width, so they iterate in one stacked
        # array.
        rows = [y_of(fixture_matrix), mkcounts(10, {1: 1}), mkcounts(10, {10: 5}),
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

    @pytest.mark.parametrize("max_iter", [1, 2, 4, 7, 20])
    @pytest.mark.parametrize("method", ["unpmle", "pnpmle"])
    def test_queued_rows_of_mixed_t_match_single_fits(self, method, max_iter, monkeypatch):
        # Thirteen rows of 2-7 distinct k (one padded width) at t = 10, 25
        # and 50 in turn, queued behind a live stack of at most 4 rows.
        rng = np.random.default_rng(max_iter)
        rows = []
        for i in range(13):
            t = (10, 25, 50)[i % 3]
            ks = rng.choice(np.arange(1, t + 1), rng.integers(2, 8), replace=False)
            rows.append(mkcounts(t, {int(k): int(rng.integers(1, 6)) for k in ks}))
        em_map, maps = estimators._em_map, []

        def recording(t, data, w, pis):
            maps.append((len(w), len(np.unique(t))))
            return em_map(t, data, w, pis)

        monkeypatch.setattr(estimators, "_em_map", recording)
        cfg = EMConfig(max_iter=max_iter)
        batch = point_estimates(rows, method, em_config=cfg, stack_rows=4)
        monkeypatch.undo()
        # No map holds more than 4 live rows; some hold all three t.
        assert max(n for n, _ in maps) <= 4 and max(k for _, k in maps) == 3
        # Each row is mapped once per EM step it counts.
        assert sum(n for n, _ in maps) == sum(d["iterations"] for _, _, d in batch)
        self.assert_rows_fit_alone(rows, method, cfg, stack_rows=4)

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

    # EM-map evaluations (one per stack per step) of the pinned bootstrap
    # call.  Stacked by exact width, these were 2,398 and 2,812.
    @pytest.mark.parametrize("method,max_maps", [("unpmle", 1242), ("pnpmle", 1671)])
    def test_bootstrap_em_map_calls_bounded(self, method, max_maps, fixture_matrix,
                                            monkeypatch):
        em_map, maps = estimators._em_map, []

        def counting(t, data, w, pis):
            maps.append(len(w))
            return em_map(t, data, w, pis)

        monkeypatch.setattr(estimators, "_em_map", counting)
        estimate(fixture_matrix, method, seed=5, boot_b=200)
        assert len(maps) <= max_maps

    @pytest.mark.parametrize("method", ["unpmle", "pnpmle"])
    def test_batch_shares_em_maps(self, method, fixture_matrix, monkeypatch):
        # The bootstraps of four checkpoints fill one live stack between
        # them.  Measured: 3,137 maps against 5,486 one job at a time
        # (unpmle), 2,924 against 5,114 (pnpmle).
        em_map, maps = estimators._em_map, []
        monkeypatch.setattr(estimators, "_em_map",
                            lambda t, data, w, pis: maps.append(len(w)) or em_map(t, data, w, pis))
        jobs = [(head(fixture_matrix, t), method, 5) for t in (10, 15, 20, 25)]
        batch = estimate_many(jobs, boot_b=200)
        batch_maps = len(maps)
        maps.clear()
        assert repr(batch) == repr([estimate(m, method, seed=5, boot_b=200) for m, _, _ in jobs])
        assert max(maps) <= 200 and batch_maps < 0.6 * len(maps)

    @staticmethod
    def of_width(width, t=50):
        return mkcounts(t, {k: 1 + k % 3 for k in range(1, 2 * width, 2)})

    @pytest.mark.parametrize("method", ["unpmle", "pnpmle"])
    def test_widths_stack_by_bucket_of_eight(self, method, monkeypatch):
        em, stacks = estimators._em, []

        def recording(t, ks, *args):
            stacks.append(ks.shape)
            return em(t, ks, *args)

        monkeypatch.setattr(estimators, "_em", recording)
        rows = [self.of_width(9), self.of_width(12, t=25), self.of_width(16, t=80)]
        self.assert_rows_fit_alone(rows, method, estimators.BOOT_EM_CONFIG)
        # The batch is one stack whatever each row's t, then each row is
        # fitted alone.
        assert stacks == [(3, 16)] + [(1, 16)] * 3
        stacks.clear()
        point_estimates([self.of_width(8), self.of_width(9)], method,
                        em_config=estimators.BOOT_EM_CONFIG)
        assert sorted(stacks) == [(1, 8), (1, 16)]


def heavy_tailed_counts(pi_seed, t, sim_seed):
    """(t, Y) of t units of a 400-element program whose detection
    probabilities are clip(exp(N(ln 0.01, 2)), 1e-4, 0.9), drawn from
    ``default_rng(pi_seed)``: the law of the rq2_wide benchmark workload."""
    rng = np.random.default_rng(pi_seed)
    pi = np.clip(np.exp(rng.normal(np.log(0.01), 2.0, 400)), 1e-4, 0.9)
    model = BernoulliProductModel(400, tuple(float(p) for p in pi), t)
    return y_of(simulate_incidence(model, sim_seed))


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
        return y_of(fixture_matrix) if case is None else heavy_tailed_counts(*case)

    @staticmethod
    def plain_em_point(c, penalized, tol=1e-12, max_iter=10 ** 5):
        cfg = EMConfig()
        t_units, y = c
        ks, fks = np.ascontiguousarray(
            np.array([sorted(tally(y).items())], dtype=float).transpose(2, 0, 1))
        t, data, w, pis = estimators._em_start(np.array([t_units]), ks, fks, penalized, cfg)
        prev = -np.inf
        with np.errstate(invalid="ignore", divide="ignore"):
            for it in range(1, max_iter + 1):
                w, pis, obj, ll = estimators._em_map(t, data, w, pis)
                if abs(obj[0] - prev) < tol:
                    break
                prev = obj[0]
            else:
                pytest.fail(f"plain EM did not reach tol {tol} in {max_iter} steps")
        point, status, _ = estimators._npmle_finish(t_units, len(y), penalized, w[0], pis[0],
                                                    ll[0], it, 0.0, True)
        assert status == "ok"
        return point

    @pytest.mark.parametrize("method", ["unpmle", "pnpmle"])
    def test_point_matches_plain_em_fixed_point(self, method, counts):
        point, status, _ = fit_one(counts, method)
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
        _, status, diagnostics = fit_one(counts, method)
        assert status == "ok" and diagnostics["iterations"] == len(objectives)
        # A fit alone evaluates the map three times a cycle; the first
        # evaluation of each cycle is at the point the last cycle kept.
        starts = np.array(objectives[::3])
        assert len(objectives) % 3 == 1 and np.all(np.diff(starts) >= 0)

    def test_pnpmle_converges_where_plain_em_did_not(self):
        _, status, diagnostics = fit_one(heavy_tailed_counts(*self.CASES["wide-100"]),
                                                "pnpmle")
        assert status == "ok" and diagnostics["iterations"] < EMConfig().max_iter


class TestEMKernel:
    """The EM map's binomial pmf, its exp, and its memory."""

    # t of the fixture, of rq2_wide's logs and of the smoke run.  The log pmf
    # is a sum of terms up to about 23 t in size, so its rounding error, and
    # the pmf's relative error, grow with t.
    @pytest.mark.parametrize("t", [2, 25, 50, 125])
    def test_pmf_matches_scipy(self, t):
        from scipy.stats import binom

        ks = np.arange(1, t + 1, dtype=float)[None, :]
        tcol, data, _, pis = estimators._em_start(np.array([t]), ks, np.ones_like(ks), False,
                                                  EMConfig())
        pmf = estimators._exp_in_place(data[0] @ estimators._pmf_coefs(tcol, pis))[0]
        k, pi = ks[0][:, None], pis[0][None, :]
        expected = binom.pmf(k, t, pi)
        # Subnormal lanes carry too few bits for a relative comparison.
        normal = expected >= np.finfo(float).tiny
        np.testing.assert_allclose(pmf[normal], expected[normal], rtol=1e-12, atol=0)
        under = binom.logpmf(k, t, pi) < estimators._EXP_CUT
        assert (pmf[under] == 0.0).all()
        assert under.any() == (t >= 50)

    def test_exp_in_place_is_np_exp(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-800.0, 5.0, (40, 16, 20))
        x[::3, :, -4:] = -760.0
        x[0, 0, 0] = np.nan
        x[0, 0, 1] = -745.1  # rounds to the smallest subnormal, not to 0
        expected = np.exp(x)
        got = estimators._exp_in_place(x.copy())
        assert got.tobytes() == expected.tobytes()
        assert (got[x < estimators._EXP_CUT] == 0.0).all() and got[0, 0, 1] > 0

    def test_nan_support_point_makes_a_nonfinite_row(self):
        f = {1: 4, 2: 3, 5: 2}
        ks, fks = np.ascontiguousarray(
            np.array([sorted(f.items())] * 2, dtype=float).transpose(2, 0, 1))
        t, data, w, pis = estimators._em_start(np.full(2, 25), ks, fks, False, EMConfig())
        pis[1, 7] = np.nan
        with np.errstate(invalid="ignore"):
            _, _, obj, ll = estimators._em_map(t, data, w, pis)
        assert np.isfinite(obj[0]) and np.isfinite(ll[0])
        assert not np.isfinite(obj[1]) and not np.isfinite(ll[1])

    @staticmethod
    def em_peak(rows, stack_rows=None):
        """The tracemalloc peak of ``_em`` on ``rows`` rows of rq2_wide's
        shape (width 32 at t = 50, grid 20), with its results dropped as
        they come."""
        rng = np.random.default_rng(0)
        t, width = 50, 32
        ks = np.sort(np.array([rng.choice(np.arange(1, t + 1), width, replace=False)
                               for _ in range(rows)], dtype=float), axis=1)
        fks = rng.integers(1, 6, (rows, width)).astype(float)
        ts = np.full(rows, t)
        cfg = EMConfig(grid_size=20, max_iter=4)
        tracemalloc.start()
        try:
            for _ in estimators._em(ts, ks, fks, False, cfg, stack_rows):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_em_memory_stays_bounded(self):
        # A stack of 500 rows.  Measured peak 2.96 MiB; without the row
        # blocks it was 5.42 MiB.
        assert self.em_peak(500) < 4 * 2 ** 20

    def test_queued_rows_add_no_memory(self):
        # Four stacks' worth of rows queued behind a live stack of b rows.
        b = 250
        assert self.em_peak(4 * b, stack_rows=b) <= 1.1 * self.em_peak(b, stack_rows=b)


class TestDegenerateContract:
    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            fit_one(BASE, "chao3")

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_single_unit_fails_cleanly(self, method):
        point, status, diagnostics = fit_one(mkcounts(1, {1: 3}), method)
        assert status == "failed" and "reason" in diagnostics

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_estimate_never_raises_on_single_unit(self, method):
        matrix = build_incidence_matrix([frozenset({0, 1, 2})])
        res = estimate(matrix, method)
        assert res.status == "failed"
        assert math.isnan(res.point)

    def test_log_with_no_observed_element(self):
        """Five units that cover nothing: an empty Y through every method and
        its interval.  The closed forms give 0.0, the rest fail, and nothing
        raises."""
        boot = {"ci": "unit-bootstrap-percentile", "bootstrap_resamples": 50,
                "bootstrap_failed": 0}
        no_infrequent = ("degenerate-fallback", {"reason": "no infrequent elements", **boot})
        zero = {
            "chao2": ("ok", {"form": "no-singletons", **boot}),
            "chao2_bc": ("ok", {"ci": "analytic-normal-truncated", "variance": 0.0}),
            "ichao2": ("ok", {"f4_substituted": True, **boot}),
            "jk1": ("ok", boot),
            "jk2": ("ok", boot),
            "ice": no_infrequent,
            "ice1": no_infrequent,
            "bootstrap": ("ok", boot),
        }
        failed = {
            "zelterman": "lambda undefined (f1 or f2 is zero)",
            "chao_bunge": "no incidences",
            "unpmle": "no observed elements",
            "pnpmle": "no observed elements",
        }
        expected = [EstimateWithCI(m, 5, 0.0, 0.0, 0.0, *zero[m]) if m in zero
                    else estimators._failed(m, 5, failed[m]) for m in ALL_METHODS]
        matrix = build_incidence_matrix([frozenset()] * 5)
        assert matrix.w.shape == (0, 5)
        assert repr(estimate_all(matrix, seed=3, boot_b=50)) == repr(expected)

    def test_zelterman_needs_f1_and_f2(self):
        _, status, _ = fit_one(mkcounts(10, {2: 4}), "zelterman")
        assert status == "failed"
        _, status, _ = fit_one(mkcounts(10, {1: 4}), "zelterman")
        assert status == "failed"

    def test_ichao2_needs_four_units(self):
        _, status, _ = fit_one(mkcounts(3, {1: 2, 2: 2}), "ichao2")
        assert status == "failed"

    def test_chao_bunge_theta_at_least_one_fails(self):
        _, status, diagnostics = fit_one(mkcounts(10, {1: 10}), "chao_bunge")
        assert status == "failed" and "theta" in diagnostics["reason"]

    def test_ice_no_infrequent_elements(self):
        point, status, _ = fit_one(mkcounts(30, {20: 5}), "ice")
        assert status == "degenerate-fallback" and point == 5.0

    def test_ice_all_singletons_falls_back_to_chao2(self):
        c = mkcounts(10, {1: 5})
        point, status, diagnostics = fit_one(c, "ice")
        assert status == "degenerate-fallback"
        assert "chao2" in diagnostics["reason"]
        assert point == pytest.approx(fit_one(c, "chao2")[0])

    def test_em_nonconvergence_reported(self, fixture_matrix):
        counts = y_of(fixture_matrix)
        _, status, diagnostics = fit_one(
            counts, "unpmle", em_config=EMConfig(max_iter=2)
        )
        assert status == "failed" and "converge" in diagnostics["reason"]


class TestConfidenceIntervals:
    def test_chao2_default_is_truncated_normal(self, fixture_matrix):
        res = estimate(fixture_matrix, "chao2", level=0.90)
        assert res.diagnostics["ci"] == "analytic-normal-truncated"
        s_obs = len(fixture_matrix.element_ids)
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


def scalar_point(c, method):
    """The closed forms one (t, Y) pair at a time, as Python scalars: the
    exact oracle of the array forms.  Returns (point, status, diagnostics)."""
    t, y = c
    s, f = len(y), tally(y)
    f1, f2, f3, f4 = (f.get(k, 0) for k in (1, 2, 3, 4))
    a = (t - 1) / t
    if t < 2:
        return None, "failed", {"reason": "need at least 2 sampling units"}
    if method == "chao2":
        if f1 == 0:
            return float(s), "ok", {"form": "no-singletons"}
        if f2 > 0:
            return s + a * f1 * f1 / (2 * f2), "ok", {"form": "classic"}
        return s + a * f1 * (f1 - 1) / 2.0, "ok", {"form": "f2-zero"}
    if method == "chao2_bc":
        return s + a * f1 * (f1 - 1) / (2.0 * (f2 + 1)), "ok", {}
    if method == "ichao2":
        if t < 4:
            return None, "failed", {"reason": "iChao2 requires t >= 4"}
        base = scalar_point(c, "chao2")[0]
        diagnostics = {}
        if f4 == 0:
            f4 = 1
            diagnostics["f4_substituted"] = True
        if f3 == 0:
            return base, "ok", diagnostics
        extra = ((t - 3) / (4.0 * t)) * (f3 / f4) * max(
            f1 - ((t - 3) / (2.0 * (t - 1))) * f2 * f3 / f4, 0.0)
        return base + extra, "ok", diagnostics
    if method == "jk1":
        return s + f1 * (t - 1) / t, "ok", {}
    if method == "jk2":
        return s + f1 * (2 * t - 3) / t - f2 * (t - 2) ** 2 / (t * (t - 1)), "ok", {}
    if method in ("ice", "ice1"):
        s_inf = sum(fk for k, fk in f.items() if k <= 10)
        u = sum(k * fk for k, fk in f.items() if k <= 10)
        if s_inf == 0 or u == 0:
            return float(s), "degenerate-fallback", {"reason": "no infrequent elements"}
        cov = 1.0 - f1 / u
        if cov <= 0.0:
            return (scalar_point(c, "chao2")[0], "degenerate-fallback",
                    {"reason": "zero sample coverage, chao2 fallback"})
        sum_kk1 = sum(k * (k - 1) * fk for k, fk in f.items() if k <= 10)
        gamma2 = max((s_inf / cov) * (t / (t - 1.0)) * sum_kk1 / (u * u) - 1.0, 0.0)
        diagnostics = {"coverage": cov, "cv2": gamma2, "t_star": t}
        if method == "ice1":
            gamma2 = max(gamma2 * (1.0 + (f1 / cov) * (t / (t - 1.0)) * sum_kk1
                                   / (u * (u - 1.0))), 0.0)
            diagnostics["cv2_corrected"] = gamma2
        return (s - s_inf) + s_inf / cov + (f1 / cov) * gamma2, "ok", diagnostics
    if method == "zelterman":
        if f1 == 0 or f2 == 0:
            return None, "failed", {"reason": "lambda undefined (f1 or f2 is zero)"}
        lam = 2.0 * f2 / f1
        return s / (1.0 - math.exp(-lam)), "ok", {"lambda": lam}
    if method == "bootstrap":
        return s + sum((1.0 - yi / t) ** t for yi in y.tolist()), "ok", {}
    assert method == "chao_bunge"
    n = sum(k * fk for k, fk in f.items())
    if n == 0:
        return None, "failed", {"reason": "no incidences"}
    theta = f1 * sum(k * k * fk for k, fk in f.items()) / (n * n)
    if theta >= 1.0:
        return None, "failed", {"reason": f"theta {theta:.4f} >= 1"}
    point = (s - f1) / (1.0 - theta)
    if point < s:
        return float(s), "degenerate-fallback", {"theta": theta, "clamped": True}
    return point, "ok", {"theta": theta}


CLOSED_FORMS = [m for m in ALL_METHODS if m not in ("unpmle", "pnpmle")]
#: Methods whose default CI is the unit bootstrap.
BOOTSTRAP_CI_METHODS = [m for m in ALL_METHODS if m not in estimators.ANALYTIC_CI_METHODS]


def loop_bootstrap_ci(matrix, method, level, seed=0, b=500, point=None):
    """The unit bootstrap one resample at a time: the oracle of the batched
    ``bootstrap_ci``.  Each resample draws its t units with its own
    ``rng.integers`` call, gathers and sums those columns, and sorts the
    nonzero sums; each distinct resample is estimated once."""
    rng = np.random.default_rng(seed)
    t = matrix.t
    keys = []
    distinct = {}
    for _ in range(b):
        y = matrix.w[:, rng.integers(0, t, size=t)].sum(axis=1)
        y = np.sort(y[y > 0]).astype(np.int64)
        key = y.tobytes()
        if key not in distinct:
            distinct[key] = t, y
        keys.append(key)
    fits = dict(zip(distinct, point_estimates(list(distinct.values()), method,
                                              em_config=estimators.BOOT_EM_CONFIG)))
    values = [p for p, status, _ in map(fits.get, keys)
              if status != "failed" and p is not None and math.isfinite(p)]
    failed = b - len(values)
    if not values:
        return float("nan"), float("nan"), 0, failed
    if len(set(values)) == 1:
        v = values[0] if point is None else point
        return float(v), float(v), len(values), failed
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(values, [alpha, 1.0 - alpha])
    return float(lo), float(hi), len(values), failed


def assert_bootstrap_matches_loop(matrix, method, seed, b, level=0.9):
    """(lo, hi, kept, failed) exactly as the per-resample loop gives them."""
    batched = estimators.bootstrap_ci(matrix, method, level, seed, b)
    assert repr(batched) == repr(loop_bootstrap_ci(matrix, method, level, seed, b))


def from_rows(rows):
    """An incidence matrix from 0/1 element rows; all-zero rows are dropped."""
    w = np.array(rows, dtype=np.uint8)
    w = w[w.any(axis=1)]
    return IncidenceMatrix(t=w.shape[1], element_ids=tuple(range(len(w))), w=w)


units_strategy = st.lists(st.frozensets(st.integers(0, 12), max_size=6), min_size=1, max_size=15)


class TestBatchedBootstrap:
    """The batched unit bootstrap against the per-resample loop."""

    @given(units_strategy, st.sampled_from(CLOSED_FORMS), st.integers(0, 2 ** 32),
           st.integers(1, 80), st.sampled_from([1 << 20, 7]))
    @settings(max_examples=150, deadline=None)
    def test_closed_forms_match_loop(self, units, method, seed, b, block):
        if not any(units):
            return
        # A 2^20-entry block holds every resample; a 7-entry block holds one.
        with mock.patch.object(estimators, "_BOOT_BLOCK", block):
            assert_bootstrap_matches_loop(build_incidence_matrix(units), method, seed, b)

    @given(units_strategy, st.sampled_from(["unpmle", "pnpmle"]), st.integers(0, 2 ** 32),
           st.sampled_from([1 << 20, 7]))
    @settings(max_examples=25, deadline=None)
    def test_npmles_match_loop(self, units, method, seed, block):
        if not any(units):
            return
        with mock.patch.object(estimators, "_BOOT_BLOCK", block):
            assert_bootstrap_matches_loop(build_incidence_matrix(units), method, seed, 20)

    EDGES = {
        # t = 2 and t = 3: iChao2 fails on every resample, JK2's f2 term vanishes at t = 2.
        "t2": [[1, 0], [1, 1], [0, 1]],
        "t3": [[1, 0, 0], [1, 1, 0], [0, 1, 1], [1, 1, 1]],
        # Only singletons: ICE falls back to Chao2, Zelterman's f2 = 0, theta >= 1.
        "singletons": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                       [0, 0, 0, 0, 0, 1]],
        # No singletons: Zelterman's f1 = 0.
        "no-singletons": [[1, 1, 0, 0, 1], [0, 1, 1, 1, 1], [1, 0, 1, 1, 1]],
    }

    @pytest.mark.parametrize("method", BOOTSTRAP_CI_METHODS)
    @pytest.mark.parametrize("case", sorted(EDGES))
    def test_edge_cases_match_loop(self, case, method):
        assert_bootstrap_matches_loop(from_rows(self.EDGES[case]), method, seed=4, b=60)

    def test_edge_cases_reach_their_branches(self):
        def scored(case, method):
            return fit_one(y_of(from_rows(self.EDGES[case])), method)

        assert scored("t2", "ichao2")[1] == scored("t3", "ichao2")[1] == "failed"
        assert "chao2" in scored("singletons", "ice")[2]["reason"]
        assert scored("singletons", "zelterman")[1] == "failed"
        assert scored("no-singletons", "zelterman")[1] == "failed"
        assert "theta" in scored("singletons", "chao_bunge")[2]["reason"]
        _, _, kept, failed = estimators.bootstrap_ci(from_rows(self.EDGES["t3"]), "zelterman",
                                                      0.9, seed=4, b=60)
        assert kept > 0 and failed > 0

    @pytest.mark.parametrize("method", CLOSED_FORMS)
    def test_past_a_block_boundary(self, method):
        rng = np.random.default_rng(3)
        t, b = 300, 200
        # Several full blocks of resamples, then a partial one.
        assert b * t > estimators._BOOT_BLOCK and b % (estimators._BOOT_BLOCK // t)
        matrix = from_rows(rng.random((6, t)) < np.array([[0.002], [0.005], [0.01], [0.02],
                                                           [0.1], [0.5]]))
        assert_bootstrap_matches_loop(matrix, method, seed=9, b=b)

    def test_memory_stays_bounded(self):
        # Unblocked, the draws and the multiplicity matrix of 500 resamples
        # of 10^5 units would take 400 MB each.  Measured peak: 20.2 MiB, of
        # which the float32 copy of W is 19 MiB (a float64 copy made it
        # 40.4 MiB).
        t = 10 ** 5
        pi = np.logspace(-5, -0.5, 50)[:, None]
        matrix = from_rows(np.random.default_rng(1).random((50, t)) < pi)
        tracemalloc.start()
        try:
            _, _, kept, _ = estimators.bootstrap_ci(matrix, "jk1", 0.9, seed=2, b=500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept == 500
        assert peak < 32 * 2 ** 20


def oracle_estimate(matrix, method, level, seed, b):
    """``estimate`` one job at a time: ``fit_one``, then the analytic
    interval or the per-resample ``loop_bootstrap_ci``, clamped to hold the
    point."""
    t, y = y_of(matrix)
    point, status, diagnostics = fit_one((t, y), method)
    if status == "failed":
        return estimators._failed(method, matrix.t, diagnostics.get("reason", "failed"))
    diagnostics = dict(diagnostics)
    if level == 0.0:
        diagnostics["ci"] = "point"
        return EstimateWithCI(method, matrix.t, point, point, point, status, diagnostics)
    var = (estimators._chao_type_variance(t, y, method, point)
           if method in estimators.ANALYTIC_CI_METHODS else None)
    if var is not None:
        lo, hi = estimators._normal_ci(point, len(y), var, level)
        diagnostics["ci"] = "analytic-normal-truncated"
        diagnostics["variance"] = var
    else:
        lo, hi, kept, failed = loop_bootstrap_ci(matrix, method, level, seed, b, point)
        diagnostics["ci"] = "unit-bootstrap-percentile"
        diagnostics["bootstrap_resamples"] = kept
        diagnostics["bootstrap_failed"] = failed
    return EstimateWithCI(method, matrix.t, point, min(lo, point), max(hi, point), status,
                          diagnostics)


class TestEstimateMany:
    """A batch of estimate jobs against the jobs estimated one at a time."""

    @given(st.lists(units_strategy.filter(any), min_size=1, max_size=3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_jobs_alone(self, logs, data):
        matrices = [build_incidence_matrix(units) for units in logs]
        # Checkpoints of the logs, every method, several seeds; a small b
        # makes the NPMLE jobs' resamples overflow the live EM stack.
        picks = data.draw(st.lists(st.tuples(st.sampled_from(matrices), st.integers(1, 15),
                                             st.sampled_from(ALL_METHODS),
                                             st.integers(0, 2 ** 32)),
                                   min_size=1, max_size=12))
        jobs = [(head(m, t), method, seed) for m, t, method, seed in picks]
        level = data.draw(st.sampled_from([0.0, 0.5, 0.9]))
        b = data.draw(st.integers(1, 12))
        batch = estimate_many(jobs, level, boot_b=b)
        assert len(batch) == len(jobs)
        for (matrix, method, seed), est in zip(jobs, batch):
            assert repr(est) == repr(oracle_estimate(matrix, method, level, seed, b))

    def test_wrappers_are_batches_of_one(self, fixture_matrix):
        batch = estimate_many([(fixture_matrix, m, 5) for m in ALL_METHODS], 0.9, boot_b=30)
        assert repr(estimate_all(fixture_matrix, seed=5, boot_b=30)) == repr(batch)
        assert repr(estimate(fixture_matrix, "unpmle", seed=5, boot_b=30)) == repr(batch[-2])


def frequencies(t):
    """Frequency counts {k: f_k > 0} with 1 <= k <= t."""
    return st.dictionaries(st.integers(1, t), st.integers(1, 60), max_size=12)


frequency_data = st.integers(2, 40).flatmap(lambda t: st.tuples(st.just(t), frequencies(t)))


def padded_y(rows):
    """The Y of (t, Y) pairs as one int64 array, each row led by 0s (no
    element) as the bootstrap's sorted rows are."""
    width = max(len(y) for _, y in rows)
    padded = np.zeros((len(rows), width), dtype=np.int64)
    for i, (_, y) in enumerate(rows):
        padded[i, width - len(y):] = y
    return padded


def assert_same_result(result, expected):
    """Equal (point, status, diagnostics), the diagnostics serialized."""
    assert result[:2] == expected[:2]
    assert json.dumps(result[2], sort_keys=True) == json.dumps(expected[2], sort_keys=True)


class TestArrayClosedForms:
    REFERENCES = {
        "chao2": ref.ref_chao2,
        "chao2_bc": ref.ref_chao2_bc,
        "ichao2": ref.ref_ichao2,
        "jk1": ref.ref_jk1,
        "jk2": ref.ref_jk2,
        "ice": ref.ref_ice,
        "ice1": lambda t, f: ref.ref_ice(t, f, bias_corrected=True),
        "zelterman": ref.ref_zelterman,
        "chao_bunge": ref.ref_chao_bunge,
    }

    @given(frequency_data, st.sampled_from(CLOSED_FORMS))
    @settings(max_examples=300, deadline=None)
    def test_against_reference_transcriptions(self, data, method):
        t, f = data
        counts = mkcounts(t, f)
        point, status, _ = fit_one(counts, method)
        if status == "failed" or (method == "chao_bunge" and status != "ok"):
            return  # the references define no failure or clamp
        expected = (ref.ref_bootstrap(t, counts[1].tolist()) if method == "bootstrap"
                    else self.REFERENCES[method](t, f))
        # Criterion 5's tolerance for the closed forms.
        assert point == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("method", CLOSED_FORMS)
    def test_rows_equal_scalar_forms(self, method):
        # Exactly, diagnostics included: the digests of earlier runs rest on
        # each formula's operation order, libm's pow and exp, and the
        # left-to-right sum of the bootstrap estimator.  A reordered formula
        # changes the last bit of a few percent of values, so many rows; and
        # numpy's power departs from libm's at larger t.
        rng = np.random.default_rng(11)
        for t in (2, 3, 4, 5, 8, 12, 25, 60, 100, 200, 1000):
            rows = []
            for _ in range(300):
                ks = np.flatnonzero(rng.random(t) < rng.uniform(0.02, 0.6) * min(1.0, 40 / t)) + 1
                fk = rng.geometric(rng.uniform(0.02, 0.8), size=len(ks))
                rows.append(mkcounts(t, dict(zip(ks.tolist(), fk.tolist()))))
            scored = estimators._closed_form(estimators._rows(t, padded_y(rows)), method)
            for i, counts in enumerate(rows):
                assert_same_result(estimators._row(scored, i), scalar_point(counts, method))

    @given(st.integers(2, 40).flatmap(
        lambda t: st.tuples(st.just(t), st.lists(frequencies(t), min_size=1, max_size=6))),
        st.sampled_from(CLOSED_FORMS))
    @settings(max_examples=200, deadline=None)
    def test_batch_of_one_equals_its_batch_row(self, data, method):
        t, fs = data
        rows = [mkcounts(t, f) for f in fs]
        scored = estimators._closed_form(estimators._rows(t, padded_y(rows)), method)
        for i, counts in enumerate(rows):
            assert_same_result(estimators._row(scored, i), fit_one(counts, method))


@given(
    st.lists(st.frozensets(st.integers(0, 12), max_size=6), min_size=2, max_size=15),
    st.sampled_from(CLOSED_FORMS),
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
