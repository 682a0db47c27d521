"""Statistical tests cross-checked against scipy.stats as an independent reference."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from reachbench.stattests import (
    StatTestError,
    mann_whitney_u,
    ndtr,
    ndtri,
    shapiro_wilk,
    stdtr,
    welch_t_test,
)


def _vectors(seed, n_pairs, sizes=(5, 8, 12, 25, 40)):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_pairs):
        na, nb = rng.choice(sizes, 2)
        dist = i % 3
        if dist == 0:
            a, b = rng.normal(0, 1, na), rng.normal(0.5, 2, nb)
        elif dist == 1:
            a, b = rng.exponential(1, na), rng.exponential(1.5, nb)
        else:
            a, b = rng.uniform(0, 1, na), rng.uniform(0.2, 1.2, nb)
        out.append((a, b))
    return out


class TestWelch:
    @pytest.mark.parametrize("idx", range(20))
    def test_matches_scipy(self, idx):
        a, b = _vectors(100 + idx, 1)[0]
        stat, dof, p = welch_t_test(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert stat == pytest.approx(ref.statistic, abs=1e-10)
        assert p == pytest.approx(ref.pvalue, abs=1e-6)
        assert dof == pytest.approx(ref.df, abs=1e-9)

    def test_antisymmetric(self):
        a, b = _vectors(7, 1)[0]
        sa, _, pa = welch_t_test(a, b)
        sb, _, pb = welch_t_test(b, a)
        assert sa == pytest.approx(-sb) and pa == pytest.approx(pb)

    def test_zero_variance_equal_means(self):
        stat, _, p = welch_t_test([2.0, 2.0, 2.0], [2.0, 2.0])
        assert stat == 0.0 and p == 1.0

    def test_zero_variance_unequal_means(self):
        stat, _, p = welch_t_test([2.0, 2.0], [3.0, 3.0])
        assert stat == float("-inf") and p == 0.0

    def test_too_small_sample_rejected(self):
        with pytest.raises(StatTestError):
            welch_t_test([1.0], [1.0, 2.0])


class TestShapiroWilk:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 11, 12, 20, 50, 200])
    def test_matches_scipy_across_sizes(self, n):
        rng = np.random.default_rng(n)
        for sample in (rng.normal(0, 1, n), rng.exponential(1, n)):
            w, p = shapiro_wilk(sample)
            ref = scipy.stats.shapiro(sample)
            assert w == pytest.approx(ref.statistic, abs=1e-6)
            assert p == pytest.approx(ref.pvalue, abs=1e-6)

    def test_rejects_clearly_nonnormal(self):
        rng = np.random.default_rng(0)
        sample = np.concatenate([rng.normal(0, 0.1, 30), rng.normal(10, 0.1, 30)])
        _, p = shapiro_wilk(sample)
        assert p < 0.001

    def test_accepts_normal_sample(self):
        _, p = shapiro_wilk(np.random.default_rng(5).normal(0, 1, 60))
        assert p > 0.05

    def test_constant_sample_rejected(self):
        with pytest.raises(StatTestError, match="constant"):
            shapiro_wilk([1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("n", [2, 5001])
    def test_size_limits(self, n):
        with pytest.raises(StatTestError):
            shapiro_wilk(np.arange(n, dtype=float))


class TestMannWhitney:
    @pytest.mark.parametrize("idx", range(20))
    def test_matches_scipy(self, idx):
        a, b = _vectors(300 + idx, 1)[0]
        u, p = mann_whitney_u(a, b)
        tie_free = len(np.unique(np.concatenate([a, b]))) == len(a) + len(b)
        if tie_free and len(a) <= 20 and len(b) <= 20:
            ref = scipy.stats.mannwhitneyu(a, b, method="exact")
        else:
            ref = scipy.stats.mannwhitneyu(a, b, method="asymptotic",
                                           use_continuity=True)
        assert u == pytest.approx(ref.statistic, abs=1e-10)
        assert p == pytest.approx(ref.pvalue, abs=1e-6)

    def test_exact_path_with_ties_uses_approximation(self):
        a = [1.0, 2.0, 2.0, 3.0]
        b = [2.0, 4.0, 5.0, 6.0]
        u, p = mann_whitney_u(a, b)
        ref = scipy.stats.mannwhitneyu(a, b, method="asymptotic", use_continuity=True)
        assert u == ref.statistic and p == pytest.approx(ref.pvalue, abs=1e-6)

    def test_u_statistics_sum_identity(self):
        a, b = _vectors(9, 1)[0]
        u1, _ = mann_whitney_u(a, b)
        u2, _ = mann_whitney_u(b, a)
        assert u1 + u2 == pytest.approx(len(a) * len(b))

    def test_identical_constant_samples(self):
        u, p = mann_whitney_u([3.0, 3.0, 3.0], [3.0, 3.0])
        assert p == 1.0

    def test_complete_separation_small_samples(self):
        u, p = mann_whitney_u([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
        assert u == 0.0
        assert p == pytest.approx(0.1, abs=1e-12)  # 2 / C(6,3)

    def test_empty_sample_rejected(self):
        with pytest.raises(StatTestError):
            mann_whitney_u([], [1.0])


class TestDistributionFunctions:
    def test_ndtri_matches_scipy(self):
        # p from 1e-300 to 1 - 1e-16 (0.5 itself excluded: both give 0), rel 1e-14.
        p = np.concatenate([np.geomspace(1e-300, 0.4, 300), np.linspace(0.001, 0.999, 999),
                            1.0 - np.geomspace(1e-16, 0.4, 300)])
        p = p[p != 0.5]
        np.testing.assert_allclose([ndtri(v) for v in p], scipy.special.ndtri(p),
                                   rtol=1e-14, atol=0)

    def test_ndtr_matches_scipy(self):
        # z in [-15, 15], rel 1e-13.  Further out, the rounding of z / sqrt(2)
        # alone moves erfc by about z^2 * 1e-16 relative, in either library.
        z = np.linspace(-15.0, 15.0, 3001)
        np.testing.assert_allclose([ndtr(v) for v in z], scipy.special.ndtr(z),
                                   rtol=1e-13, atol=0)

    def test_stdtr_matches_scipy(self):
        # df in [1.5, 200] x |t| in [1e-3, 40], both signs of t, rel 1e-12.
        df, t = np.meshgrid(np.geomspace(1.5, 200.0, 40), np.geomspace(1e-3, 40.0, 40))
        df, t = np.concatenate([df.ravel(), df.ravel()]), np.concatenate([t.ravel(), -t.ravel()])
        np.testing.assert_allclose([stdtr(d, v) for d, v in zip(df, t)],
                                   scipy.special.stdtr(df, t), rtol=1e-12, atol=0)

    def test_stdtr_matches_scipy_at_large_df(self):
        # df in [342, 1e6] x |t| in [1e-3, 40], rel 1e-7.  From df/2 + 1/2 = 171
        # on, gamma could overflow, and the beta function comes from a
        # difference of lgammas near (df/2) ln(df/2), which keeps fewer
        # digits; 1e-7 is still far inside the 1e-6 Welch p-values are held to.
        df, t = np.meshgrid(np.geomspace(342.0, 1e6, 30), np.geomspace(1e-3, 40.0, 30))
        df, t = np.concatenate([df.ravel(), df.ravel()]), np.concatenate([t.ravel(), -t.ravel()])
        ref = scipy.special.stdtr(df, t)
        keep = ref > 1e-300  # scipy's smallest tails are subnormal
        np.testing.assert_allclose([stdtr(d, v) for d, v in zip(df[keep], t[keep])], ref[keep],
                                   rtol=1e-7, atol=0)

    @pytest.mark.parametrize("df", [1, 2])
    def test_stdtr_matches_closed_forms(self, df):
        # F = 0.5 + atan(t) / pi at df = 1 and 0.5 + t / (2 sqrt(2 + t^2)) at
        # df = 2, written as tails that do not cancel; |t| from 1e-12 to 1e6
        # and t = 0, rel 1e-14.  scipy is no oracle here: at df = 1 it gives
        # 0.4999999952568 for t = -1e-8, where the exact value is 0.4999999968169.
        def closed(v):
            s = math.sqrt(2.0 + v * v)
            tail = math.atan2(1.0, abs(v)) / math.pi if df == 1 else 1.0 / (s * (s + abs(v)))
            return tail if v < 0 else 1.0 - tail

        t = np.geomspace(1e-12, 1e6, 73)
        t = np.concatenate([-t, [0.0], t])
        np.testing.assert_allclose([stdtr(df, v) for v in t], [closed(v) for v in t],
                                   rtol=1e-14, atol=0)
        assert stdtr(1, -1e-8) == pytest.approx(0.4999999968169, abs=1e-13)

    def test_stdtr_limits(self):
        assert (stdtr(3.0, -math.inf), stdtr(3.0, 0.0), stdtr(3.0, math.inf)) == (0.0, 0.5, 1.0)
        assert math.isnan(stdtr(3.0, math.nan))
