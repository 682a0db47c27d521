"""Self-contained statistical hypothesis tests used by the sensitivity analysis.

Welch's unequal-variance t-test with Satterthwaite degrees of freedom,
the Shapiro-Wilk normality test (Royston's AS R94 approximation), and the
Mann-Whitney U test (exact enumeration for small tie-free samples, normal
approximation with tie correction and continuity correction otherwise).
Everything, the normal and Student-t distribution functions included, is
computed here from the standard library and numpy; the test suite checks
the statistics and p-values against ``scipy`` as an independent reference.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np


class StatTestError(ValueError):
    pass


# -- Distribution functions --------------------------------------------------

#: The standard normal quantile function (Wichura's AS 241).
ndtri = NormalDist().inv_cdf


def ndtr(z: float) -> float:
    """The standard normal distribution function at ``z``."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta function I_x(a, b), where y = 1 - x is
    passed in computed on its own, so that neither loses digits near 1.

    The continued fraction is evaluated by the modified Lentz method
    (Numerical Recipes, 3rd ed., section 6.4); it converges fast for
    x < (a + 1) / (a + b + 2), and I_x(a, b) = 1 - I_y(b, a) covers the rest.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, y, x)
    if a + b < 171.0:  # gamma is finite, and closer than a difference of lgammas
        front = math.gamma(a + b) / (math.gamma(a) * math.gamma(b))
    else:
        front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    front *= x ** a * y ** b / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    if abs(d) < tiny:
        d = tiny
    h = d = 1.0 / d
    for m in range(1, 10_000):
        # The even step m(b - m)x / ((a + 2m - 1)(a + 2m)), then the odd one.
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d, c = 1.0 + num * d, 1.0 + num / c
            if abs(d) < tiny:
                d = tiny
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            h *= c * d
        if not abs(c * d - 1.0) > 1e-15:  # converged, or a NaN argument
            return front * h
    raise StatTestError(f"incomplete beta I_x({a}, {b}) did not converge at x = {x}")


def stdtr(df: float, t: float) -> float:
    """Student's t distribution function with ``df`` degrees of freedom at ``t``.

    The tail below -|t| is I_x(df/2, 1/2) / 2 with x = df / (df + t^2); its
    complement 1 - x is computed as t^2 / (df + t^2), not by subtraction, so
    the tail keeps full precision near t = 0.
    """
    t2 = t * t
    tail = 0.5 * _betainc(0.5 * df, 0.5, df / (df + t2), t2 / (df + t2))
    return tail if t < 0 else 1.0 - tail


def welch_t_test(sample_a, sample_b):
    """Two-sided Welch test; returns (statistic, dof, p_value).

    Degenerate zero-variance samples use the documented convention:
    equal means -> p = 1, unequal means -> p = 0.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise StatTestError("each sample needs at least 2 observations")
    na, nb = len(a), len(b)
    va, vb = a.var(ddof=1), b.var(ddof=1)
    diff = a.mean() - b.mean()
    if va == 0.0 and vb == 0.0:
        if diff == 0.0:
            return 0.0, float(na + nb - 2), 1.0
        return math.copysign(math.inf, diff), float(na + nb - 2), 0.0
    se2 = va / na + vb / nb
    stat = diff / math.sqrt(se2)
    dof = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = 2.0 * stdtr(dof, -abs(stat))
    return float(stat), float(dof), float(min(p, 1.0))


# -- Shapiro-Wilk (Royston 1995, AS R94 polynomial approximations) ----------

_C3 = (0.544, -0.39978, 0.025054, -6.714e-4)
_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_C6 = (-0.4803, -0.082676, 0.0030302)
_A_N = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157)
_A_N1 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981)


def _poly(coeffs, x):
    return sum(c * x ** i for i, c in enumerate(coeffs))


def shapiro_wilk(sample):
    """Shapiro-Wilk W and its p-value for 3 <= n <= 5000.

    Constant samples have an undefined W; raises StatTestError.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n < 3:
        raise StatTestError("Shapiro-Wilk needs at least 3 observations")
    if n > 5000:
        raise StatTestError("Shapiro-Wilk supports at most 5000 observations")
    if x[0] == x[-1]:
        raise StatTestError("Shapiro-Wilk is undefined for a constant sample")

    m = np.array([ndtri((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)])
    ssq_m = float(m @ m)
    u = 1.0 / math.sqrt(n)
    a = m / math.sqrt(ssq_m)
    if n > 5:
        an = (
            _A_N[0] * u ** 5 + _A_N[1] * u ** 4 + _A_N[2] * u ** 3
            + _A_N[3] * u ** 2 + _A_N[4] * u + a[-1]
        )
        an1 = (
            _A_N1[0] * u ** 5 + _A_N1[1] * u ** 4 + _A_N1[2] * u ** 3
            + _A_N1[3] * u ** 2 + _A_N1[4] * u + a[-2]
        )
        phi = (ssq_m - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (
            1.0 - 2.0 * an ** 2 - 2.0 * an1 ** 2
        )
        weights = np.empty(n)
        weights[2:-2] = m[2:-2] / math.sqrt(phi)
        weights[-1], weights[-2] = an, an1
        weights[0], weights[1] = -an, -an1
    else:
        an = (
            _A_N[0] * u ** 5 + _A_N[1] * u ** 4 + _A_N[2] * u ** 3
            + _A_N[3] * u ** 2 + _A_N[4] * u + a[-1]
        )
        weights = np.empty(n)
        if n == 3:
            weights[:] = [-math.sqrt(0.5), 0.0, math.sqrt(0.5)]
        else:
            phi = (ssq_m - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * an ** 2)
            weights[1:-1] = m[1:-1] / math.sqrt(phi)
            weights[-1] = an
            weights[0] = -an

    xc = x - x.mean()
    w_stat = float((weights @ x) ** 2 / (xc @ xc))
    w_stat = min(w_stat, 1.0)

    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w_stat)) - math.asin(math.sqrt(0.75)))
        return w_stat, float(min(max(p, 0.0), 1.0))
    if n <= 11:
        g = -2.273 + 0.459 * n
        mu = _poly(_C3, n)
        sigma = math.exp(_poly(_C4, n))
        arg = g - math.log(1.0 - w_stat)
        if arg <= 0:
            return w_stat, 1e-99
        z = (-math.log(arg) - mu) / sigma
    else:
        ln = math.log(n)
        mu = _poly(_C5, ln)
        sigma = math.exp(_poly(_C6, ln))
        z = (math.log(1.0 - w_stat) - mu) / sigma
    p = float(1.0 - ndtr(z))
    return w_stat, p


def normality_check(sample):
    """Shapiro-Wilk wrapper matching the evaluation pipeline's contract."""
    return shapiro_wilk(sample)


# -- Mann-Whitney U ----------------------------------------------------------

def _exact_u_distribution(n1, n2):
    """P(U1 = u) for tie-free samples.

    Classic recurrence f(m, n, u) = f(m-1, n, u-n) + f(m, n-1, u), rolled
    over n with a dense table in (m, u).
    """
    max_u = n1 * n2
    table = np.zeros((n1 + 1, max_u + 1))
    table[:, 0] = 1.0  # n = 0: U is always 0
    for n_cur in range(1, n2 + 1):
        nxt = np.zeros_like(table)
        nxt[0, 0] = 1.0
        for m in range(1, n1 + 1):
            nxt[m] = table[m]
            nxt[m, n_cur:] += nxt[m - 1, :-n_cur]
        table = nxt
    return table[n1] / table[n1].sum()


def mann_whitney_u(sample_a, sample_b, exact_threshold: int = 20):
    """Two-sided Mann-Whitney U test; returns (U, p_value).

    U is the statistic of sample_a.  Exact enumeration when both samples
    are small and tie-free, else the normal approximation with tie and
    continuity corrections.  Identical constant samples return p = 1.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise StatTestError("both samples must be nonempty")
    n1, n2 = len(a), len(b)
    combined = np.concatenate([a, b])
    order = combined.argsort(kind="mergesort")
    ranks = np.empty(len(combined))
    sorted_vals = combined[order]
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    r1 = ranks[:n1].sum()
    u1 = r1 - n1 * (n1 + 1) / 2.0

    has_ties = len(np.unique(combined)) < len(combined)
    if not has_ties and n1 <= exact_threshold and n2 <= exact_threshold:
        probs = _exact_u_distribution(n1, n2)
        k = int(round(u1))
        cdf = probs[: k + 1].sum()
        sf = probs[k:].sum()
        p = min(2.0 * min(cdf, sf), 1.0)
        return float(u1), float(p)

    mu = n1 * n2 / 2.0
    n = n1 + n2
    _, tie_counts = np.unique(combined, return_counts=True)
    tie_term = ((tie_counts ** 3 - tie_counts).sum()) / (n * (n - 1))
    sigma2 = n1 * n2 / 12.0 * (n + 1 - tie_term)
    if sigma2 <= 0.0:
        return float(u1), 1.0
    # Continuity correction toward the mean.
    num = abs(u1 - mu) - 0.5
    z = max(num, 0.0) / math.sqrt(sigma2)
    p = float(min(2.0 * (1.0 - ndtr(z)), 1.0))
    return float(u1), p
