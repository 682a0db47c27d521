"""Incidence-based species-richness estimators of maximum reachability.

Twelve estimators map frequency counts (t, f_1..f_t) to a point estimate of
the total number of coverage elements, with a two-sided confidence interval.
Chao-type intervals are normal intervals on the classical asymptotic
variance, truncated below at the observed richness; everything else (and any
degenerate case) falls back to a nonparametric bootstrap over sampling
units.  Degenerate inputs never raise:
every estimator returns a status of ok, degenerate-fallback, or failed.

The two binomial-mixture NPMLEs are fitted by EM accelerated with SQUAREM
(a squared extrapolation of two EM steps), with a fallback to the plain EM
step whenever the extrapolation would lower the objective, so the fit is
monotone.  Their ``iterations`` diagnostic counts EM steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .incidence import FrequencyCounts, IncidenceMatrix, counts_from_y, frequency_counts

ALL_METHODS = (
    "chao2",
    "chao2_bc",
    "ichao2",
    "jk1",
    "jk2",
    "ice",
    "ice1",
    "zelterman",
    "bootstrap",
    "chao_bunge",
    "unpmle",
    "pnpmle",
)

#: Methods with a classical analytic variance used for the default CI.
ANALYTIC_CI_METHODS = ("chao2", "chao2_bc")


@dataclass(frozen=True)
class EstimateWithCI:
    method: str
    point: float
    ci_low: float
    ci_high: float
    level: float
    status: str  # 'ok' | 'degenerate-fallback' | 'failed'
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EMConfig:
    grid_size: int = 40
    max_support: int = 20
    tol: float = 1e-9
    max_iter: int = 5000
    penalty: float = 1.0  # pseudo-count shrinkage of the unobserved class
    prune_weight: float = 1e-6
    merge_tol: float = 1e-3


def _failed(method, level, reason):
    return EstimateWithCI(method, float("nan"), float("nan"), float("nan"), level, "failed", {"reason": reason})


# ---------------------------------------------------------------------------
# Point estimators (pure functions of FrequencyCounts).
# Each returns (point, status, diagnostics).
# ---------------------------------------------------------------------------

def _chao2(c: FrequencyCounts):
    t, s, f1, f2 = c.t, c.s_obs, c.fk(1), c.fk(2)
    a = (t - 1) / t
    if f1 == 0:
        return float(s), "ok", {"form": "no-singletons"}
    if f2 > 0:
        return s + a * f1 * f1 / (2 * f2), "ok", {"form": "classic"}
    return s + a * f1 * (f1 - 1) / 2.0, "ok", {"form": "f2-zero"}


def _chao2_bc(c: FrequencyCounts):
    t, s, f1, f2 = c.t, c.s_obs, c.fk(1), c.fk(2)
    a = (t - 1) / t
    return s + a * f1 * (f1 - 1) / (2.0 * (f2 + 1)), "ok", {}


def _ichao2(c: FrequencyCounts):
    t = c.t
    if t < 4:
        return None, "failed", {"reason": "iChao2 requires t >= 4"}
    base, _, _ = _chao2(c)
    f1, f2, f3, f4 = c.fk(1), c.fk(2), c.fk(3), c.fk(4)
    diagnostics = {}
    if f4 == 0:
        f4 = 1
        diagnostics["f4_substituted"] = True
    if f3 == 0:
        return base, "ok", diagnostics
    extra = ((t - 3) / (4.0 * t)) * (f3 / f4) * max(
        f1 - ((t - 3) / (2.0 * (t - 1))) * f2 * f3 / f4, 0.0
    )
    return base + extra, "ok", diagnostics


def _jk1(c: FrequencyCounts):
    t = c.t
    return c.s_obs + c.fk(1) * (t - 1) / t, "ok", {}


def _jk2(c: FrequencyCounts):
    t = c.t
    if t < 2:
        return None, "failed", {"reason": "JK2 requires t >= 2"}
    return (
        c.s_obs
        + c.fk(1) * (2 * t - 3) / t
        - c.fk(2) * (t - 2) ** 2 / (t * (t - 1)),
        "ok",
        {},
    )


def _ice(c: FrequencyCounts, bias_corrected_cv=False):
    t = c.t
    cutoff = 10  # elements seen in more units than this count as frequent
    f = c.f
    s_inf = sum(fk for k, fk in f.items() if k <= cutoff)
    s_freq = c.s_obs - s_inf
    u = sum(k * fk for k, fk in f.items() if k <= cutoff)
    f1 = c.fk(1)
    if s_inf == 0 or u == 0:
        return float(c.s_obs), "degenerate-fallback", {"reason": "no infrequent elements"}
    cov = 1.0 - f1 / u
    if cov <= 0.0:
        # All infrequent elements are singletons: standard practice is Chao2.
        point, _, _ = _chao2(c)
        return point, "degenerate-fallback", {"reason": "zero sample coverage, chao2 fallback"}
    sum_kk1 = sum(k * (k - 1) * fk for k, fk in f.items() if k <= cutoff)
    if t > 1:
        gamma2 = max(
            (s_inf / cov) * (t / (t - 1.0)) * sum_kk1 / (u * u) - 1.0, 0.0
        )
    else:
        gamma2 = 0.0
    diagnostics = {"coverage": cov, "cv2": gamma2, "t_star": t}
    if bias_corrected_cv:
        if u > 1 and t > 1:
            gamma2 = max(
                gamma2
                * (1.0 + (f1 / cov) * (t / (t - 1.0)) * sum_kk1 / (u * (u - 1.0))),
                0.0,
            )
        diagnostics["cv2_corrected"] = gamma2
    point = s_freq + s_inf / cov + (f1 / cov) * gamma2
    return point, "ok", diagnostics


def _zelterman(c: FrequencyCounts):
    f1, f2 = c.fk(1), c.fk(2)
    if f1 == 0 or f2 == 0:
        return None, "failed", {"reason": "lambda undefined (f1 or f2 is zero)"}
    lam = 2.0 * f2 / f1
    return c.s_obs / (1.0 - math.exp(-lam)), "ok", {"lambda": lam}


def _bootstrap_point(c: FrequencyCounts):
    t = c.t
    extra = sum((1.0 - yi / t) ** t for yi in c.y)
    return c.s_obs + extra, "ok", {}


def _chao_bunge(c: FrequencyCounts):
    f = c.f
    f1 = c.fk(1)
    denom = sum(k * fk for k, fk in f.items())
    if denom == 0:
        return None, "failed", {"reason": "no incidences"}
    if f1 == 0:
        return float(sum(fk for k, fk in f.items() if k >= 2)), "ok", {"theta": 0.0}
    theta = f1 * sum(k * k * fk for k, fk in f.items()) / (denom * denom)
    if theta >= 1.0:
        return None, "failed", {"reason": f"theta {theta:.4f} >= 1"}
    point = sum(fk for k, fk in f.items() if k >= 2) / (1.0 - theta)
    if point < c.s_obs:
        return float(c.s_obs), "degenerate-fallback", {"theta": theta, "clamped": True}
    return point, "ok", {"theta": theta}


_CLOSED_FORMS = {
    "chao2": _chao2,
    "chao2_bc": _chao2_bc,
    "ichao2": _ichao2,
    "jk1": _jk1,
    "jk2": _jk2,
    "zelterman": _zelterman,
    "bootstrap": _bootstrap_point,
    "chao_bunge": _chao_bunge,
}


def _log_binom_coef(t):
    """log C(t, k) for k = 0..t."""
    lt = math.lgamma(t + 1)
    return np.array([lt - math.lgamma(k + 1) - math.lgamma(t - k + 1) for k in range(t + 1)])


def _pi_floor(t):
    """Support floor: detection probabilities below 1/(2t) are not
    identifiable from t units, and without a floor the unpenalized mixture
    likelihood drifts mass toward pi -> 0 (unbounded estimate)."""
    return 1.0 / (2.0 * t)


def _em_start(t, ks, fks, log_coef, penalized, cfg):
    """The per-row constants of ``_em_map`` for a stack, and its start (w, pi).

    ``ks`` and ``fks`` are contiguous (rows, width) float arrays holding each
    row's observed frequencies and their counts; ``log_coef`` is
    ``_log_binom_coef(t)``.  Every constant has the rows on its first axis.
    """
    rows, size = ks.shape[0], cfg.grid_size
    pi_floor = _pi_floor(t)
    grid = np.clip(np.linspace(pi_floor, 1.0 - 1e-12, size), pi_floor, 1.0 - 1e-10)
    n = fks.sum(axis=1)
    n_aug = np.maximum(n - (cfg.penalty if penalized else 0.0), 0.0)
    data = (log_coef[ks.astype(np.intp)][:, :, None], ks[:, :, None], (t - ks)[:, :, None],
            fks[:, None, :], (fks * ks)[:, None, :], n, n_aug)
    return data, np.full((rows, size), 1.0 / size), np.tile(grid, (rows, 1))


def _em_map(t, data, w, pis):
    """One EM step for a stack of rows: the updated (w, pi), and at the input
    the objective the EM ascends, L = sum_k f_k log mix_k - n_aug log(1 - p0),
    and the reported zero-truncated log-likelihood (n in place of n_aug).

    Each matrix product is taken per row at that row's own shape, so a row's
    arithmetic is the same whatever else is in the stack (padding rows to a
    common width would change the BLAS summation order).
    """
    logc, k, tk, fk, fkk, n, n_aug = data
    log1m = np.log1p(-pis)
    pmf = np.exp(logc + k * np.log(pis)[:, None, :] + tk * log1m[:, None, :])
    z0 = np.exp(t * log1m)  # (1-pi)^t
    mix = np.matmul(pmf, w[:, :, None])[:, :, 0]
    p0 = np.minimum(np.matmul(z0[:, None, :], w[:, :, None])[:, 0, 0], 1.0 - 1e-12)
    n0 = n_aug * p0 / (1.0 - p0)

    resp = pmf * w[:, None, :]
    resp /= resp.sum(axis=2, keepdims=True)
    resp0 = z0 * w
    resp0 = np.where(p0[:, None] > 0, resp0 / resp0.sum(axis=1, keepdims=True), 0.0)

    cls_mass = np.matmul(fk, resp)[:, 0, :] + n0[:, None] * resp0
    cls_inc = np.matmul(fkk, resp)[:, 0, :]
    w_new = cls_mass / (n + n0)[:, None]
    pis_new = np.clip(np.where(cls_mass > 0, cls_inc / (t * cls_mass), pis),
                      _pi_floor(t), 1.0 - 1e-10)

    # A zero mixture density (log-likelihood -inf) is exactly a row of 0/0
    # responsibilities.
    fit = np.matmul(fk, np.log(mix)[:, :, None])[:, 0, 0]
    log_tail = np.log(1.0 - p0)
    return w_new, pis_new, fit - n_aug * log_tail, fit - n * log_tail


def _em(t, ks, fks, log_coef, penalized, cfg):
    """SQUAREM-accelerated EM for rows of count vectors that share t and the
    number of distinct k (arguments as for ``_em_start``).

    The live rows advance together as one stacked array through cycles of
    the monotone SqS3 scheme (Varadhan & Roland 2008, Scand. J. Stat.
    35:335), every quantity taken per row: two EM steps theta1 = F(theta0)
    and theta2 = F(theta1); with r = theta1 - theta0 and
    v = theta2 - 2 theta1 + theta0, the step length
    alpha = min(-|r|/|v|, -1) (-1 when not finite); an extrapolation to
    theta0 - 2 alpha r + alpha^2 v, projected back onto the simplex and the
    support interval; and one stabilising EM step from there, kept only if
    the objective at the extrapolation is not below the cycle's start
    (otherwise theta2), so the objective never falls.

    A row is frozen where one cycle raises the objective by less than
    ``cfg.tol``, or where it turns non-finite (a frequency that no support
    point can produce).  ``cfg.max_iter`` and the reported iterations count
    EM steps, three per cycle; a budget too short for a whole cycle and a
    convergence check after it is spent on plain EM steps.  Returns per-row
    weights, support, log-likelihood, iterations, last objective change,
    and whether the row converged.
    """
    rows, size = ks.shape[0], cfg.grid_size
    pi_floor = _pi_floor(t)
    w, pis = np.empty((rows, size)), np.empty((rows, size))
    ll, ll_delta = np.empty(rows), np.empty(rows)
    iterations = np.full(rows, cfg.max_iter)
    converged = np.zeros(rows, dtype=bool)

    # Working arrays hold the rows still iterating; ``live`` maps them back.
    live = np.arange(rows)
    data, wl, pl = _em_start(t, ks, fks, log_coef, penalized, cfg)
    obj_prev, step = np.full(rows, -np.inf), np.full(rows, np.nan)
    ll_new = np.full(rows, np.nan)
    evals = 0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        while evals < cfg.max_iter:
            # Every convergence check sits at a cycle's start.
            w1, p1, obj, ll_new = _em_map(t, data, wl, pl)
            evals += 1
            step = np.abs(obj - obj_prev)
            obj_prev = obj
            finite = np.isfinite(obj)
            stop = (step < cfg.tol) | ~finite
            if stop.any():
                out = live[stop]
                w[out], pis[out], ll[out], ll_delta[out] = w1[stop], p1[stop], ll_new[stop], step[stop]
                iterations[out] = evals
                converged[out] = finite[stop]
                keep = ~stop
                live, wl, pl, w1, p1, obj_prev, step, ll_new = (
                    a[keep] for a in (live, wl, pl, w1, p1, obj_prev, step, ll_new))
                data = tuple(a[keep] for a in data)
                if not live.size:
                    break
            if cfg.max_iter - evals < 3:
                wl, pl = w1, p1
                continue
            w2, p2, _, _ = _em_map(t, data, w1, p1)
            wr, pr = w1 - wl, p1 - pl
            wv, pv = w2 - 2.0 * w1 + wl, p2 - 2.0 * p1 + pl
            alpha = -np.sqrt(((wr * wr).sum(axis=1) + (pr * pr).sum(axis=1))
                             / ((wv * wv).sum(axis=1) + (pv * pv).sum(axis=1)))
            alpha = np.where(np.isfinite(alpha), np.minimum(alpha, -1.0), -1.0)[:, None]
            we = np.maximum(wl - 2.0 * alpha * wr + alpha * alpha * wv, 0.0)
            we /= we.sum(axis=1, keepdims=True)
            pe = np.clip(pl - 2.0 * alpha * pr + alpha * alpha * pv, pi_floor, 1.0 - 1e-10)
            w3, p3, obj_e, _ = _em_map(t, data, we, pe)
            evals += 2
            kept = (obj_e >= obj_prev)[:, None]
            wl, pl = np.where(kept, w3, w2), np.where(kept, p3, p2)
    w[live], pis[live], ll[live], ll_delta[live] = wl, pl, ll_new, step
    return w, pis, ll, iterations, ll_delta, converged


def _npmle(counts_list, penalized: bool, cfg: EMConfig):
    """Zero-truncated binomial mixtures fitted by EM over a support grid.

    The unobserved zero class is handled by data augmentation; the
    penalized variant shrinks the augmented zero count, which bounds the
    estimate away from the f0 blow-up of the raw mixture likelihood.
    Count vectors with the same t and number of distinct frequencies are
    fitted together in one batched EM; returns one (point, status,
    diagnostics) per count vector.
    """
    results = [None] * len(counts_list)
    groups = {}
    for i, c in enumerate(counts_list):
        if c.s_obs == 0:
            results[i] = (None, "failed", {"reason": "no observed elements"})
        else:
            groups.setdefault((c.t, len(c.f)), []).append(i)
    log_coef = {t: _log_binom_coef(t) for t, _ in groups}
    for (t, _), members in groups.items():
        pairs = np.array([sorted(counts_list[i].f.items()) for i in members], dtype=float)
        ks, fks = np.ascontiguousarray(pairs.transpose(2, 0, 1))
        fit = _em(t, ks, fks, log_coef[t], penalized, cfg)
        for row, i in enumerate(members):
            results[i] = _npmle_finish(counts_list[i], penalized, cfg, *(a[row] for a in fit))
    return results


def _npmle_finish(c: FrequencyCounts, penalized, cfg, w, pis, ll, iters, ll_delta, converged):
    """Prune and merge one fitted mixture, then turn it into a point estimate."""
    if not converged:
        return None, "failed", {
            "reason": "EM did not converge",
            "iterations": int(iters),
            "ll_delta": float(ll_delta),
        }
    t, n = c.t, c.s_obs
    # Prune negligible weights and merge near-identical support points.
    keep = w > cfg.prune_weight
    w, pis = w[keep], pis[keep]
    w /= w.sum()
    order = np.argsort(pis)
    w, pis = w[order], pis[order]
    merged_w, merged_p = [], []
    for wi, pi in zip(w, pis):
        if merged_p and pi - merged_p[-1] < cfg.merge_tol:
            tot = merged_w[-1] + wi
            merged_p[-1] = (merged_p[-1] * merged_w[-1] + pi * wi) / tot
            merged_w[-1] = tot
        else:
            merged_p.append(pi)
            merged_w.append(wi)
    w = np.array(merged_w)
    pis = np.array(merged_p)
    if len(w) > cfg.max_support:
        top = np.argsort(w)[-cfg.max_support:]
        w, pis = w[np.sort(top)], pis[np.sort(top)]
        w /= w.sum()

    p0 = float(np.exp(t * np.log1p(-pis)) @ w)
    p0 = min(p0, 1.0 - 1e-12)
    point = n / (1.0 - p0)
    return point, "ok", {
        "iterations": int(iters),
        "log_likelihood": float(ll),
        "support_points": len(w),
        "support": [(float(p), float(wi)) for p, wi in zip(pis, w)],
        "p0": p0,
        "penalized": penalized,
    }


def point_estimate(counts: FrequencyCounts, method: str, *, em_config: EMConfig = None):
    """Dispatch to one of the twelve estimators; returns (point, status, diagnostics)."""
    return point_estimates([counts], method, em_config=em_config)[0]


def point_estimates(counts_list, method: str, *, em_config: EMConfig = None):
    """point_estimate for each count vector in ``counts_list``.

    The NPMLE methods fit all the vectors in one batched EM; each result is
    the same as fitting that vector alone.
    """
    if method not in ALL_METHODS:
        raise ValueError(f"unknown estimator {method!r}")
    results = [None] * len(counts_list)
    mixture = []
    for i, counts in enumerate(counts_list):
        if counts.t < 2:
            results[i] = (None, "failed", {"reason": "need at least 2 sampling units"})
        elif method in ("unpmle", "pnpmle"):
            mixture.append(i)
        elif method in ("ice", "ice1"):
            results[i] = _ice(counts, method == "ice1")
        else:
            results[i] = _CLOSED_FORMS[method](counts)
    fits = _npmle([counts_list[i] for i in mixture], method == "pnpmle", em_config or EMConfig())
    for i, fit in zip(mixture, fits):
        results[i] = fit
    return results


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------

def _chao_type_variance(c: FrequencyCounts, method: str):
    """Classical asymptotic variance for Chao2 / Chao2_bc; None when undefined."""
    t, f1, f2 = c.t, c.fk(1), c.fk(2)
    a = (t - 1) / t
    if method == "chao2":
        if f1 == 0:
            return None
        if f2 > 0:
            r = f1 / f2
            return f2 * (0.5 * a * r ** 2 + a ** 2 * r ** 3 + 0.25 * a ** 2 * r ** 4)
        point, _, _ = _chao2(c)
        if point <= 0:
            return None
        return (
            0.5 * a * f1 * (f1 - 1)
            + 0.25 * a ** 2 * f1 * (2 * f1 - 1) ** 2
            - 0.25 * a ** 2 * f1 ** 4 / point
        )
    if method == "chao2_bc":
        return (
            0.5 * a * f1 * (f1 - 1) / (f2 + 1)
            + 0.25 * a ** 2 * f1 * (2 * f1 - 1) ** 2 / (f2 + 1) ** 2
            + 0.25 * a ** 2 * f1 ** 2 * f2 * (f1 - 1) ** 2 / (f2 + 1) ** 4
        )
    return None


def _normal_ci(point, s_obs, var, level):
    """Symmetric normal interval truncated below at S_obs.

    Unlike Chao's log-transform form, whose lower bound strictly exceeds
    S_obs whenever the estimate does, the lower bound can sit at S_obs, so the
    interval keeps nominal coverage when the sample is nearly complete
    (true S = S_obs happens with sizable probability in that regime).
    """
    if var <= 0:
        return float(min(point, s_obs)), float(point)
    z = ndtri(0.5 + level / 2.0)
    sd = math.sqrt(var)
    return max(float(s_obs), point - z * sd), point + z * sd


#: Faster EM settings for the inner loop of bootstrap resampling.
BOOT_EM_CONFIG = EMConfig(grid_size=20, tol=1e-7, max_iter=1000)


def bootstrap_ci(matrix: IncidenceMatrix, method: str, level: float, seed: int = 0,
                 b: int = 500, point: float = None):
    """Percentile interval from resampling sampling-unit columns with replacement.

    Returns the bounds, the number of resamples kept, and the number dropped
    because their estimate failed or was not finite.
    """
    rng = np.random.default_rng(seed)
    t = matrix.t
    keys = []
    distinct = {}  # identical resampled counts recur often on saturated data
    for _ in range(b):
        y = matrix.w[:, rng.integers(0, t, size=t)].sum(axis=1)
        y = np.sort(y[y > 0])
        key = y.tobytes()  # the sorted Y determine the f_k and vice versa
        if key not in distinct:
            distinct[key] = counts_from_y(t, y)
        keys.append(key)
    fits = dict(zip(distinct, point_estimates(list(distinct.values()), method,
                                              em_config=BOOT_EM_CONFIG)))
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


def estimate(matrix: IncidenceMatrix, method: str, level: float = 0.90, *,
             seed: int = 0, boot_b: int = 500) -> EstimateWithCI:
    """Point estimate plus CI for one method on an incidence matrix."""
    counts = frequency_counts(matrix)
    point, status, diagnostics = point_estimate(counts, method)
    if status == "failed":
        return _failed(method, level, diagnostics.get("reason", "failed"))
    diagnostics = dict(diagnostics)
    if level <= 0.0:
        diagnostics["ci"] = "point"
        return EstimateWithCI(method, point, point, point, level, status, diagnostics)
    var = _chao_type_variance(counts, method) if method in ANALYTIC_CI_METHODS else None
    if var is not None:
        lo, hi = _normal_ci(point, counts.s_obs, var, level)
        diagnostics["ci"] = "analytic-normal-truncated"
        diagnostics["variance"] = var
    else:
        lo, hi, n_ok, n_failed = bootstrap_ci(matrix, method, level, seed, boot_b, point)
        diagnostics["ci"] = "unit-bootstrap-percentile"
        diagnostics["bootstrap_resamples"] = n_ok
        diagnostics["bootstrap_failed"] = n_failed
    lo = min(lo, point)
    hi = max(hi, point)
    return EstimateWithCI(method, point, lo, hi, level, status, diagnostics)


def estimate_all(matrix: IncidenceMatrix, methods=ALL_METHODS, level: float = 0.90, **kw):
    return [estimate(matrix, m, level, **kw) for m in methods]
