"""Incidence-based species-richness estimators of maximum reachability.

Twelve estimators map frequency counts (t, f_1..f_t) to a point estimate of
the total number of coverage elements, with a two-sided confidence interval.
Chao-type intervals are normal intervals on the classical asymptotic
variance, truncated below at the observed richness; everything else (and any
degenerate case) falls back to a nonparametric bootstrap over sampling
units.  Degenerate inputs never raise:
every estimator returns a status of ok, degenerate-fallback, or failed.

The ten closed forms are each written once, over arrays: they score a batch
of count vectors that share t, one per row, and a single count vector is a
batch of one.  The unit bootstrap draws the units of a block of resamples in
one call, turns them into a (resamples x t) multiplicity matrix, and takes
every resample's incidence frequencies Y as that matrix times W transposed,
in float64 (integer sums below 2^53, so exact in any summation order).  A
closed form then scores the whole block at once.  Each formula keeps the
operation order of its scalar form, and the bootstrap estimator's sum is a
sequential cumsum, as Python's sum was.  Its (1 - k/t)^t terms and
Zelterman's exp come from ``math``: numpy's vectorized power and exp differ
from libm in the last bit on some inputs, which would change results.

The two binomial-mixture NPMLEs are fitted by EM accelerated with SQUAREM
(a squared extrapolation of two EM steps), with a fallback to the plain EM
step whenever the extrapolation would lower the objective, so the fit is
monotone.  Their ``iterations`` diagnostic counts EM steps.  The bootstrap
fits each distinct resample once, in a batched EM: count vectors that share
t and their number of distinct k rounded up to a multiple of 8 iterate as
one stack, each padded to that width with its own last k at count 0.  An
EM step builds the log pmf of a block of rows in one buffer, by one small
matrix product per row, and takes exp only on lanes that do not underflow
to 0 (numpy's vectorized exp is slow on those).  It gets the class totals
as w times a product of f/mix with the pmf, with no responsibility array.
A row's arithmetic never depends on its neighbours in a stack, so a fit in
a batch is the same as the fit alone.
"""

from __future__ import annotations

import math
import numbers
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
# Closed-form point estimators, each scored on a batch of count vectors that
# share t.  Each returns (point, status, diagnostics): a float array with NaN
# on failed rows, a str array of statuses, and a function of a row index that
# builds that row's diagnostics dict.  Every formula works row by row, in the
# operation order of the scalar form it replaced: a row's value does not
# depend on its batch, and equals the scalar form's to the last bit.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Rows:
    """The frequency data of count vectors that share t, one per row."""

    t: int
    y: np.ndarray  # (rows, width) int64 incidence frequencies; 0 marks no element
    f: np.ndarray  # (rows, max(t, 10) + 1) int64; f[:, k] = f_k (f[:, 0] counts the 0s)
    s: np.ndarray  # (rows,) observed richness


def _rows(t, y):
    """_Rows of the int64 incidence frequencies ``y`` (one row per vector)."""
    rows, width = y.shape
    cols = max(t, 10) + 1
    f = np.bincount((y + cols * np.arange(rows)[:, None]).ravel(),
                    minlength=rows * cols).reshape(rows, cols)
    return _Rows(t, y, f, width - f[:, 0])


def _all_failed(x: _Rows, reason):
    rows = len(x.s)
    return np.full(rows, np.nan), np.full(rows, "failed"), lambda i: {"reason": reason}


def _ok(x: _Rows):
    return np.full(len(x.s), "ok")


def _chao2(x: _Rows):
    t, s, f1, f2 = x.t, x.s, x.f[:, 1], x.f[:, 2]
    a = (t - 1) / t
    point = np.where(f1 == 0, s, np.where(f2 > 0, s + a * f1 * f1 / (2 * f2),
                                          s + a * f1 * (f1 - 1) / 2.0))
    form = np.where(f1 == 0, "no-singletons", np.where(f2 > 0, "classic", "f2-zero"))
    return point, _ok(x), lambda i: {"form": str(form[i])}


def _chao2_bc(x: _Rows):
    t, f1, f2 = x.t, x.f[:, 1], x.f[:, 2]
    a = (t - 1) / t
    return x.s + a * f1 * (f1 - 1) / (2.0 * (f2 + 1)), _ok(x), lambda i: {}


def _ichao2(x: _Rows):
    t = x.t
    if t < 4:
        return _all_failed(x, "iChao2 requires t >= 4")
    base, _, _ = _chao2(x)
    f1, f2, f3, f4 = (x.f[:, k] for k in (1, 2, 3, 4))
    substituted = f4 == 0
    f4 = np.where(substituted, 1, f4)
    # Where f3 = 0 the extra term is exactly 0.
    extra = ((t - 3) / (4.0 * t)) * (f3 / f4) * np.maximum(
        f1 - ((t - 3) / (2.0 * (t - 1))) * f2 * f3 / f4, 0.0
    )
    return base + extra, _ok(x), lambda i: {"f4_substituted": True} if substituted[i] else {}


def _jk1(x: _Rows):
    t = x.t
    return x.s + x.f[:, 1] * (t - 1) / t, _ok(x), lambda i: {}


def _jk2(x: _Rows):
    t, f1, f2 = x.t, x.f[:, 1], x.f[:, 2]
    return (x.s + f1 * (2 * t - 3) / t - f2 * (t - 2) ** 2 / (t * (t - 1)),
            _ok(x), lambda i: {})


def _ice(x: _Rows, bias_corrected_cv=False):
    t, s, f1 = x.t, x.s, x.f[:, 1]
    k = np.arange(1, 11)  # elements seen in more than 10 units count as frequent
    infrequent = x.f[:, 1:11]
    s_inf = infrequent.sum(axis=1)
    u = infrequent @ k
    sum_kk1 = infrequent @ (k * (k - 1))
    cov = 1.0 - f1 / u
    # t >= 2 here, and u > 1 wherever cov > 0.
    cv2 = gamma2 = np.maximum((s_inf / cov) * (t / (t - 1.0)) * sum_kk1 / (u * u) - 1.0, 0.0)
    if bias_corrected_cv:
        gamma2 = np.maximum(
            gamma2 * (1.0 + (f1 / cov) * (t / (t - 1.0)) * sum_kk1 / (u * (u - 1.0))), 0.0
        )
    no_infrequent = (s_inf == 0) | (u == 0)
    # All infrequent elements are singletons: standard practice is Chao2.
    no_coverage = ~no_infrequent & (cov <= 0.0)
    point = np.where(no_infrequent, s, np.where(no_coverage, _chao2(x)[0],
                                                (s - s_inf) + s_inf / cov + (f1 / cov) * gamma2))
    status = np.where(no_infrequent | no_coverage, "degenerate-fallback", "ok")

    def diagnostics(i):
        if no_infrequent[i]:
            return {"reason": "no infrequent elements"}
        if no_coverage[i]:
            return {"reason": "zero sample coverage, chao2 fallback"}
        d = {"coverage": float(cov[i]), "cv2": float(cv2[i]), "t_star": t}
        if bias_corrected_cv:
            d["cv2_corrected"] = float(gamma2[i])
        return d

    return point, status, diagnostics


def _zelterman(x: _Rows):
    f1, f2 = x.f[:, 1], x.f[:, 2]
    ok = (f1 > 0) & (f2 > 0)
    lam = 2.0 * f2 / f1
    point = np.full(len(f1), np.nan)
    # libm's exp, as in the scalar form: numpy's vectorized exp can differ
    # from it in the last bit.
    point[ok] = x.s[ok] / (1.0 - np.array([math.exp(-v) for v in lam[ok].tolist()]))

    def diagnostics(i):
        if ok[i]:
            return {"lambda": float(lam[i])}
        return {"reason": "lambda undefined (f1 or f2 is zero)"}

    return point, np.where(ok, "ok", "failed"), diagnostics


def _bootstrap_point(x: _Rows):
    t = x.t
    # (1 - k/t)^t from libm for each k present; a 0 (no element) adds 0.
    ks = np.flatnonzero(x.f[:, 1:t + 1].any(axis=0)) + 1
    missed = np.zeros(t + 1)
    missed[ks] = [(1.0 - k / t) ** t for k in ks.tolist()]
    terms = missed[x.y]
    # A sequential sum, as Python's sum in row order; numpy's sum is pairwise.
    extra = np.cumsum(terms, axis=1)[:, -1] if terms.shape[1] else np.zeros(len(terms))
    return x.s + extra, _ok(x), lambda i: {}


def _chao_bunge(x: _Rows):
    s, f1 = x.s, x.f[:, 1]
    n = x.y.sum(axis=1)  # total incidence
    theta = f1 * (x.y * x.y).sum(axis=1) / (n * n)
    point = (s - f1) / (1.0 - theta)
    failed = (n == 0) | (theta >= 1.0)
    clamped = ~failed & (point < s)
    point = np.where(failed, np.nan, np.where(clamped, s, point))
    status = np.where(failed, "failed", np.where(clamped, "degenerate-fallback", "ok"))

    def diagnostics(i):
        if n[i] == 0:
            return {"reason": "no incidences"}
        if failed[i]:
            return {"reason": f"theta {theta[i]:.4f} >= 1"}
        d = {"theta": float(theta[i])}
        if clamped[i]:
            d["clamped"] = True
        return d

    return point, status, diagnostics


_CLOSED_FORMS = {
    "chao2": _chao2,
    "chao2_bc": _chao2_bc,
    "ichao2": _ichao2,
    "jk1": _jk1,
    "jk2": _jk2,
    "ice": _ice,
    "ice1": lambda x: _ice(x, bias_corrected_cv=True),
    "zelterman": _zelterman,
    "bootstrap": _bootstrap_point,
    "chao_bunge": _chao_bunge,
}


def _closed_form(x: _Rows, method):
    """(point, status, diagnostics) of a closed-form method on every row."""
    if x.t < 2:
        return _all_failed(x, "need at least 2 sampling units")
    with np.errstate(divide="ignore", invalid="ignore"):
        return _CLOSED_FORMS[method](x)


def _row(scored, i):
    """Row i of a scored batch, as (point or None, status, diagnostics)."""
    point, status, diagnostics = scored
    status = str(status[i])
    return (None if status == "failed" else float(point[i])), status, diagnostics(i)


def _log_binom_coef(t):
    """log C(t, k) for k = 0..t."""
    lt = math.lgamma(t + 1)
    return np.array([lt - math.lgamma(k + 1) - math.lgamma(t - k + 1) for k in range(t + 1)])


def _pi_floor(t):
    """Support floor: detection probabilities below 1/(2t) are not
    identifiable from t units, and without a floor the unpenalized mixture
    likelihood drifts mass toward pi -> 0 (unbounded estimate)."""
    return 1.0 / (2.0 * t)


#: exp(x) rounds to exactly 0 for every x below this (the smallest subnormal
#: is exp(-744.44), and exp(-745.14) already rounds to 0).  numpy's vectorized
#: exp is several times slower on arrays where such lanes are common.
_EXP_CUT = -745.2

#: Entries of the (rows, width, grid) binomial pmf that ``_em_map`` builds at
#: a time (at least one row), so that a large stack does not raise the peak
#: memory.
_EM_BLOCK = 1 << 15

#: Rows are stacked for the EM by their number of distinct k rounded up to a
#: multiple of this, and padded to it.
_EM_WIDTH_STEP = 8


def _exp_in_place(x):
    """np.exp(x), written over x and bit-equal to it on every lane.  The lanes
    below ``_EXP_CUT``, where np.exp gives exactly 0 by a slow path, are set
    to 0 before the exp (exp(0) is fast) and to 0 again after it.  A NaN
    lane stays NaN."""
    under = x < _EXP_CUT
    x[under] = 0.0
    np.exp(x, out=x)
    x[under] = 0.0
    return x


def _clip_support(pis, t):
    """Support points clipped to [1/(2t), 1 - 1e-10] in place (NaN stays NaN);
    np.clip's Python wrapper costs more than the clip on a small stack."""
    np.maximum(pis, _pi_floor(t), out=pis)
    return np.minimum(pis, 1.0 - 1e-10, out=pis)


def _em_start(t, ks, fks, log_coef, penalized, cfg):
    """The per-row constants of ``_em_map`` for a stack, and its start (w, pi).

    ``ks`` and ``fks`` are contiguous (rows, width) float arrays holding each
    row's observed frequencies and their counts (a padding lane repeats a k
    at count 0); ``log_coef`` is ``_log_binom_coef(t)``.  Every constant has
    the rows on its first axis.
    """
    rows, size = ks.shape[0], cfg.grid_size
    grid = _clip_support(np.linspace(_pi_floor(t), 1.0 - 1e-12, size), t)
    n = fks.sum(axis=1)
    n_aug = np.maximum(n - (cfg.penalty if penalized else 0.0), 0.0)
    terms = np.stack([log_coef[ks.astype(np.intp)], np.ones_like(ks), ks], axis=2)
    data = (terms, ks, fks, n, n_aug)
    return data, np.full((rows, size), 1.0 / size), np.tile(grid, (rows, 1))


def _pmf_coefs(t, pis):
    """The (rows, 3, grid) right-hand factor of the log binomial pmf: row r's
    log pmf is ``terms[r] @ coefs[r]`` = log C(t, k) + t log(1 - pi)
    + k logit(pi), with ``terms`` from ``_em_start``."""
    coefs = np.empty((pis.shape[0], 3, pis.shape[1]))
    coefs[:, 0] = 1.0
    log1m = np.log1p(-pis)
    np.multiply(t, log1m, out=coefs[:, 1])
    np.subtract(np.log(pis), log1m, out=coefs[:, 2])
    return coefs


def _em_map(t, data, w, pis):
    """One EM step for a stack of rows: the updated (w, pi), and at the input
    the objective the EM ascends, L = sum_k f_k log mix_k - n_aug log(1 - p0),
    and the reported zero-truncated log-likelihood (n in place of n_aug).

    The class totals need no (rows, width, grid) responsibilities:
    sum_k f_k resp_kj = w_j sum_k (f_k / mix_k) pmf_kj, and likewise with
    f_k k for the incidences, so both come from one (2, width) x
    (width, grid) product per row.  The pmf is built in row blocks of
    ``_EM_BLOCK`` entries.  Every product is taken per row, at the stack's
    width, so a row's arithmetic does not depend on the other rows in the
    stack or on where the blocks fall.
    """
    terms, k, fk, n, n_aug = data
    rows, width = k.shape
    coefs = _pmf_coefs(t, pis)
    z0 = _exp_in_place(coefs[:, 1].copy())  # (1-pi)^t
    p0 = np.minimum(np.matmul(z0[:, None, :], w[:, :, None])[:, 0, 0], 1.0 - 1e-12)
    n0 = n_aug * p0 / (1.0 - p0)

    mix = np.empty((rows, width))
    cls = np.empty((rows, 2, pis.shape[1]))
    step = max(1, _EM_BLOCK // (width * pis.shape[1]))
    for a in range(0, rows, step):
        b = slice(a, a + step)
        # The binomial pmf C(t, k) pi^k (1 - pi)^(t - k), in one buffer.
        pmf = _exp_in_place(np.matmul(terms[b], coefs[b]))
        mix[b] = np.matmul(pmf, w[b, :, None])[:, :, 0]
        scaled = np.empty((len(pmf), 2, width))
        np.divide(fk[b], mix[b], out=scaled[:, 0])
        np.multiply(scaled[:, 0], k[b], out=scaled[:, 1])
        np.matmul(scaled, pmf, out=cls[b])
    resp0 = z0 * w
    resp0 = np.where(p0[:, None] > 0, resp0 / resp0.sum(axis=1, keepdims=True), 0.0)

    cls_mass = w * cls[:, 0] + n0[:, None] * resp0
    cls_inc = w * cls[:, 1]
    w_new = cls_mass / (n + n0)[:, None]
    pis_new = _clip_support(np.where(cls_mass > 0, cls_inc / (t * cls_mass), pis), t)

    # A zero mixture density makes the objective non-finite (-inf, or NaN
    # where a padding lane's 0 count meets it).
    fit = np.matmul(fk[:, None, :], np.log(mix)[:, :, None])[:, 0, 0]
    log_tail = np.log(1.0 - p0)
    return w_new, pis_new, fit - n_aug * log_tail, fit - n * log_tail


def _em(t, ks, fks, log_coef, penalized, cfg):
    """SQUAREM-accelerated EM for rows of count vectors that share t and a
    padded width (arguments as for ``_em_start``).

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
            pe = _clip_support(pl - 2.0 * alpha * pr + alpha * alpha * pv, t)
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

    A count vector's (k, f_k) pairs are padded to its number of distinct k
    rounded up to a multiple of ``_EM_WIDTH_STEP``, with its own last k at
    count 0, which adds nothing to the fit.  The vectors with the same t and
    padded width are fitted together in one batched EM.  The padded width
    depends only on the vector itself, so each fit is the same as fitting
    that vector alone.  Returns one (point, status, diagnostics) per count
    vector.
    """
    results = [None] * len(counts_list)
    groups = {}
    for i, c in enumerate(counts_list):
        if c.s_obs == 0:
            results[i] = (None, "failed", {"reason": "no observed elements"})
        else:
            width = -(-len(c.f) // _EM_WIDTH_STEP) * _EM_WIDTH_STEP
            groups.setdefault((c.t, width), []).append(i)
    log_coef = {t: _log_binom_coef(t) for t, _ in groups}
    for (t, width), members in groups.items():
        padded = []
        for i in members:
            pairs = sorted(counts_list[i].f.items())
            padded.append(pairs + [(pairs[-1][0], 0)] * (width - len(pairs)))
        ks, fks = np.ascontiguousarray(np.array(padded, dtype=float).transpose(2, 0, 1))
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
    the same as fitting that vector alone.  A closed form scores each vector
    as a batch of one.
    """
    if method not in ALL_METHODS:
        raise ValueError(f"unknown estimator {method!r}")
    if method not in ("unpmle", "pnpmle"):
        return [_row(_closed_form(_rows(c.t, np.array(c.y, dtype=np.int64).reshape(1, -1)),
                                  method), 0)
                for c in counts_list]
    results = [None] * len(counts_list)
    mixture = []
    for i, counts in enumerate(counts_list):
        if counts.t < 2:
            results[i] = (None, "failed", {"reason": "need at least 2 sampling units"})
        else:
            mixture.append(i)
    fits = _npmle([counts_list[i] for i in mixture], method == "pnpmle", em_config or EMConfig())
    for i, fit in zip(mixture, fits):
        results[i] = fit
    return results


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------

def check_level(level):
    """Reject a CI level outside [0, 1); level 0 asks for point intervals."""
    if not isinstance(level, numbers.Real) or not 0.0 <= level < 1.0:
        raise ValueError(f"CI level must lie in [0, 1), got {level}")


def _chao_type_variance(c: FrequencyCounts, method: str, point: float):
    """Classical asymptotic variance for Chao2 / Chao2_bc at their ``point``;
    None when undefined."""
    t, f1, f2 = c.t, c.fk(1), c.fk(2)
    a = (t - 1) / t
    if method == "chao2":
        if f1 == 0:
            return None
        if f2 > 0:
            r = f1 / f2
            return f2 * (0.5 * a * r ** 2 + a ** 2 * r ** 3 + 0.25 * a ** 2 * r ** 4)
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

#: Entries of the (resamples x t) multiplicity matrix drawn and scored at a
#: time (at least one resample).  It bounds the bootstrap's working set to a
#: few arrays of 128 KiB besides the float64 copy of W; larger blocks raised
#: the peak memory of whole runs and were no faster.
_BOOT_BLOCK = 1 << 14


def _resampled_y(rng, wt, n):
    """The sorted incidence frequencies of n unit resamples of the matrix
    whose transposed W is ``wt`` (float64, t x S): one (n, S) int64 array."""
    t = wt.shape[0]
    draws = rng.integers(0, t, size=(n, t))
    draws += t * np.arange(n)[:, None]
    mult = np.bincount(draws.ravel(), minlength=n * t).reshape(n, t).astype(np.float64)
    # Integer products and sums below 2^53: exact in any summation order.
    return np.sort((mult @ wt).astype(np.int64), axis=1)


def bootstrap_ci(matrix: IncidenceMatrix, method: str, level: float, seed: int = 0,
                 b: int = 500, point: float = None):
    """Percentile interval from resampling sampling-unit columns with replacement.

    Resample r draws its t units as the r-th run of t values from
    ``default_rng(seed)``; the resamples are drawn and scored in blocks,
    each drawn in one call, which reads the same stream.  Returns the bounds,
    the number of resamples kept, and the number dropped because their
    estimate failed or was not finite.
    """
    if method not in ALL_METHODS:
        raise ValueError(f"unknown estimator {method!r}")
    rng = np.random.default_rng(seed)
    s, t = matrix.w.shape
    wt = matrix.w.T.astype(np.float64)
    step = max(1, _BOOT_BLOCK // max(t, s))
    values = np.empty(b)
    mixture = method in ("unpmle", "pnpmle")
    distinct, index, inverse = [], {}, []
    for start in range(0, b, step):
        y = _resampled_y(rng, wt, min(step, b - start))
        if not mixture:
            values[start:start + len(y)] = _closed_form(_rows(t, y), method)[0]
            continue
        # Each distinct resample is fitted once: identical resampled counts
        # recur often on saturated data.
        for row in y:
            row = row[row > 0]
            key = row.tobytes()  # the sorted Y determine the f_k and vice versa
            if key not in index:
                index[key] = len(distinct)
                distinct.append(counts_from_y(t, row))
            inverse.append(index[key])
    if mixture:
        fits = point_estimates(distinct, method, em_config=BOOT_EM_CONFIG)
        values = np.array([np.nan if p is None else p for p, _, _ in fits])[inverse]
    values = values[np.isfinite(values)]
    failed = b - len(values)
    if not len(values):
        return float("nan"), float("nan"), 0, failed
    if (values == values[0]).all():
        v = values[0] if point is None else point
        return float(v), float(v), len(values), failed
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(values, [alpha, 1.0 - alpha])
    return float(lo), float(hi), len(values), failed


def estimate(matrix: IncidenceMatrix, method: str, level: float = 0.90, *,
             seed: int = 0, boot_b: int = 500) -> EstimateWithCI:
    """Point estimate plus CI for one method on an incidence matrix."""
    check_level(level)
    counts = frequency_counts(matrix)
    point, status, diagnostics = point_estimate(counts, method)
    if status == "failed":
        return _failed(method, level, diagnostics.get("reason", "failed"))
    diagnostics = dict(diagnostics)
    if level == 0.0:
        diagnostics["ci"] = "point"
        return EstimateWithCI(method, point, point, point, level, status, diagnostics)
    var = (_chao_type_variance(counts, method, point) if method in ANALYTIC_CI_METHODS
           else None)
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
