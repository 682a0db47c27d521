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
in float32 (every partial sum is an integer no larger than t, so exact in
any summation order while t < 2^24; float64 above).  A closed form then
scores the whole block at once.  Each formula keeps the operation order of
its scalar form, and the bootstrap estimator's sum is a sequential cumsum,
as Python's sum was.  Its (1 - k/t)^t terms and Zelterman's exp come from
``math``: numpy's vectorized power and exp differ from libm in the last bit
on some inputs, which would change results.

Estimates are made in batches of (matrix, method, seed) jobs
(``estimate_many``; ``estimate``, ``estimate_all`` and ``bootstrap_ci`` are
batches of one).  Each method's point estimates are one call, each job
draws its resamples from its own seed's stream, and each NPMLE method fits
the distinct resamples of all its jobs in one call.

The two binomial-mixture NPMLEs are fitted by EM accelerated with SQUAREM
(a squared extrapolation of two EM steps), with a fallback to the plain EM
step whenever the extrapolation would lower the objective, so the fit is
monotone.  Their ``iterations`` diagnostic counts EM steps.  Count vectors
with the same number of distinct k rounded up to a multiple of 8 share one
queued EM, whatever their t: each is padded to that width with its own last
k at count 0, and t, the grid, log C(t, k) and the support floor are per
row.  The rows iterate in a live stack of at most b rows (the bootstrap's
resample count), refilled from the queue at a cycle's start once half of it
has stopped, and each row counts its own EM steps.  An EM step builds the
log pmf of a block of rows in one buffer, by one small matrix product per
row, and takes exp only on lanes that do not underflow to 0 (numpy's
vectorized exp is slow on those).  It gets the class totals as w times a
product of f/mix with the pmf, with no responsibility array.  A row's
arithmetic never depends on its neighbours or on when it joined the stack,
so a fit in a batch is the same as the fit alone.
"""

from __future__ import annotations

import math
import numbers
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .incidence import FrequencyCounts, IncidenceMatrix, counts_from_y, frequency_counts
from .stattests import ndtri

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
    tol: float = 1e-9
    max_iter: int = 5000


#: Pseudo-count by which ``pnpmle`` shrinks the unobserved class.
NPMLE_PENALTY = 1.0
#: A fitted mixture keeps its support points of weight above this, merged when
#: closer than ``NPMLE_MERGE_TOL``, and then its ``NPMLE_MAX_SUPPORT`` heaviest.
NPMLE_PRUNE_WEIGHT = 1e-6
NPMLE_MERGE_TOL = 1e-3
NPMLE_MAX_SUPPORT = 20


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


def _clip_support(pis, floor):
    """Support points clipped to [floor, 1 - 1e-10] in place (NaN stays NaN);
    ``floor`` is ``_pi_floor`` of t, a scalar or a column with one t per
    row.  np.clip's Python wrapper costs more than the clip on a small
    stack."""
    np.maximum(pis, floor, out=pis)
    return np.minimum(pis, 1.0 - 1e-10, out=pis)


def _em_start(t, ks, fks, penalized, cfg, per_t=None):
    """The per-row constants of ``_em_map`` for rows entering a stack, and
    their start (w, pi).

    ``t`` is an int array with each row's number of units; ``ks`` and
    ``fks`` are contiguous (rows, width) float arrays holding each row's
    observed frequencies and their counts (a padding lane repeats a k at
    count 0).  ``per_t`` caches log C(t, k) and the start grid of each t
    across calls with one ``cfg``.  Returns t as a float column, the
    constants (every one with the rows on its first axis), w and pi.
    """
    per_t = {} if per_t is None else per_t
    t = np.asarray(t)
    rows, width = ks.shape
    terms = np.empty((rows, width, 3))
    pis = np.empty((rows, cfg.grid_size))
    for tv in np.unique(t).tolist():
        if tv not in per_t:
            grid = np.linspace(_pi_floor(tv), 1.0 - 1e-12, cfg.grid_size)
            per_t[tv] = _log_binom_coef(tv), _clip_support(grid, _pi_floor(tv))
        log_coef, grid = per_t[tv]
        rows_t = t == tv
        terms[rows_t, :, 0] = log_coef[ks[rows_t].astype(np.intp)]
        pis[rows_t] = grid
    terms[:, :, 1] = 1.0
    terms[:, :, 2] = ks
    tcol = t.astype(np.float64).reshape(rows, 1)
    n = fks.sum(axis=1)
    n_aug = np.maximum(n - (NPMLE_PENALTY if penalized else 0.0), 0.0)
    data = (terms, ks, fks, n, n_aug, _pi_floor(tcol))
    return tcol, data, np.full((rows, cfg.grid_size), 1.0 / cfg.grid_size), pis


def _pmf_coefs(t, pis):
    """The (rows, 3, grid) right-hand factor of the log binomial pmf: row r's
    log pmf is ``terms[r] @ coefs[r]`` = log C(t, k) + t log(1 - pi)
    + k logit(pi), with ``terms`` from ``_em_start`` and t a scalar or a
    column."""
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
    ``t`` is the column of each row's units and ``data`` the constants, both
    from ``_em_start``.

    The class totals need no (rows, width, grid) responsibilities:
    sum_k f_k resp_kj = w_j sum_k (f_k / mix_k) pmf_kj, and likewise with
    f_k k for the incidences, so both come from one (2, width) x
    (width, grid) product per row.  The pmf is built in row blocks of
    ``_EM_BLOCK`` entries.  Every product is taken per row, at the stack's
    width, so a row's arithmetic does not depend on the other rows in the
    stack or on where the blocks fall.
    """
    terms, k, fk, n, n_aug, floor = data
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
    pis_new = _clip_support(np.where(cls_mass > 0, cls_inc / (t * cls_mass), pis), floor)

    # A zero mixture density makes the objective non-finite (-inf, or NaN
    # where a padding lane's 0 count meets it).
    fit = np.matmul(fk[:, None, :], np.log(mix)[:, :, None])[:, 0, 0]
    log_tail = np.log(1.0 - p0)
    return w_new, pis_new, fit - n_aug * log_tail, fit - n * log_tail


def _squarem(t, data, w0, p0, w1, p1, obj0):
    """The rest of one SqS3 cycle from theta0 = (w0, p0), whose EM step
    theta1 = (w1, p1) and objective ``obj0`` are known: theta2 = F(theta1);
    with r = theta1 - theta0 and v = theta2 - 2 theta1 + theta0, the step
    length alpha = min(-|r|/|v|, -1) (-1 when not finite); an extrapolation
    to theta0 - 2 alpha r + alpha^2 v, projected back onto the simplex and
    the support interval; and one stabilising EM step from there, kept only
    where the objective at the extrapolation is not below ``obj0``
    (otherwise theta2), so the objective never falls."""
    w2, p2, _, _ = _em_map(t, data, w1, p1)
    wr, pr = w1 - w0, p1 - p0
    wv, pv = w2 - 2.0 * w1 + w0, p2 - 2.0 * p1 + p0
    alpha = -np.sqrt(((wr * wr).sum(axis=1) + (pr * pr).sum(axis=1))
                     / ((wv * wv).sum(axis=1) + (pv * pv).sum(axis=1)))
    alpha = np.where(np.isfinite(alpha), np.minimum(alpha, -1.0), -1.0)[:, None]
    we = np.maximum(w0 - 2.0 * alpha * wr + alpha * alpha * wv, 0.0)
    we /= we.sum(axis=1, keepdims=True)
    pe = _clip_support(p0 - 2.0 * alpha * pr + alpha * alpha * pv, data[-1])
    w3, p3, obj_e, _ = _em_map(t, data, we, pe)
    kept = (obj_e >= obj0)[:, None]
    return np.where(kept, w3, w2), np.where(kept, p3, p2)


def _take(arrays, rows):
    return tuple(a[rows] for a in arrays)


def _em(t, ks, fks, penalized, cfg, stack_rows=None):
    """SQUAREM-accelerated EM for rows of count vectors that share a padded
    width, each with its own number of units t (arguments as for
    ``_em_start``).

    The rows wait in a queue and iterate in a live stack of at most
    ``stack_rows`` rows (default: all of them).  At a cycle's start, once
    the live rows are no more than half of that, queued rows join the
    stack up to it.  Every quantity is taken per row, so a row's fit does
    not depend on when it joined or on its neighbours.  Each cycle follows
    the monotone SqS3 scheme (Varadhan & Roland 2008, Scand. J. Stat.
    35:335): an EM step from the cycle's start, then ``_squarem``.

    A row stops where one cycle raises the objective by less than
    ``cfg.tol``, or where it turns non-finite (a frequency that no support
    point can produce).  Each row counts its own EM steps, three per cycle:
    ``cfg.max_iter`` bounds them, and a row whose remaining budget is too
    short for a whole cycle and a convergence check after it spends it on
    plain EM steps.  Yields, for the rows that stop at one step, their
    indices, weights, support, log-likelihood, iterations, last objective
    change and whether they converged; the live stack, not the queue,
    bounds the memory.
    """
    rows = len(ks)
    cap = rows if stack_rows is None else max(1, stack_rows)
    per_t, joined = {}, 0
    # Per live row: its index, t, (w, pi) at the cycle's start, objective,
    # last objective change, log-likelihood and EM steps, then the
    # constants of ``_em_map``.
    live = ()
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        while True:
            n_live = len(live[0]) if live else 0
            if joined < rows and 2 * n_live <= cap:
                new = np.arange(joined, min(rows, joined + cap - n_live))
                joined += len(new)
                tn, data, w, pis = _em_start(t[new], ks[new], fks[new], penalized, cfg, per_t)
                nan = np.full(len(new), np.nan)
                fresh = (new, tn, w, pis, np.full(len(new), -np.inf), nan, nan,
                         np.zeros(len(new), dtype=np.intp), *data)
                live = tuple(map(np.concatenate, zip(live, fresh))) if n_live else fresh
            elif not n_live:
                return
            idx, tl, w, pis, obj_prev, _, _, evals, *data = live
            # Every convergence check sits at a cycle's start.
            w1, p1, obj, ll = _em_map(tl, data, w, pis)
            evals = evals + 1
            step = np.abs(obj - obj_prev)
            finite = np.isfinite(obj)
            stop = (step < cfg.tol) | ~finite
            if stop.any():
                yield idx[stop], w1[stop], p1[stop], ll[stop], evals[stop], step[stop], finite[stop]
                idx, tl, w, pis, w1, p1, obj, step, ll, evals, *data = _take(
                    (idx, tl, w, pis, w1, p1, obj, step, ll, evals, *data), ~stop)
                if not len(idx):
                    live = ()
                    continue
            # A row whose budget is too short for a cycle takes the plain
            # EM step (w1, p1).
            cycle = cfg.max_iter - evals >= 3
            if cycle.all():
                w1, p1 = _squarem(tl, data, w, pis, w1, p1, obj)
            elif cycle.any():
                w1[cycle], p1[cycle] = _squarem(tl[cycle], _take(data, cycle), w[cycle],
                                                pis[cycle], w1[cycle], p1[cycle], obj[cycle])
            evals = evals + 2 * cycle
            live = (idx, tl, w1, p1, obj, step, ll, evals, *data)
            spent = evals >= cfg.max_iter
            if spent.any():
                yield (idx[spent], w1[spent], p1[spent], ll[spent], evals[spent], step[spent],
                       np.zeros(spent.sum(), dtype=bool))
                live = _take(live, ~spent)


def _npmle(counts_list, penalized: bool, cfg: EMConfig, stack_rows=None):
    """Zero-truncated binomial mixtures fitted by EM over a support grid.

    The unobserved zero class is handled by data augmentation; the
    penalized variant shrinks the augmented zero count, which bounds the
    estimate away from the f0 blow-up of the raw mixture likelihood.

    Each count vector is read once.  Its (k, f_k) pairs are padded to its
    number of distinct k rounded up to a multiple of ``_EM_WIDTH_STEP``,
    with its own last k at count 0, which adds nothing to the fit, and the
    vectors of one padded width, whatever their t, are fitted in one queued
    EM with a live stack of at most ``stack_rows`` rows.  The padded width
    depends only on the vector itself, so each fit is the same as fitting
    that vector alone.  Returns one (point, status, diagnostics) per count
    vector.
    """
    results = [None] * len(counts_list)
    # Padded width -> indices, t and S_obs of its vectors, and their padded
    # k and f_k as float rows: machine numbers, so that a long queue holds no
    # Python objects per entry.
    buckets = {}
    for i, c in enumerate(counts_list):
        if c.t < 2:
            results[i] = (None, "failed", {"reason": "need at least 2 sampling units"})
        elif c.s_obs == 0:
            results[i] = (None, "failed", {"reason": "no observed elements"})
        else:
            ks = sorted(c.f)
            pad = -len(ks) % _EM_WIDTH_STEP
            if len(ks) + pad not in buckets:
                buckets[len(ks) + pad] = tuple(array(code) for code in "qqqdd")
            bucket = buckets[len(ks) + pad]
            for column, value in zip(bucket, (i, c.t, c.s_obs)):
                column.append(value)
            bucket[3].extend(ks + [ks[-1]] * pad)
            bucket[4].extend([c.f[k] for k in ks] + [0] * pad)
    for width, (members, ts, s_obs, ks, fks) in buckets.items():
        fits = _em(np.frombuffer(ts, dtype=np.int64), np.frombuffer(ks).reshape(-1, width),
                   np.frombuffer(fks).reshape(-1, width), penalized, cfg, stack_rows)
        for rows, *fit in fits:
            for j, row in enumerate(rows.tolist()):
                results[members[row]] = _npmle_finish(ts[row], s_obs[row], penalized,
                                                      *(a[j] for a in fit))
    return results


def _npmle_finish(t, n, penalized, w, pis, ll, iters, ll_delta, converged):
    """Prune and merge one fitted mixture of a count vector of t units and
    n observed elements, then turn it into a point estimate."""
    if not converged:
        return None, "failed", {
            "reason": "EM did not converge",
            "iterations": int(iters),
            "ll_delta": float(ll_delta),
        }
    # Prune negligible weights and merge near-identical support points.
    keep = w > NPMLE_PRUNE_WEIGHT
    w, pis = w[keep], pis[keep]
    w /= w.sum()
    order = np.argsort(pis)
    w, pis = w[order], pis[order]
    merged_w, merged_p = [], []
    for wi, pi in zip(w, pis):
        if merged_p and pi - merged_p[-1] < NPMLE_MERGE_TOL:
            tot = merged_w[-1] + wi
            merged_p[-1] = (merged_p[-1] * merged_w[-1] + pi * wi) / tot
            merged_w[-1] = tot
        else:
            merged_p.append(pi)
            merged_w.append(wi)
    w = np.array(merged_w)
    pis = np.array(merged_p)
    if len(w) > NPMLE_MAX_SUPPORT:
        top = np.argsort(w)[-NPMLE_MAX_SUPPORT:]
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


def point_estimates(counts_list, method: str, *, em_config: EMConfig = None, stack_rows=None):
    """point_estimate for each count vector in ``counts_list``, a sequence
    that is read once, in order.

    The NPMLE methods fit all the vectors in one queued EM per padded width,
    with at most ``stack_rows`` rows iterating at once (default: all); each
    result is the same as fitting that vector alone.  A closed form scores
    each vector as a batch of one.
    """
    check_methods((method,))
    if method in ("unpmle", "pnpmle"):
        return _npmle(counts_list, method == "pnpmle", em_config or EMConfig(), stack_rows)
    return [_row(_closed_form(_rows(c.t, np.array(c.y, dtype=np.int64).reshape(1, -1)), method), 0)
            for c in counts_list]


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------

def check_level(level):
    """Reject a CI level outside [0, 1); level 0 asks for point intervals."""
    if not isinstance(level, numbers.Real) or not 0.0 <= level < 1.0:
        raise ValueError(f"CI level must lie in [0, 1), got {level}")


def check_methods(methods):
    """Reject a method name that is not one of ``ALL_METHODS``."""
    for method in methods:
        if method not in ALL_METHODS:
            raise ValueError(f"unknown estimator {method!r}")


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
#: few arrays of 128 KiB besides the float copy of W; larger blocks raised
#: the peak memory of whole runs and were no faster.
_BOOT_BLOCK = 1 << 14


def _resampled_y(rng, wt, n):
    """The sorted incidence frequencies of n unit resamples of the matrix
    whose transposed W is the float array ``wt`` (t x S): one (n, S) int64
    array."""
    t = wt.shape[0]
    draws = rng.integers(0, t, size=(n, t))
    draws += t * np.arange(n)[:, None]
    mult = np.bincount(draws.ravel(), minlength=n * t).reshape(n, t).astype(wt.dtype)
    # Integer products and partial sums no larger than t: exact in any
    # summation order.
    return np.sort((mult @ wt).astype(np.int64), axis=1)


class _DistinctResamples(Sequence):
    """Resampled count vectors held compactly, as (t, sorted nonzero Y
    bytes); item i is built as FrequencyCounts only when it is read."""

    def __init__(self):
        self._rows = []

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        t, key = self._rows[i]
        return counts_from_y(t, np.frombuffer(key, dtype=np.int64))

    def add(self, t, key):
        self._rows.append((t, key))
        return len(self._rows) - 1


def _percentile_ci(values, level, point):
    """(lo, hi, kept, failed) of the bootstrap estimates ``values``; failed
    counts those that are NaN or not finite."""
    finite = values[np.isfinite(values)]
    failed = len(values) - len(finite)
    if not len(finite):
        return float("nan"), float("nan"), 0, failed
    if (finite == finite[0]).all():
        v = finite[0] if point is None else point
        return float(v), float(v), len(finite), failed
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(finite, [alpha, 1.0 - alpha])
    return float(lo), float(hi), len(finite), failed


def _resample_blocks(matrix: IncidenceMatrix, seed, b):
    """The b unit resamples of ``matrix`` drawn from ``default_rng(seed)``,
    as (index of the first, ``_resampled_y`` of a block of them)."""
    rng = np.random.default_rng(seed)
    s, t = matrix.w.shape
    # A resample's multiplicities sum to t, so every partial sum of its
    # product with W is an integer no larger than t: exact in float32 while
    # t < 2^24, at half the memory of float64.
    wt = matrix.w.T.astype(np.float32 if t < 1 << 24 else np.float64)
    step = max(1, _BOOT_BLOCK // max(t, s))
    for start in range(0, b, step):
        yield start, _resampled_y(rng, wt, min(step, b - start))


def _bootstrap_many(jobs, level, b):
    """``bootstrap_ci`` for each (matrix, method, seed, point) job.

    Each job draws its resamples from its own seed's stream.  A closed form
    scores a job's resamples block by block.  An NPMLE job keeps each of
    its distinct resamples once, and all the jobs of one NPMLE method are
    fitted in one ``point_estimates`` call, whose live EM stack holds at
    most b rows; one method's resamples are held at a time.
    """
    values = [None] * len(jobs)
    mixtures = {"unpmle": [], "pnpmle": []}
    for j, (matrix, method, seed, _) in enumerate(jobs):
        check_methods((method,))
        if method in mixtures:
            mixtures[method].append(j)
            continue
        values[j] = np.empty(b)
        for start, y in _resample_blocks(matrix, seed, b):
            values[j][start:start + len(y)] = _closed_form(_rows(matrix.t, y), method)[0]
    for method, members in mixtures.items():
        if not members:
            continue
        resamples, inverses = _DistinctResamples(), []
        for j in members:
            matrix, _, seed, _ = jobs[j]
            # Each distinct resample is fitted once: identical resampled
            # counts recur often on saturated data.
            index, inverse = {}, []
            for _, y in _resample_blocks(matrix, seed, b):
                for row in y:
                    key = row[row > 0].tobytes()  # the sorted Y determine the f_k and vice versa
                    if key not in index:
                        index[key] = resamples.add(matrix.t, key)
                    inverse.append(index[key])
            inverses.append(inverse)
        points = np.array([np.nan if p is None else p for p, _, _ in point_estimates(
            resamples, method, em_config=BOOT_EM_CONFIG, stack_rows=b)])
        for j, inverse in zip(members, inverses):
            values[j] = points[inverse]
    return [_percentile_ci(v, level, point) for v, (_, _, _, point) in zip(values, jobs)]


def bootstrap_ci(matrix: IncidenceMatrix, method: str, level: float, seed: int = 0,
                 b: int = 500, point: float = None):
    """Percentile interval from resampling sampling-unit columns with replacement.

    Resample r draws its t units as the r-th run of t values from
    ``default_rng(seed)``; the resamples are drawn and scored in blocks,
    each drawn in one call, which reads the same stream.  Returns the bounds,
    the number of resamples kept, and the number dropped because their
    estimate failed or was not finite.  A batch of one of ``_bootstrap_many``.
    """
    return _bootstrap_many([(matrix, method, seed, point)], level, b)[0]


def estimate_many(jobs, level: float = 0.90, *, boot_b: int = 500) -> list:
    """Point estimate plus CI for each (matrix, method, seed) job, in order.

    Each method's point estimates come from one ``point_estimates`` call.
    The jobs whose interval is a bootstrap then share one bootstrap batch,
    in which every job draws from its own seed's stream and each NPMLE
    method fits all its jobs' resamples in one queued EM.  Every result is
    the same as the job's estimate alone.
    """
    check_level(level)
    jobs = list(jobs)
    counts = [frequency_counts(matrix) for matrix, _, _ in jobs]
    by_method = {}
    for i, (_, method, _) in enumerate(jobs):
        by_method.setdefault(method, []).append(i)
    points = [None] * len(jobs)
    for method, members in by_method.items():
        fits = point_estimates([counts[i] for i in members], method, stack_rows=boot_b)
        for i, fit in zip(members, fits):
            points[i] = fit

    # Each job's interval (lo, hi) and the diagnostics that describe it.
    results, intervals, boot = [None] * len(jobs), {}, []
    for i, ((_, method, _), (point, status, diagnostics)) in enumerate(zip(jobs, points)):
        if status == "failed":
            results[i] = _failed(method, level, diagnostics.get("reason", "failed"))
            continue
        var = (_chao_type_variance(counts[i], method, point)
               if method in ANALYTIC_CI_METHODS and level != 0.0 else None)
        if level == 0.0:
            intervals[i] = point, point, {"ci": "point"}
        elif var is not None:
            lo, hi = _normal_ci(point, counts[i].s_obs, var, level)
            intervals[i] = lo, hi, {"ci": "analytic-normal-truncated", "variance": var}
        else:
            boot.append(i)
    for i, (lo, hi, n_ok, n_failed) in zip(
            boot, _bootstrap_many([(*jobs[i], points[i][0]) for i in boot], level, boot_b)):
        intervals[i] = lo, hi, {"ci": "unit-bootstrap-percentile", "bootstrap_resamples": n_ok,
                                "bootstrap_failed": n_failed}
    for i, (lo, hi, described) in intervals.items():
        point, status, diagnostics = points[i]
        results[i] = EstimateWithCI(jobs[i][1], point, min(lo, point), max(hi, point), level,
                                    status, {**diagnostics, **described})
    return results


def estimate(matrix: IncidenceMatrix, method: str, level: float = 0.90, *,
             seed: int = 0, boot_b: int = 500) -> EstimateWithCI:
    """Point estimate plus CI for one method on an incidence matrix: a batch
    of one of ``estimate_many``."""
    return estimate_many([(matrix, method, seed)], level, boot_b=boot_b)[0]


def estimate_all(matrix: IncidenceMatrix, methods=ALL_METHODS, level: float = 0.90, *,
                 seed: int = 0, boot_b: int = 500):
    """``estimate`` of every method in ``methods``, as one batch."""
    return estimate_many([(matrix, m, seed) for m in methods], level, boot_b=boot_b)
