"""Accuracy and reliability evaluation of the reachability estimators.

RQ1 machinery: a Bernoulli product simulation oracle with known true
richness, mean relative bias over K trials, imprecision (sample variance of
per-trial relative biases), and CI coverage, reported per estimator and
checkpoint from the trials' estimate CSVs.  RQ2 machinery: per-trial
estimates under different sampling-unit binnings of the same campaigns,
compared with Welch's t-test (or Mann-Whitney on non-normal samples) plus a
CI cross-containment check.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, fields
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .estimators import EstimateWithCI, estimate_many
from .incidence import IncidenceMatrix, _observed, rebin
from .stattests import StatTestError, mann_whitney_u, shapiro_wilk, welch_t_test


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class BernoulliProductModel:
    """True richness S with per-element unit-detection probabilities pi_1..pi_S."""

    s: int
    pi: tuple
    t: int

    def validate(self):
        if len(self.pi) != self.s:
            raise EvaluationError("pi must have exactly S entries")
        if any(not (0.0 < p <= 1.0) for p in self.pi):
            raise EvaluationError("detection probabilities must be in (0, 1]")
        if self.t < 1:
            raise EvaluationError("t must be >= 1")

    @classmethod
    def homogeneous(cls, s: int, pi: float, t: int):
        return cls(s, (pi,) * s, t)


def simulate_incidence(model: BernoulliProductModel, rng_seed: int) -> IncidenceMatrix:
    """Draw W_ij ~ Bernoulli(pi_i) independently; unobserved rows are dropped."""
    model.validate()
    rng = np.random.default_rng(rng_seed)
    pi = np.asarray(model.pi)[:, None]
    return _observed(model.t, range(model.s), rng.random((model.s, model.t)) < pi)


def mean_bias(estimates, true_s: float) -> float:
    """Average relative bias (sum of (estimate - S) / (K * S)) over trials."""
    if not estimates:
        raise EvaluationError("mean_bias of an empty estimate list")
    if true_s <= 0:
        raise EvaluationError("true richness must be positive")
    k = len(estimates)
    return sum((e.point - true_s) / (k * true_s) for e in estimates)


def imprecision(estimates, true_s: float) -> float:
    """Sample variance (n-1 denominator) of the per-trial relative biases."""
    if len(estimates) < 2:
        raise EvaluationError("imprecision needs at least 2 trials")
    biases = [(e.point - true_s) / true_s for e in estimates]
    return float(np.var(biases, ddof=1))


def ci_coverage(estimates, true_s: float):
    """Fraction of non-failed trials whose CI contains S, plus the failed count."""
    ok = [e for e in estimates if e.status != "failed"]
    n_failed = len(estimates) - len(ok)
    if not ok:
        return float("nan"), n_failed
    hits = sum(1 for e in ok if e.ci_low <= true_s <= e.ci_high)
    return hits / len(ok), n_failed


def _row_to_estimate(row) -> EstimateWithCI:
    """The estimate that an estimate-CSV row was written from."""
    return EstimateWithCI(row["method"], int(row["t"]), float(row["point"]),
                          float(row["ci_low"]), float(row["ci_high"]), row["status"],
                          json.loads(row["diagnostics"]))


def rq1_report(paths, true_s: int, program: int = None) -> list:
    """RQ1 metrics of the estimate CSVs at ``paths``, one per trial.

    Rows are grouped by (estimator, t), and each group gives one entry, in
    (estimator, t) order.  With ``program`` set, an entry also names the
    program and the true richness.  A CSV whose header is not the fields of
    ``EstimateWithCI`` is an error.
    """
    header = [f.name for f in fields(EstimateWithCI)]
    grouped = {}
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != header:
                raise EvaluationError(f"{path} is not an estimate CSV: its header is "
                                      f"{reader.fieldnames}, not {header}")
            for est in map(_row_to_estimate, reader):
                grouped.setdefault((est.method, est.t), []).append(est)
    report = []
    for (method, t), ests in sorted(grouped.items()):
        ok = [e for e in ests if e.status != "failed"]
        cov, n_failed = ci_coverage(ests, true_s)
        entry = {"estimator": method, "t": t}
        if program is not None:
            entry = {"program": program, **entry, "true_s": true_s}
        report.append(dict(entry, mean_bias=mean_bias(ok, true_s) if ok else math.nan,
                           imprecision=imprecision(ok, true_s) if len(ok) >= 2 else math.nan,
                           ci_coverage=cov, n_failed=n_failed, k=len(ests)))
    return report


@dataclass(frozen=True)
class SensitivityVerdict:
    """One method's RQ2 verdict between unit sizes r_a and r_b: one verdict-CSV row."""
    method: str
    r_a: int
    r_b: int
    mean_a: float = math.nan
    mean_b: float = math.nan
    ci_a_low: float = math.nan  # the mean CI bounds at r_a
    ci_a_high: float = math.nan
    ci_b_low: float = math.nan
    ci_b_high: float = math.nan
    test_used: str = "none"  # 'welch' | 'mann-whitney' | 'none'
    p_value: float = math.nan
    ci_overlap: bool = False
    interval_intersect: bool = False
    reliable: bool = False
    inconclusive: bool = False
    n_failed_a: int = 0
    n_failed_b: int = 0


def check_alpha(alpha):
    """Reject a significance level outside (0, 1)."""
    if not isinstance(alpha, numbers.Real) or not 0.0 < alpha < 1.0:
        raise EvaluationError(f"alpha must lie in (0, 1), got {alpha}")


def check_unit_sizes(unit_sizes, base_r, repeats: bool = False):
    """Reject unit sizes that rebinning logs of unit size ``base_r`` cannot
    give and, unless ``repeats``, a size given twice, whose verdict would
    compare a binning with itself."""
    if not isinstance(unit_sizes, (list, tuple)) or len(unit_sizes) < 2:
        raise EvaluationError("need at least two unit sizes")
    if not all(isinstance(r, numbers.Integral) and not isinstance(r, bool)
               for r in (base_r, *unit_sizes)):
        raise EvaluationError("unit sizes must be integers")
    if base_r < 1 or min(unit_sizes) < 1:
        raise EvaluationError("unit size must be >= 1")
    for r in unit_sizes:
        if r % base_r:
            raise EvaluationError(f"unit size {r} is not a multiple of base {base_r}")
    if not repeats and len(set(unit_sizes)) < len(unit_sizes):
        raise EvaluationError(f"unit sizes repeat a size: {list(unit_sizes)!r}")


def _is_normal(sample, alpha):
    if len(set(sample)) == 1:
        return False  # constant: Shapiro undefined; treat as non-normal
    try:
        _, p = shapiro_wilk(sample)
    except StatTestError:
        return False
    return p >= alpha


class _Sample(NamedTuple):  # what the verdicts use of one (unit size, method)'s estimates
    n_failed: int
    points: list = None  # the non-failed points; None when too few to compare
    mean: float = math.nan
    ci_low: float = math.nan  # the mean CI bounds
    ci_high: float = math.nan
    normal: bool = False


def _sample(ests, alpha) -> _Sample:
    """The ``_Sample`` of one (unit size, method)'s estimates: too few points
    to compare when more than half failed or fewer than 2 did not."""
    ok = [e for e in ests if e.status != "failed"]
    n_failed = len(ests) - len(ok)
    if n_failed > len(ests) / 2 or len(ok) < 2:
        return _Sample(n_failed)
    points = [e.point for e in ok]
    return _Sample(n_failed, points, float(np.mean(points)),
                   float(np.mean([e.ci_low for e in ok])),
                   float(np.mean([e.ci_high for e in ok])), _is_normal(points, alpha))


def _verdict(method, r_a, r_b, a: _Sample, b: _Sample, alpha) -> SensitivityVerdict:
    """Welch's t-test where both samples look normal, else Mann-Whitney, and
    the cross-containment of each mean in the other's mean CI."""
    if a.points is None or b.points is None:
        return SensitivityVerdict(method, r_a, r_b, inconclusive=True,
                                  n_failed_a=a.n_failed, n_failed_b=b.n_failed)
    if a.normal and b.normal:
        test_used, p = "welch", welch_t_test(a.points, b.points)[2]
    else:
        test_used, p = "mann-whitney", mann_whitney_u(a.points, b.points)[1]
    cross = b.ci_low <= a.mean <= b.ci_high and a.ci_low <= b.mean <= a.ci_high
    return SensitivityVerdict(
        method, r_a, r_b, a.mean, b.mean, a.ci_low, a.ci_high, b.ci_low, b.ci_high,
        test_used, float(p), cross,
        interval_intersect=max(a.ci_low, b.ci_low) <= min(a.ci_high, b.ci_high),
        reliable=(p >= alpha) and cross, n_failed_a=a.n_failed, n_failed_b=b.n_failed)


def sensitivity_analysis(
    trials,
    unit_sizes,
    methods,
    alpha: float = 0.05,
    level: float = 0.90,
    base_r: int = 1,
    seed: int = 0,
    batch=estimate_many,
    **est_kw,
):
    """RQ2: estimator stability under sampling-unit rebinning.

    ``trials`` is a list of one IncidenceMatrix per trial (equal-length
    campaigns); each requested unit size r must be a multiple of ``base_r``
    and is realized by rebinning the same base logs; a size may repeat.
    Trial i's estimates draw their resamples from ``seed + i`` at every
    size.  Returns one SensitivityVerdict per (method, unit-size pair).
    ``batch`` makes the estimates: ``estimate_many``, or a function with its
    arguments and results, which gets ``est_kw``.
    """
    check_unit_sizes(unit_sizes, base_r, repeats=True)
    check_alpha(alpha)
    jobs = []
    for r in unit_sizes:
        m = r // base_r
        binned = [rebin(mat, m) if m > 1 else mat for mat in trials]
        jobs += [(mat, method, seed + i) for method in methods for i, mat in enumerate(binned)]
    # One estimate batch for every (size, method, trial), in that order.
    ests = iter(batch(jobs, level, **est_kw))
    samples = {(r, method): _sample([next(ests) for _ in trials], alpha)
               for r in unit_sizes for method in methods}
    return [_verdict(method, ra, rb, samples[ra, method], samples[rb, method], alpha)
            for method in methods for ra, rb in combinations(unit_sizes, 2)]
