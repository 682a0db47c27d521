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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimators import EstimateWithCI, estimate
from .incidence import IncidenceMatrix, rebin
from .stattests import StatTestError, mann_whitney_u, shapiro_wilk, welch_t_test


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class TrialResult:
    trial: int
    method: str
    t: int
    estimate: EstimateWithCI
    true_s: float = None


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
    w = rng.random((model.s, model.t)) < pi
    seen = w.any(axis=1)
    return IncidenceMatrix(t=model.t, element_ids=tuple(np.flatnonzero(seen).tolist()),
                           w=w[seen].view(np.uint8))


def mean_bias(results, true_s: float) -> float:
    """Average relative bias (sum of (estimate - S) / (K * S)) over trials."""
    if not results:
        raise EvaluationError("mean_bias of an empty result list")
    if true_s <= 0:
        raise EvaluationError("true richness must be positive")
    k = len(results)
    return sum((r.estimate.point - true_s) / (k * true_s) for r in results)


def imprecision(results, true_s: float) -> float:
    """Sample variance (n-1 denominator) of the per-trial relative biases."""
    if len(results) < 2:
        raise EvaluationError("imprecision needs at least 2 trials")
    biases = [(r.estimate.point - true_s) / true_s for r in results]
    return float(np.var(biases, ddof=1))


def ci_coverage(results, true_s: float):
    """Fraction of non-failed trials whose CI contains S, plus the failed count."""
    ok = [r for r in results if r.estimate.status != "failed"]
    n_failed = len(results) - len(ok)
    if not ok:
        return float("nan"), n_failed
    hits = sum(1 for r in ok if r.estimate.ci_low <= true_s <= r.estimate.ci_high)
    return hits / len(ok), n_failed


def _row_to_estimate(row) -> EstimateWithCI:
    return EstimateWithCI(
        method=row["method"],
        point=float(row["point"]),
        ci_low=float(row["ci_low"]),
        ci_high=float(row["ci_high"]),
        level=0.0,
        status=row["status"],
    )


def rq1_report(estimates_dir, true_s: int, program: int = None) -> list:
    """RQ1 metrics of the estimate CSVs in ``estimates_dir``, one per trial.

    Rows are grouped by (estimator, t), and each group gives one entry, in
    (estimator, t) order.  With ``program`` set, an entry also names the
    program and the true richness.
    """
    grouped = {}
    for path in sorted(Path(estimates_dir).glob("*.csv")):
        with path.open() as fh:
            for row in csv.DictReader(fh):
                grouped.setdefault((row["method"], int(row["t"])), []).append(row)
    report = []
    for (method, t), rows in sorted(grouped.items()):
        results = [TrialResult(i, method, t, _row_to_estimate(row), true_s)
                   for i, row in enumerate(rows)]
        ok = [r for r in results if r.estimate.status != "failed"]
        cov, n_failed = ci_coverage(results, true_s)
        entry = {"estimator": method, "t": t}
        if program is not None:
            entry = {"program": program, **entry, "true_s": true_s}
        report.append(dict(
            entry,
            mean_bias=mean_bias(ok, true_s) if ok else float("nan"),
            imprecision=imprecision(ok, true_s) if len(ok) >= 2 else float("nan"),
            ci_coverage=cov,
            n_failed=n_failed,
            k=len(results),
        ))
    return report


@dataclass(frozen=True)
class SensitivityVerdict:
    method: str
    r_a: int
    r_b: int
    mean_a: float
    mean_b: float
    mean_ci_a: tuple
    mean_ci_b: tuple
    test_used: str  # 'welch' | 'mann-whitney'
    p_value: float
    ci_overlap: bool
    interval_intersect: bool
    reliable: bool
    inconclusive: bool = False
    n_failed_a: int = 0
    n_failed_b: int = 0


def _is_normal(sample, alpha):
    if len(set(sample)) == 1:
        return False  # constant: Shapiro undefined; treat as non-normal
    try:
        _, p = shapiro_wilk(sample)
    except StatTestError:
        return False
    return p >= alpha


def _estimates_for_binning(matrices, m, method, level, seed, **est_kw):
    out = []
    for i, mat in enumerate(matrices):
        binned = rebin(mat, m) if m > 1 else mat
        out.append(estimate(binned, method, level, seed=seed + i, **est_kw))
    return out


def sensitivity_analysis(
    trials,
    unit_sizes,
    methods,
    alpha: float = 0.05,
    level: float = 0.90,
    base_r: int = 1,
    seed: int = 0,
    **est_kw,
):
    """RQ2: estimator stability under sampling-unit rebinning.

    ``trials`` is a list of one IncidenceMatrix per trial (equal-length
    campaigns); each requested unit size r must be a multiple of ``base_r``
    and is realized by rebinning the same base logs.  Returns one
    SensitivityVerdict per (method, unit-size pair).
    """
    if len(unit_sizes) < 2:
        raise EvaluationError("need at least two unit sizes")
    for r in unit_sizes:
        if r % base_r:
            raise EvaluationError(f"unit size {r} is not a multiple of base {base_r}")
    per_size = {}
    for r in unit_sizes:
        per_size[r] = {
            method: _estimates_for_binning(trials, r // base_r, method, level, seed, **est_kw)
            for method in methods
        }

    verdicts = []
    for method in methods:
        for ia in range(len(unit_sizes)):
            for ib in range(ia + 1, len(unit_sizes)):
                ra, rb = unit_sizes[ia], unit_sizes[ib]
                ests_a = per_size[ra][method]
                ests_b = per_size[rb][method]
                ok_a = [e for e in ests_a if e.status != "failed"]
                ok_b = [e for e in ests_b if e.status != "failed"]
                nf_a = len(ests_a) - len(ok_a)
                nf_b = len(ests_b) - len(ok_b)
                if nf_a > len(ests_a) / 2 or nf_b > len(ests_b) / 2 or len(ok_a) < 2 or len(ok_b) < 2:
                    verdicts.append(
                        SensitivityVerdict(
                            method, ra, rb, float("nan"), float("nan"),
                            (float("nan"),) * 2, (float("nan"),) * 2,
                            "none", float("nan"), False, False, False,
                            inconclusive=True, n_failed_a=nf_a, n_failed_b=nf_b,
                        )
                    )
                    continue
                sample_a = [e.point for e in ok_a]
                sample_b = [e.point for e in ok_b]
                mean_a = float(np.mean(sample_a))
                mean_b = float(np.mean(sample_b))
                ci_a = (
                    float(np.mean([e.ci_low for e in ok_a])),
                    float(np.mean([e.ci_high for e in ok_a])),
                )
                ci_b = (
                    float(np.mean([e.ci_low for e in ok_b])),
                    float(np.mean([e.ci_high for e in ok_b])),
                )
                if _is_normal(sample_a, alpha) and _is_normal(sample_b, alpha):
                    _, _, p = welch_t_test(sample_a, sample_b)
                    test_used = "welch"
                else:
                    _, p = mann_whitney_u(sample_a, sample_b)
                    test_used = "mann-whitney"
                cross = ci_b[0] <= mean_a <= ci_b[1] and ci_a[0] <= mean_b <= ci_a[1]
                intersect = max(ci_a[0], ci_b[0]) <= min(ci_a[1], ci_b[1])
                verdicts.append(
                    SensitivityVerdict(
                        method, ra, rb, mean_a, mean_b, ci_a, ci_b,
                        test_used, float(p), cross, intersect,
                        reliable=(p >= alpha) and cross,
                        n_failed_a=nf_a, n_failed_b=nf_b,
                    )
                )
    return verdicts
