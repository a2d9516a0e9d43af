"""Estimation and hypothesis machinery for simulation output.

Empirical survival curves carry exact (Clopper–Pearson) binomial confidence
intervals rather than normal approximations: tail exceedance counts are tiny
by design, and exactness at small counts is what makes the diagnostics
trustworthy.  Consecutive states of a Markov chain are not independent, so a
chain's intervals are taken at its effective sample size.  Cross-method
agreement is checked with a two-sample Kolmogorov–Smirnov test (no binning
decisions), and exceedance attributions are counted by component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "TailCurve",
    "AttributionSummary",
    "clopper_pearson",
    "empirical_survival",
    "ks_two_sample",
    "attribution_summary",
]


def clopper_pearson(k: float, n: float, level: float) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval for k successes in n trials.

    Returns (lo, hi) such that the interval covers the true success
    probability with probability at least ``level``.  The endpoints are the
    usual beta quantiles, with the k=0 and k=n edges closed in the standard
    one-sided way (lo=0 and hi=1 respectively).  ``k`` and ``n`` may be
    effective counts, which are real: the beta quantiles take real
    parameters.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level out of range (0, 1): {level}")
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"success count out of range [0, {n}]: {k}")
    # Imported here: scipy.special costs about 0.3 s and 50 MB, and most
    # commands never build an interval.  `betaincinv` wraps Boost's
    # ``ibeta_inv``, the routine behind scipy.stats' `beta.ppf`, without the
    # 1 s and 100 MB of importing scipy.stats.
    from scipy.special import betaincinv

    alpha = 1.0 - level
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2.0))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
    return lo, hi


@dataclass(frozen=True, eq=False)
class TailCurve:
    """Empirical survival estimates on a threshold grid with exact intervals.

    ``count_exceed[i]`` counts samples strictly above ``xs[i]``; the point
    estimate is ``count_exceed / n_total``.  Intervals are exact
    Clopper–Pearson at confidence ``level`` on ``count_exceed / tau``
    successes in ``n_total / tau`` trials, where ``tau[i]`` is the
    autocorrelation time of the exceedance indicator (1 for independent
    samples).
    """

    xs: np.ndarray
    count_exceed: np.ndarray
    n_total: int
    level: float
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    tau: np.ndarray

    def __post_init__(self) -> None:
        if self.n_total < 1:
            raise ValueError("empty sample set")
        if np.any(np.diff(self.count_exceed) > 0):
            raise ValueError("exceedance counts must be non-increasing in x")
        est = self.estimate
        if np.any(self.ci_lo > est) or np.any(est > self.ci_hi):
            raise ValueError("confidence interval must bracket the estimate")

    @property
    def estimate(self) -> np.ndarray:
        return self.count_exceed / self.n_total


def _autocorrelation_time(series: np.ndarray) -> float:
    """Integrated autocorrelation time of one run of a stationary series:
    the batch length L = floor(sqrt(n)) times the variance of the means of
    the n // L nonoverlapping batches, over the variance of the series
    (batch means; Flegal & Jones, Ann. Statist. 38, 2010).  Floored at 1, so
    an interval is never narrower than for independent draws; 1 when fewer
    than two batches or a constant series leave nothing to estimate."""
    length = math.isqrt(series.size)
    batches = series.size // length
    spread = float(np.var(series))
    if batches < 2 or spread == 0.0:
        return 1.0
    means = series[: batches * length].reshape(batches, length).mean(axis=1)
    return max(1.0, length * float(np.var(means, ddof=1)) / spread)


def empirical_survival(
    samples: Sequence[float] | np.ndarray,
    xs: Sequence[float] | np.ndarray,
    level: float = 0.99,
    chain: bool = False,
) -> TailCurve:
    """Estimate P(sample > x) on a sorted grid in one pass over sorted data.

    With ``chain``, ``samples`` are one Markov chain run in step order, and
    each interval is taken at the effective sample size n / tau, with tau
    the autocorrelation time of that x's exceedance indicator.
    """
    ordered = np.asarray(samples, dtype=float)
    values = np.sort(ordered)
    n = values.size
    if n < 1:
        raise ValueError("empty sample set")
    grid = np.asarray(xs, dtype=float)
    if grid.size < 1:
        raise ValueError("empty threshold grid")
    if np.any(np.diff(grid) < 0):
        raise ValueError("threshold grid must be sorted ascending")
    counts = n - np.searchsorted(values, grid, side="right")
    tau = np.ones(grid.size)
    if chain:
        tau = np.array([_autocorrelation_time(1.0 * (ordered > x)) for x in grid])
    bounds = [
        clopper_pearson(k / t, n / t, level) for k, t in zip(counts.tolist(), tau)
    ]
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    for arr in (grid, counts, lo, hi, tau):
        arr.setflags(write=False)
    return TailCurve(
        xs=grid, count_exceed=counts, n_total=n, level=level,
        ci_lo=lo, ci_hi=hi, tau=tau,
    )


def ks_two_sample(
    a_samples: Sequence[float] | np.ndarray,
    b_samples: Sequence[float] | np.ndarray,
    alpha: float = 0.01,
) -> tuple[float, float, bool]:
    """Two-sample Kolmogorov–Smirnov test at asymptotic level ``alpha``.

    Returns (statistic, critical, reject) where the statistic is the sup
    distance between the two empirical CDFs and the critical value is
    c(alpha) * sqrt((m+n)/(m*n)) with c(alpha) = sqrt(-ln(alpha/2)/2).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha out of range (0, 1): {alpha}")
    a = np.sort(np.asarray(a_samples, dtype=float))
    b = np.sort(np.asarray(b_samples, dtype=float))
    m, n = a.size, b.size
    if m < 1 or n < 1:
        raise ValueError("both sample sets must be nonempty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / m
    cdf_b = np.searchsorted(b, pooled, side="right") / n
    statistic = float(np.max(np.abs(cdf_a - cdf_b)))
    c_alpha = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    critical = c_alpha * math.sqrt((m + n) / (m * n))
    return statistic, critical, statistic > critical


@dataclass(frozen=True, eq=False)
class AttributionSummary:
    """Exceedance counts by component (``counts[0]`` immigration,
    ``counts[n]`` generation ``n``), their total and the single-component
    dominance rate."""

    counts: np.ndarray
    total: int
    dominant_share: float


def attribution_summary(
    component: np.ndarray, dominant: np.ndarray
) -> AttributionSummary:
    """Count the winning components of an `Attribution` (its ``component``
    and ``dominant`` columns)."""
    if not len(component):
        raise ValueError("no attributions to summarize")
    return AttributionSummary(
        counts=np.bincount(component),
        total=len(component),
        dominant_share=int(np.count_nonzero(dominant)) / len(component),
    )
