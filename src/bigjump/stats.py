"""Estimation and hypothesis machinery for simulation output.

Empirical survival curves carry exact (Clopper–Pearson) binomial confidence
intervals rather than normal approximations: tail exceedance counts are tiny
by design, and exactness at small counts is what makes the diagnostics
trustworthy.  Consecutive states of a Markov chain are not independent, so a
chain's intervals are taken at its effective sample size.  Cross-method
agreement is checked with a two-sample Kolmogorov–Smirnov test (no binning
decisions), and each exceedance of a cluster sample is attributed to its
largest component and counted by component.  The intervals' beta quantiles
are solved here in plain floats, so building one imports nothing from scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .sampler import ClusterBatch

__all__ = [
    "TailCurve",
    "AttributionSummary",
    "clopper_pearson",
    "empirical_survival",
    "ks_two_sample",
    "attribution_summary",
]


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# The quantile returns the Halley step taken where the tail is within
# _QUANTILE_CLOSE of t, relative: the step leaves an error of the order of
# that gap cubed, below rounding.  It also stops once a Halley step, or the
# bracket, is below _QUANTILE_RTOL of the smaller of x and 1 - x (or two ulps
# of x); for a, b >= 0.05 the rounding of I_x moves the root by less than
# that, so no step chases it.
_QUANTILE_CLOSE = 2.0**-20
_QUANTILE_RTOL = 1e-13
_QUANTILE_STEPS = 100
_FRACTION_TERMS = 100_000


def _stirling_error(n: float) -> float:
    """log Γ(n + 1) − log(√(2πn) (n/e)^n) for real n > 0: from ``lgamma`` up
    to 15, and above it from five terms of the Stirling series, whose first
    omitted term is below 3e-16 there (C. Loader, "Fast and accurate
    computation of binomial probabilities", 2000)."""
    if n <= 15.0:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _HALF_LOG_2PI
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float, dev: float) -> float:
    """Loader's deviance term x log(x/m) + m − x, given dev = x − m computed
    apart from m so that it keeps the digits m loses.  Near m = x, where the
    direct form cancels, it is summed as a series in dev / (x + m)."""
    if abs(dev) < 0.1 * (x + m):
        v = dev / (x + m)
        total = dev * v
        term = 2.0 * x * v
        v *= v
        j = 1
        while True:
            term *= v
            j += 2
            nxt = total + term / j
            if nxt == total:
                return total
            total = nxt
    return x * math.log(x / m) + m - x


def _beta_tail(a: float, b: float, x: float, y: float, lam: float) -> tuple[float, float]:
    """I_x(a, b) and x^a y^b / B(a, b), for y = 1 − x and x at or below the
    mean, lam = a − (a + b)x ≥ 0.

    The power term is Loader's saddle-point form, and the ratio is the
    continued fraction of DLMF 8.17.22 in its even contraction from
    DiDonato & Morris (ACM TOMS 18, 1992, Algorithm 708, BFRAC), summed by
    modified Lentz.  Each takes x's distance from the mean through lam
    alone, never as a difference of nearby floats.
    """
    n = a + b
    power = math.exp(
        _stirling_error(n) - _stirling_error(a) - _stirling_error(b)
        - _bd0(a, n * x, lam) - _bd0(b, n * y, -lam)
    ) * math.sqrt(a * b / (2.0 * math.pi * n))
    c = 1.0 + lam
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = y + 1.0
    frac = c / c1
    lentz_c, lentz_d = frac, 0.0
    p = 1.0
    s = a + 1.0
    for i in range(1, _FRACTION_TERMS):
        t = i / a
        w = i * (b - i) * x
        e = a / s
        alpha = p * (p + c0) * e * e * w * x
        beta = i + w / s + (1.0 + t) / (c1 + t + t) * (c + i * yp1)
        p = 1.0 + t
        s += 2.0
        # Modified Lentz: a zero denominator is replaced by a tiny one.
        lentz_d = 1.0 / (beta + alpha * lentz_d or 1e-300)
        lentz_c = beta + alpha / lentz_c or 1e-300
        delta = lentz_c * lentz_d
        frac *= delta
        if abs(delta - 1.0) <= 1e-15:
            return power / frac, power
    raise ArithmeticError(f"incomplete beta fraction did not converge: a={a}, b={b}, x={x}")


def _incomplete_beta(a: float, b: float, x: float) -> tuple[float, float, float]:
    """I_x(a, b), 1 − I_x(a, b) and the beta(a, b) density at 0 < x < 1.

    The tail on x's side of the mean is summed and the other taken as its
    complement, so a quantile's far tail keeps its relative accuracy.
    """
    y = 1.0 - x
    n = a + b
    # From whichever of x and y is exact: 1 - x rounds below x = 1/2.
    lam = a - n * x if x <= y else n * y - b
    if lam >= 0.0:
        lower, power = _beta_tail(a, b, x, y, lam)
        upper = 1.0 - lower
    else:
        upper, power = _beta_tail(b, a, y, x, -lam)
        lower = 1.0 - upper
    return lower, upper, power / (x * y)


def _beta_start(a: float, b: float, t: float) -> tuple[float, float]:
    """A first guess (x, 1 − x) at the x with I_x(a, b) = t ≤ 1/2, as in
    AS 109 (Cran, Martin & Thomas, Appl. Statist. 26, 1977): Abramowitz &
    Stegun 26.5.22 when a, b > 1, else the Wilson–Hilferty χ² form or the
    power law of whichever end the quantile lies near."""
    r = math.sqrt(-2.0 * math.log(t))
    z = r - (2.30753 + 0.27061 * r) / (1.0 + (0.99229 + 0.04481 * r) * r)
    if a > 1.0 and b > 1.0:
        r = (z * z - 3.0) / 6.0
        s = 1.0 / (a + a - 1.0)
        u = 1.0 / (b + b - 1.0)
        h = 2.0 / (s + u)
        w = z * math.sqrt(h + r) / h - (u - s) * (r + 5.0 / 6.0 - 2.0 / (3.0 * h))
        e = b * math.exp(w + w)
        return a / (a + e), e / (a + e)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    u = 1.0 / (9.0 * b)
    chi2 = 2.0 * b * (1.0 - u + z * math.sqrt(u)) ** 3
    if chi2 <= 0.0:
        # Near 1, where 1 - I_x(a, b) ~ (1 - x)^b / (b B(a, b)).
        g = (math.log1p(-t) + math.log(b) + log_beta) / b
        if g < 0.0:
            return -math.expm1(g), math.exp(g)
    else:
        ratio = (4.0 * a + 2.0 * b - 2.0) / chi2
        if ratio > 1.0:
            return (ratio - 1.0) / (ratio + 1.0), 2.0 / (ratio + 1.0)
    # Near 0, where I_x(a, b) ~ x^a / (a B(a, b)).
    g = min((math.log(t * a) + log_beta) / a, -math.log(2.0))
    return math.exp(g), -math.expm1(g)


def _beta_quantile(a: float, b: float, p: float) -> float:
    """The x with I_x(a, b) = p, for real a, b > 0 and 0 < p < 1: the beta
    quantile that scipy's ``beta.ppf`` computes.

    It is solved on the smaller of the two tails, t = min(p, 1 − p), so an
    upper quantile keeps the digits that 1 − p would lose.  a = 1 and b = 1
    have closed forms.  Otherwise, from ``_beta_start``, each step keeps a
    bracket [lo, hi] on the root: a Halley step on the tail, or, while the
    tail is more than a factor e off t, a Newton step on its logarithm, which
    crosses near-exponential tails in one step; a step that leaves the
    bracket bisects it instead.
    """
    upper = p > 0.5
    t = 1.0 - p if upper else p
    if a == 1.0:
        return -math.expm1((math.log(t) if upper else math.log1p(-t)) / b)
    if b == 1.0:
        return math.exp((math.log1p(-t) if upper else math.log(t)) / a)
    # An upper quantile is the complement of Beta(b, a)'s lower one.
    x = _beta_start(b, a, t)[1] if upper else _beta_start(a, b, t)[0]
    if x < sys.float_info.min:
        # Below the normal floats only the power law near 0 lands, and it is
        # exact to O(x) there.
        return x
    x = min(x, 1.0 - 2.0**-53)
    lo, hi = 0.0, 1.0
    for _ in range(_QUANTILE_STEPS):
        lower, upper_tail, density = _incomplete_beta(a, b, x)
        tail = upper_tail if upper else lower
        if tail == t:
            return x
        if (tail < t) == upper:
            hi = x
        else:
            lo = x
        tol = max(_QUANTILE_RTOL * min(x, 1.0 - x), 2.0**-52 * x)
        if hi - lo <= tol:
            return x
        slope = -density if upper else density
        if tail == 0.0 or density == 0.0:
            step = math.inf  # underflowed far out in a tail: bisect
        elif tail > math.e * t or t > math.e * tail:
            step = math.log(t / tail) * tail / slope
        else:
            u = (tail - t) / slope
            step = -u / (1.0 - 0.5 * u * ((a - 1.0) / x - (b - 1.0) / (1.0 - x)))
            if abs(step) <= tol or abs(tail - t) <= _QUANTILE_CLOSE * t:
                return min(max(x + step, lo), hi)
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
    raise ArithmeticError(f"beta quantile did not converge: a={a}, b={b}, p={p}")


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
    # Beta quantiles by `_beta_quantile`: a continued fraction for I_x with a
    # saddle-point prefactor, inverted by bracketed Halley steps.  Over
    # tests/test_stats.py's grid of counts, real counts and levels they lie
    # within 1e-14 of scipy's beta.ppf after one Newton step on scipy's own
    # incomplete beta (beta.ppf alone is off by up to 1e-11 at n = 10^6),
    # and none takes more than 8 evaluations of I_x.  Python floats, since
    # numpy scalars would slow every step of the solve.
    k, n = float(k), float(n)
    alpha = 1.0 - level
    lo = 0.0 if k == 0 else _beta_quantile(k, n - k + 1.0, alpha / 2.0)
    hi = 1.0 if k == n else _beta_quantile(k + 1.0, n - k, 1.0 - alpha / 2.0)
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


def attribution_summary(clusters: ClusterBatch, x: int) -> AttributionSummary:
    """Name the component that carried each cluster sample past ``x`` and
    count the winners.

    Only samples with ``value > x`` count.  The winning component is the
    largest of ``(immigration, gen_contrib[0], .., gen_contrib[depth - 1])``,
    ties going to the lowest index (immigration first); it is dominant iff
    it alone exceeds ``x / 2``.
    """
    exceeds = clusters.value > x
    components = np.column_stack(
        (clusters.immigration[exceeds], clusters.gen_contrib[exceeds])
    )
    total = len(components)
    if not total:
        raise ValueError(f"no samples exceed x={x}")
    # 2 * largest > x, without doubling values near 2**62 past int64.
    dominant = np.count_nonzero(components.max(axis=1) > x // 2)
    return AttributionSummary(
        counts=np.bincount(components.argmax(axis=1)),
        total=total,
        dominant_share=int(dominant) / total,
    )
