"""Closed-form tail predictors for the stationary branching fixed point.

Every limit statement about the stationary law ``X`` of

    X =d A + B_1 + ... + B_X

gets a concrete finite-x evaluator here: the leading tail
``1/((1-b)(1+x))``, its two-scale refinement carrying the slowly varying
second term, per-generation single-big-jump predictions, and the
summability sums that control the error terms.  Everything is a pure
function of calibrated :class:`~bigjump.model.ModelParams`; no sampling
and no pmf arithmetic happens in this module.
"""

from __future__ import annotations

import math

import numpy as np

from bigjump.model import (
    ModelParams,
    law_B,
    slowly_varying_part,
    survival_A,
    truncated_mean_A,
)

__all__ = [
    "leading_tail",
    "series_identities",
    "series_partial_sums",
    "second_scale",
    "two_scale_total",
    "generation_tail_pred",
    "per_generation_pred",
    "a_tail_sums",
    "correction_sum",
    "decomposition_pred",
    "second_scale_positivity_threshold",
    "prediction_table",
]

# Largest ``b`` the summability sums accept.  They need about ``37/(1-b)``
# generations (7,400 here), one Python loop step of about 10 us each:
# `correction_sum` at ``x = 1e3, 1e4, 1e5, 1e6`` takes 0.24 s in all at this
# ``b``, 0.98 s at 0.999 and 10 s at 0.9999, and `a_tail_sums` about the same
# (2-vCPU x86 box).
_TAIL_SUMS_B_MAX = 0.995

# Past ``exp(690)``, about 1e300, `_immigration_split` carries the
# immigration scale ``x*b^-n`` by its log, which stays finite.
_LOG_SCALE_MAX = 690.0


# ---------------------------------------------------------------------------
# Power-series identities
# ---------------------------------------------------------------------------


def series_partial_sums(b: float) -> tuple[float, float]:
    """Numeric partial sums of ``sum n b^(n-1)`` and ``sum n^2 b^(n-1)``.

    The count adapts until the next term drops below 1e-18, so the partial
    sums agree with the closed forms of `series_identities` to machine
    level; the ``series`` check of ``bigjump verify`` compares the two.
    """
    n_terms = 400
    while n_terms**2 * b ** (n_terms - 1) > 1e-18 and n_terms < (1 << 24):
        n_terms *= 2
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    weights = b ** (n - 1.0)
    return float(np.sum(n * weights)), float(np.sum(n * n * weights))


def series_identities(b: float) -> tuple[float, float]:
    """Closed forms ``s1 = 1/(1-b)^2`` and ``s2 = (1+b)/(1-b)^3``.

    These are ``sum_{n>=1} n b^(n-1)`` and ``sum_{n>=1} n^2 b^(n-1)``, the
    constants of the second-scale tail term.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"b out of range: {b!r} (need 0 < b < 1)")
    return 1.0 / (1.0 - b) ** 2, (1.0 + b) / (1.0 - b) ** 3


# ---------------------------------------------------------------------------
# Leading tail and its two-scale refinement
# ---------------------------------------------------------------------------


def leading_tail(params: ModelParams, x):
    """First-order stationary tail ``1/((1-b)(1+x))``.

    The immigration tail ``1/(1+x)`` amplified by the geometric cascade
    ``1 + b + b^2 + ... = 1/(1-b)``.  Valid asymptotically; at small ``x``
    it is a formula value, not a probability (it may exceed 1).
    """
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(x_arr < 0):
        raise ValueError("x must be >= 0")
    out = 1.0 / ((1.0 - params.b) * (1.0 + x_arr))
    return float(out) if out.ndim == 0 else out


def second_scale(params: ModelParams, x):
    """Second-order tail term ``[log(x)*s1 - log(1/b)*s2] * L(x)/(1+x)``.

    ``s1, s2`` are the power-series constants and ``L`` the slowly varying
    part of the offspring tail.  The coefficient is negative below
    ``x = exp(log(1/b)*s2/s1)`` (about 8.0 at b = 0.5); the asymptotic
    regime, and every consumer in this package, lives above it.

    Raises:
        ValueError: for ``x <= 1`` (the log scale is meaningless there).
    """
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(x_arr <= 1.0):
        raise ValueError("x must be > 1")
    b = params.b
    s1, s2 = series_identities(b)
    coeff = np.log(x_arr) * s1 - math.log(1.0 / b) * s2
    out = coeff * slowly_varying_part(params, x_arr) / (1.0 + x_arr)
    return float(out) if out.ndim == 0 else out


def two_scale_total(params: ModelParams, x):
    """Leading tail plus the second-scale refinement."""
    return leading_tail(params, x) + second_scale(params, x)


def second_scale_positivity_threshold(params: ModelParams) -> float:
    """Smallest ``x`` at which the second-scale coefficient is nonnegative:
    ``exp(log(1/b) * s2/s1)``, to within rounding."""
    s1, s2 = series_identities(params.b)
    return math.exp(math.log(1.0 / params.b) * s2 / s1)


# ---------------------------------------------------------------------------
# Per-generation predictions
# ---------------------------------------------------------------------------


def generation_tail_pred(params: ModelParams, n: int, x) -> float:
    """Generation-``n`` aggregate tail prediction ``n * b^(n-1) * P(B > x)``.

    A generation-``n`` subtree exceeds a high level when exactly one of its
    roughly ``n`` ancestral individuals takes one big offspring jump, each
    with mean multiplicity ``b^(n-1)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * params.b ** (n - 1) * law_B(params).survival(x)


def _immigration_split(x: float, n: int, b: float) -> tuple:
    """``E[A; A <= t]`` and ``P(A > t)`` at the immigration scale ``t =
    x*b^-n``, each in O(1) (6-10 us a call).  Past ``exp(_LOG_SCALE_MAX)``
    they are ``log t + gamma - 1`` and ``1/t``, to within ``1/t``; below,
    ``t`` comes from its log if ``b^-n`` overflows."""
    log_scale = math.log(x) - n * math.log(b) if x > 0 else -math.inf
    if log_scale > _LOG_SCALE_MAX:
        return log_scale + np.euler_gamma - 1.0, math.exp(-log_scale)
    try:
        scale = x * b**-n
    except OverflowError:
        scale = math.exp(log_scale)
    return truncated_mean_A(scale), survival_A(scale)


def per_generation_pred(params: ModelParams, n: int, x: float) -> float:
    """Tail prediction for one cluster term (an A-sized batch of D_n copies):

        E[A; A <= x*b^-n] * n * b^(n-1) * P(B > x)  +  P(A > x*b^-n).

    Either one subtree jumps while the immigration batch stays moderate, or
    the batch itself is huge.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    mean, tail = _immigration_split(float(x), n, params.b)
    return mean * n * params.b ** (n - 1) * law_B(params).survival(x) + tail


# ---------------------------------------------------------------------------
# Summability sums
# ---------------------------------------------------------------------------


def _check_tail_sums_b(b: float) -> None:
    if b > _TAIL_SUMS_B_MAX:
        raise ValueError(
            f"b = {b} is above {_TAIL_SUMS_B_MAX}, the largest b the tail sums "
            f"take: they would need about {37.0 / (1.0 - b):.0f} generations"
        )


def a_tail_sums(b: float, x: float) -> tuple[float, float]:
    """Exact and asymptotic values of ``sum_{n>=1} P(A > x*b^-n)``.

    exact:     ``sum_n 1/(1 + floor(x*b^-n))``, summed until the geometric
               remainder is below 1e-16 of the sum;
    asymptote: ``b/((1-b)*x)``.

    Only the mean offspring count ``b`` enters, as in `series_identities`.
    The exact sum keeps the integer floors, which is why desk-scale ratios
    sit a couple of percent away from 1.  ``b`` above `_TAIL_SUMS_B_MAX` is
    refused.
    """
    if x <= 0:
        raise ValueError("x must be > 0")
    if not 0.0 < b < 1.0:
        raise ValueError(f"b out of range: {b!r} (need 0 < b < 1)")
    _check_tail_sums_b(b)
    asymptote = b / ((1.0 - b) * x)
    total = 0.0
    n = 1
    while True:
        total += _immigration_split(x, n, b)[1]
        # remaining terms are below sum_{m>n} b^m / x = b^(n+1)/((1-b) x)
        if b ** (n + 1) / ((1.0 - b) * x) < 1e-16 * max(total, 1e-300):
            break
        n += 1
    return total, asymptote


def correction_sum(params: ModelParams, x: float) -> float:
    """``sum_n E[A; A <= x*b^-n] * n * b^(n-1) * P(B > x)``, to convergence.

    The genuinely second-order part of the tail decomposition; multiplied
    by ``x`` it decays to zero like ``(log x)^(-epsilon)`` (boundary slow
    variation), and it decreases monotonically in ``x`` past a small start.
    ``b`` above `_TAIL_SUMS_B_MAX` is refused.
    """
    if x <= 1:
        raise ValueError("x must be > 1")
    b = params.b
    _check_tail_sums_b(b)
    weight_sum = 0.0
    n = 1
    while True:
        term = _immigration_split(float(x), n, b)[0] * n * b ** (n - 1)
        weight_sum += term
        if term < 1e-16 * weight_sum:
            break
        n += 1
    return weight_sum * law_B(params).survival(x)


def decomposition_pred(params: ModelParams, x: float, n_max: int) -> float:
    """Tail decomposition ``P(A > x) + sum_{n <= n_max} per_generation_pred(n, x)``."""
    if x < 0:
        raise ValueError("x must be >= 0")
    total = survival_A(x)
    for n in range(1, n_max + 1):
        total += per_generation_pred(params, n, x)
    return total


# ---------------------------------------------------------------------------
# Prediction table
# ---------------------------------------------------------------------------


def prediction_table(params: ModelParams, xs, n_max: int) -> dict:
    """Every closed-form predictor on a threshold grid, as named columns.

    The keys are ``leading``, ``second_scale``, ``two_scale_total``,
    ``decomposition``, ``a_tail_exact`` and ``a_tail_asym``, in
    ``predict.csv``'s order; each value holds one entry per grid point.
    ``two_scale_total = leading + second_scale`` by construction, and
    ``decomposition`` is `decomposition_pred` over generations ``1..n_max``.
    Every entry is nonnegative.

    Raises:
        ValueError: if the second-scale column reads negative at a grid
            point (one at or below the positivity threshold, the last
            bits of the threshold included), or ``b`` is above the tail
            sums' limit.
    """
    xs_arr = np.asarray(xs, dtype=np.float64)
    if xs_arr.ndim != 1 or len(xs_arr) == 0:
        raise ValueError("xs must be a nonempty 1-d grid")
    if np.any(np.diff(xs_arr) <= 0):
        raise ValueError("xs must be strictly increasing")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # x <= 1 lies below the threshold too, where second_scale is undefined.
    refused = xs_arr <= 1.0
    if not refused.any():
        second = second_scale(params, xs_arr)
        refused = second < 0
    if refused.any():
        raise ValueError(
            f"grid point x={xs_arr[refused][0]:g} lies at or below the "
            "second-scale positivity threshold "
            f"{second_scale_positivity_threshold(params):g} of b = {params.b}"
        )

    grid = xs_arr.tolist()
    lead = leading_tail(params, xs_arr)
    a_exact, a_asym = np.array([a_tail_sums(params.b, x) for x in grid]).T
    return {
        "leading": lead,
        "second_scale": second,
        "two_scale_total": lead + second,
        "decomposition": np.array([decomposition_pred(params, x, n_max) for x in grid]),
        "a_tail_exact": a_exact,
        "a_tail_asym": a_asym,
    }
