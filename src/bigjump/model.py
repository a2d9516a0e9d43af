"""Calibrated integer-valued laws for a subcritical branching fixed point.

The object of study is the distributional recursion

    X' = A + B_1 + ... + B_X,

where ``A`` is an immigration count and the ``B_i`` are independent offspring
counts.  This module pins both laws down as concrete integer distributions
sitting at the boundary tail index 1:

* immigration: ``P(A > k) = 1/(1+k)`` exactly, so ``A >= 1`` almost surely
  and ``E[A]`` is infinite;
* offspring: ``P(B > k) = theta * phi(k)`` with
  ``phi(k) = 1/((1+k) * log(e+k)**(1+epsilon))``.  The slowly varying
  logarithmic factor keeps the mean finite, and ``theta`` is calibrated so
  that ``E[B] = sum_k P(B > k)`` equals ``b`` exactly.

Everything downstream (samplers, the exact truncated-pmf oracle, the
closed-form tail predictors) consumes the laws through the functions and
tables defined here.  Series tails are always closed with certified
integral brackets rather than bare iteration caps.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._native import one_blas_thread

__all__ = [
    "EPSILON_MAX",
    "ModelParams",
    "LawA",
    "LawB",
    "calibrate",
    "survival_A",
    "pmf_A",
    "truncated_mean_A",
    "law_B",
    "extinction_table",
    "phi",
    "phi_deriv",
    "phi_tail_bounds",
    "slowly_varying_part",
    "offspring_mean_bracket",
    "depth_remainder_bound",
]

_E = math.e

#: Largest accepted ``epsilon``: ``phi`` stays finite and positive on ``[0,
#: 2**62]`` (the samplers' value cap) while ``(1+eps) log(log(e+2**62)) +
#: log(1+2**62) < log(DBL_MAX)``, that is for ``epsilon`` up to 176.31.
EPSILON_MAX = 176.0

# Terms summed exactly when calibrating the series constant; doubled until the
# certified tail bracket is narrower than the requested tolerance.
_CALIBRATION_CUTOFF = 1 << 17
_MAX_CALIBRATION_CUTOFF = 1 << 26

# Length of the offspring survival table every calibration carries.
_TAIL_TABLE_CUTOFF = 1 << 16

# Terms summed in the offspring mean bracket, with one rounding; its
# certified tail bracket is about 1e-13 wide there.
_MEAN_BRACKET_CUTOFF = 1 << 21

# Terms of phi that `_phi_partial_sum` holds at once (512 KiB per array).
_PARTIAL_SUM_CHUNK = 1 << 16

# Leading terms summed exactly inside the survival-weighted pgf series; the
# remainder is handled by an integral with endpoint corrections.
_PGF_HEAD_TERMS = 1 << 14

# Largest floor(t) + 1 for which the truncated mean of A is summed directly;
# beyond it the asymptotic harmonic expansion takes over.
_HARMONIC_SWITCH = 256

# Gauss-Legendre nodes on [-1, 1] of `_quadrature`'s coarse rule (16 per
# panel) and fine rule (32), side by side, and the weights of each.
_GAUSS_COARSE, _GAUSS_FINE = leggauss(16), leggauss(32)
_GAUSS_NODES = np.concatenate((_GAUSS_COARSE[0], _GAUSS_FINE[0]))
# Where `_survival_series_tail` puts panel edges in the weight's exponent
# lam*t: every 4 while the weight is above exp(-40), then one panel to 800.
_WEIGHT_FALLS = np.arange(4.0, 44.0, 4.0)
# Smallest lam = -log1p(-p) at which `_survival_series_tail` integrates:
# its nodes run to t = 800/lam, which must stay a finite float.
_LAMBDA_FLOOR = 1e-305
# Relative rounding floor of every quadrature error estimate.  Each
# integrand value and the panel sum round, so no integral is known closer
# than a few ulps of its size, however well the two rules agree.
_QUADRATURE_ROUNDING = 8.0 * np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# The tail shape phi and its certified tail sums
# ---------------------------------------------------------------------------


def phi(t, epsilon):
    """Tail shape ``1/((1+t) * log(e+t)**(1+epsilon))`` with ``phi(0) == 1``.

    Positive, strictly decreasing, and convex on ``t >= 0`` (each factor is
    log-convex).  Accepts scalars or arrays.  Where the denominator
    overflows (t past about 1e303 at epsilon = 1; only there does 1/x read
    0), phi is 1/(1+t) divided by the log power instead.

    An array is computed in one buffer by in-place ufuncs (1 + t is the
    only other temporary), with the bits of the plain expression: an
    array's ``** 2.0`` is numpy's ``square``, any other power its ``power``
    ufunc.  A scalar keeps the plain expression, whose ``**`` calls C
    ``pow``, a last bit away from the ufunc at some points.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    power = 1.0 + epsilon
    with np.errstate(over="ignore"):
        if t_arr.ndim == 0:
            out = 1.0 / ((1.0 + t_arr) * np.log(_E + t_arr) ** power)
        else:
            out = np.add(t_arr, _E)
            np.log(out, out=out)
            if power == 2.0:
                np.square(out, out=out)
            else:
                np.power(out, power, out=out)
            out *= 1.0 + t_arr
            np.reciprocal(out, out=out)
        if np.any(out == 0.0):
            split = (1.0 / (1.0 + t_arr)) / np.log(_E + t_arr) ** power
            out = np.where(out == 0.0, split, out)
    return float(out) if out.ndim == 0 else out


def phi_deriv(t, epsilon):
    """First derivative of :func:`phi`; negative for all ``t >= 0``."""
    t_arr = np.asarray(t, dtype=np.float64)
    log_term = np.log(_E + t_arr)
    out = -phi(t_arr, epsilon) * (
        1.0 / (1.0 + t_arr) + (1.0 + epsilon) / ((_E + t_arr) * log_term)
    )
    return float(out) if np.ndim(out) == 0 else out


def _quadrature(f, edges: np.ndarray) -> tuple[float, float]:
    """Integral of ``f`` over ``[edges[0], edges[-1]]`` and an error estimate.

    ``f`` maps an array of points to an array of values.  Each panel
    between consecutive ``edges`` is integrated by Gauss-Legendre rules of
    16 and of 32 nodes, from one call of ``f`` on all their nodes.  The
    finer value is returned; the estimate is the two rules' difference plus
    the rounding floor `_QUADRATURE_ROUNDING` times the value.  Meant for
    integrands analytic on a neighbourhood of every panel, where the coarse
    rule's error already bounds the fine one's.
    """
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    values = f(mid + half * _GAUSS_NODES)
    split = _GAUSS_COARSE[0].size
    coarse = math.fsum((values[:, :split] * _GAUSS_COARSE[1]).sum(axis=1) * half[:, 0])
    fine = math.fsum((values[:, split:] * _GAUSS_FINE[1]).sum(axis=1) * half[:, 0])
    return fine, abs(fine - coarse) + _QUADRATURE_ROUNDING * abs(fine)


def _phi_integral(a: float, epsilon: float) -> tuple[float, float]:
    """Integral of ``phi`` over ``[a, inf)`` plus the quadrature error bound.

    The substitution ``u = log(e+t)`` maps the slowly decaying integrand to
    ``u**(-1-eps) / (1 - c*exp(-u))`` on ``[u0, inf)``, with ``c = e-1`` and
    ``u0 = log(e+a)``.  Its leading part ``u**(-1-eps)`` integrates to
    ``u0**(-eps)/eps`` exactly.  The rest, ``u**(-1-eps) * g(u)`` with
    ``g = c*exp(-u) / (1 - c*exp(-u))``, decays like ``exp(-u)``: it is
    integrated over ``[u0, u1]``, ``u1 = u0 + 40``, and the part beyond,
    at most ``u1**(-1-eps) * (-log(1 - c*exp(-u1)))``, joins the error.
    The panels widen quadratically from 0.1 to 3.9: the first ones keep
    clear of the pole of ``g`` at ``log(c) = 0.54``, within 0.46 of
    ``u0 >= 1``, and the last ones still resolve ``exp(-u)``.
    """
    u0 = math.log(_E + a)
    edges = u0 + 40.0 * np.linspace(0.0, 1.0, 21) ** 2
    u1 = float(edges[-1])
    e_minus_1 = _E - 1.0

    def excess(u: np.ndarray) -> np.ndarray:
        damped = e_minus_1 * np.exp(-u)
        return u ** (-1.0 - epsilon) * damped / (1.0 - damped)

    rest, err = _quadrature(excess, edges)
    beyond = u1 ** (-1.0 - epsilon) * -math.log1p(-e_minus_1 * math.exp(-u1))
    value = u0 ** (-epsilon) / epsilon + rest
    return value, err + beyond + _QUADRATURE_ROUNDING * value


def phi_tail_bounds(cutoff: float, epsilon: float) -> tuple[float, float]:
    """Certified bracket for ``sum_{k > cutoff} phi(k, epsilon)`` (integer k).

    Convexity of ``phi`` sandwiches the tail between the trapezoid and
    midpoint comparisons with the integral:

        integral(cutoff+1) + phi(cutoff+1)/2  <=  tail  <=  integral(cutoff+1/2)

    Quadrature error estimates widen the bracket on both sides.  The width is
    about ``-phi'(cutoff)/8``, i.e. a few 1e-14 already at ``cutoff = 2**17``.
    """
    lo_int, lo_err = _phi_integral(cutoff + 1.0, epsilon)
    hi_int, hi_err = _phi_integral(cutoff + 0.5, epsilon)
    lo = lo_int + 0.5 * phi(cutoff + 1.0, epsilon) - lo_err
    hi = hi_int + hi_err
    if not lo <= hi:
        raise RuntimeError("inverted tail bracket: quadrature failure")
    return lo, hi


def _phi_partial_sum(cutoff: int, epsilon: float) -> float:
    """Correctly rounded sum of ``phi(0..cutoff)`` (it equals ``math.fsum``
    of the whole list), holding `_PARTIAL_SUM_CHUNK` terms at a time.

    A value in ``[2**e, 2**(e+1))`` splits exactly into its top 27
    significand bits, a multiple of ``2**(e-26)``, and the rest, a multiple
    of ``2**(e-52)``; each is below ``2**27`` of its unit.  Per exponent, a
    chunk's parts of one kind are at most ``2**16`` such multiples, so every
    partial sum stays below ``2**43`` units and ``np.bincount`` sums each
    bin exactly.  One ``math.fsum`` of all the bin totals rounds once.
    phi is positive and normal for every accepted epsilon up to ``2**26``
    terms, so each value's bits read as a clear sign bit, a nonzero biased
    exponent and the significand.
    """
    totals = []
    for start in range(0, cutoff + 1, _PARTIAL_SUM_CHUNK):
        stop = min(start + _PARTIAL_SUM_CHUNK, cutoff + 1)
        values = phi(np.arange(start, stop, dtype=np.float64), epsilon)
        bits = values.view(np.int64)
        exponent = bits >> 52
        lowest = exponent.min()
        if lowest < 1:
            raise RuntimeError("phi is not positive and normal")
        exponent -= lowest
        high = (bits & -(1 << 26)).view(np.float64)
        totals += np.bincount(exponent, high).tolist()
        totals += np.bincount(exponent, values - high).tolist()
    return math.fsum(totals)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelParams:
    """Calibrated parameters pinning the immigration and offspring laws.

    Attributes:
        b: offspring mean in (0, 1) (subcritical regime).
        epsilon: exponent of the slowly varying log factor, > 0.
        theta: offspring tail scale ``b / series_const``; equals P(B >= 1).
        series_const: ``S = sum_{k>=0} phi(k)``, so that the offspring mean
            ``theta * S`` equals ``b`` by construction.
        tail_table_cutoff: length of the precomputed offspring survival
            table used by samplers and the oracle.
    """

    b: float
    epsilon: float
    theta: float
    series_const: float
    tail_table_cutoff: int

    def __post_init__(self) -> None:
        if not 0.0 < self.b < 1.0:
            raise ValueError(f"b out of range: {self.b!r} (need 0 < b < 1)")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon out of range: {self.epsilon!r} (need > 0)")
        if self.series_const < 1.0:
            raise ValueError("series_const below 1; phi(0) alone contributes 1")
        if not 0.0 < self.theta <= self.b:
            raise ValueError("theta outside (0, b]")
        if abs(self.theta * self.series_const - self.b) > 1e-12:
            raise ValueError("theta * series_const does not reproduce b")
        if self.tail_table_cutoff < 1:
            raise ValueError("tail_table_cutoff must be >= 1")


def calibrate(b: float, epsilon: float, tolerance: float = 1e-10) -> ModelParams:
    """Compute the series constant ``S(epsilon)`` and tail scale ``theta``.

    ``S`` is a direct (exactly rounded) partial sum of ``phi`` plus the
    midpoint of a certified integral bracket for the remainder; the summation
    cutoff doubles until the bracket is narrower than ``tolerance``.

    Raises:
        ValueError: if ``b`` or ``epsilon`` or ``tolerance`` is out of range,
            or the tolerance is unreachable within the summation cap.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"b out of range: {b!r} (need 0 < b < 1)")
    if not 0.0 < epsilon <= EPSILON_MAX:
        raise ValueError(
            f"epsilon out of range: {epsilon!r} (need 0 < eps <= {EPSILON_MAX:g})"
        )
    if tolerance <= 0.0:
        raise ValueError(f"tolerance out of range: {tolerance!r} (need > 0)")

    cutoff = _CALIBRATION_CUTOFF
    while True:
        lo, hi = phi_tail_bounds(cutoff, epsilon)
        if hi - lo <= tolerance:
            break
        if cutoff >= _MAX_CALIBRATION_CUTOFF:
            raise ValueError(
                f"tolerance {tolerance:g} unreachable: tail bracket width is "
                f"{hi - lo:g} at the summation cap {cutoff}"
            )
        cutoff *= 2

    series_const = _phi_partial_sum(cutoff, epsilon) + 0.5 * (lo + hi)
    return ModelParams(
        b=b,
        epsilon=epsilon,
        theta=b / series_const,
        series_const=series_const,
        tail_table_cutoff=_TAIL_TABLE_CUTOFF,
    )


# ---------------------------------------------------------------------------
# Immigration law
# ---------------------------------------------------------------------------


def survival_A(k):
    """``P(A > k) = 1/(1 + floor(k))``, exact at integers.

    The immigration count is supported on {1, 2, ...}: ``survival_A(0) == 1``.
    Real arguments are floored, which matches the law of the integer variable.
    """
    k_arr = np.asarray(k, dtype=np.float64)
    if np.any(k_arr < 0):
        raise ValueError("k must be >= 0")
    out = 1.0 / (1.0 + np.floor(k_arr))
    return float(out) if out.ndim == 0 else out


def pmf_A(k):
    """``P(A = k) = 1/(k*(k+1))`` for integers ``k >= 1``; zero at ``k = 0``."""
    k_arr = np.asarray(k, dtype=np.float64)
    if np.any(k_arr < 0):
        raise ValueError("k must be >= 0")
    safe = np.maximum(k_arr, 1.0)
    out = np.where(k_arr >= 1.0, 1.0 / (safe * (safe + 1.0)), 0.0)
    return float(out) if out.ndim == 0 else out


def truncated_mean_A(t: float) -> float:
    """``E[A * 1{A <= t}] = H(floor(t)+1) - 1`` (harmonic number).

    With ``n = floor(t) + 1``: while ``n <= 256``, the direct sum
    ``sum_{j=2}^{n} 1/j``, one ``np.sum`` over every term.  Beyond, the
    expansion ``log n + gamma + 1/(2n) - 1/(12n^2) + 1/(120n^4)``, whose
    remainder is below ``1/(252 n^6)`` (Knuth, TAOCP vol. 1, 1.2.7), about
    1/60 ulp at ``n = 256``.  The quartic term is taken as ``(1/n)**4``,
    which underflows to 0 for huge ``n`` (the immigration scales of
    `asymptotics._immigration_split` reach ``exp(690)``), where ``n**4``
    would overflow.
    """
    if t < 1.0:
        return 0.0
    if math.isinf(t):
        return math.inf
    n = math.floor(t) + 1.0
    if n <= _HARMONIC_SWITCH:
        return float(np.sum(1.0 / np.arange(2.0, n + 1.0)))
    return (
        math.log(n)
        + np.euler_gamma
        + 1.0 / (2.0 * n)
        - 1.0 / (12.0 * n * n)
        + (1.0 / n) ** 4 / 120.0
        - 1.0
    )


class LawA:
    """Immigration law: survival exactly ``1/(1+k)``; parameter-free."""

    survival = staticmethod(survival_A)
    pmf = staticmethod(pmf_A)


# ---------------------------------------------------------------------------
# Offspring law
# ---------------------------------------------------------------------------


class LawB:
    """Offspring law: survival ``theta * phi(k)``; mean ``b``; heavy index-1 tail.

    Holds a precomputed survival table for ``k <= tail_table_cutoff``; the
    analytic formula serves every larger ``k``.  The table entries are the
    formula values, so the two representations agree identically at the seam.
    """

    def __init__(self, params: ModelParams) -> None:
        self.params = params
        ks = np.arange(params.tail_table_cutoff + 1, dtype=np.float64)
        self.survival_table = params.theta * phi(ks, params.epsilon)
        self.survival_table.setflags(write=False)

    @cached_property
    def search_key(self) -> np.ndarray:
        """Ascending keys for the samplers' `np.searchsorted`: the survival
        table negated once, on the first draw, so a process that never
        samples never holds them."""
        key = -self.survival_table
        key.setflags(write=False)
        return key

    def survival(self, k):
        """``P(B > k) = theta * phi(floor(k))``; table lookup where possible."""
        k_arr = np.floor(np.asarray(k, dtype=np.float64))
        if np.any(k_arr < 0):
            raise ValueError("k must be >= 0")
        out = np.empty_like(k_arr)
        small = k_arr <= self.params.tail_table_cutoff
        out[small] = self.survival_table[k_arr[small].astype(np.int64)]
        out[~small] = self.params.theta * phi(k_arr[~small], self.params.epsilon)
        return float(out) if out.ndim == 0 else out

    def pmf(self, k):
        """``P(B = k)``: ``1 - theta`` at 0, else ``survival(k-1) - survival(k)``."""
        k_arr = np.asarray(k, dtype=np.float64)
        if np.any(k_arr < 0):
            raise ValueError("k must be >= 0")
        prev = self.survival(np.maximum(k_arr - 1.0, 0.0))
        curr = self.survival(k_arr)
        out = np.where(k_arr >= 1.0, prev - curr, 1.0 - self.params.theta)
        return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=8)
def law_B(params: ModelParams) -> LawB:
    """Cached offspring-law object (tables are immutable and shareable)."""
    return LawB(params)


def slowly_varying_part(params: ModelParams, x):
    """``L(x) = theta * log(e+x)**(-1-epsilon)``.

    At integer ``x`` the offspring survival factorizes as ``L(x)/(1+x)``;
    ``L`` is slowly varying and ``L(x)*log(x) -> 0``, the boundary behaviour
    that drives every second-order tail term.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    out = params.theta * np.log(_E + x_arr) ** (-1.0 - params.epsilon)
    return float(out) if out.ndim == 0 else out


def offspring_mean_bracket(params: ModelParams) -> tuple[float, float]:
    """Bracket ``E[B] = sum_k P(B > k)`` by partial sum plus certified tail.

    The returned interval must contain ``b`` — the calibration self-check.
    """
    partial = _phi_partial_sum(_MEAN_BRACKET_CUTOFF, params.epsilon)
    lo, hi = phi_tail_bounds(_MEAN_BRACKET_CUTOFF, params.epsilon)
    return params.theta * (partial + lo), params.theta * (partial + hi)


# ---------------------------------------------------------------------------
# Offspring pgf and extinction probabilities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _phi_head(epsilon: float) -> np.ndarray:
    """``phi(0 .. _PGF_HEAD_TERMS-1)``, cached per epsilon."""
    values = phi(np.arange(_PGF_HEAD_TERMS, dtype=np.float64), epsilon)
    values.setflags(write=False)
    return values


def _survival_series_tail(
    epsilon: float, cutoff: int, lam: float
) -> tuple[float, float]:
    """``sum_{k >= cutoff} phi(k) * exp(-lam*k)`` via integral + endpoint terms,
    and the integral's quadrature error estimate.

    Because the expansion point ``cutoff`` is far from phi's singularity, the
    Euler-Maclaurin corrections ``g(cutoff)/2 - g'(cutoff)/12`` leave an error
    of order 1e-13 absolute or smaller for every ``lam`` that reaches here.
    The integral runs over ``u = log(e+t)``, measured as ``r = u - u0``
    from the cutoff's ``u0``, to where the weight ``exp(-lam*t)`` has
    fallen by ``exp(-800)``.  The panels are at most 8 wide in ``r``, for
    the slowly varying factor, and at most 4 wide in ``lam*t`` while the
    weight is above ``exp(-40)`` (`_WEIGHT_FALLS`); its fall takes less
    than 0.01 of ``r`` once ``lam`` nears ``745/cutoff``.  What lies beyond
    ``exp(-40)`` is below the integral's rounding floor, so one panel
    suffices there.  With ``t = cutoff + (e+cutoff) * expm1(r)``, the
    rounding of a node perturbs ``lam*t`` in proportion to ``r``, not to
    ``u``.
    """
    if lam * cutoff > 745.0:
        return 0.0, 0.0  # every term underflows
    # The last node lies near t = 800/lam, which overflows below lam =
    # 4.5e-306.  Below the floor the sum reads low: at p = 5e-324 by 8.1e-5
    # at epsilon = 1 and 2.2e-3 at epsilon = 0.5.
    lam = max(lam, _LAMBDA_FLOOR)
    base = _E + cutoff
    u0 = math.log(base)
    r1 = math.log1p(800.0 / (lam * base))

    def integrand(r: np.ndarray) -> np.ndarray:
        t = cutoff + base * np.expm1(r)
        # The denominator overflows where t nears DBL_MAX / u**(1+eps):
        # at t near 1e302 for epsilon = 1, where the weight is near 1 once
        # lam is below about 1e-301, or at epsilon near EPSILON_MAX.  Such a
        # node divides by the log power alone; it reads 0 only where that
        # power overflows too, its correctly rounded value.
        with np.errstate(over="ignore"):
            denominator = (1.0 + t) * (u0 + r) ** (1.0 + epsilon)
            value = (t + _E) / denominator
            huge = np.isinf(denominator)
            if np.any(huge):
                value[huge] = (
                    (t[huge] + _E) / (1.0 + t[huge]) / (u0 + r[huge]) ** (1.0 + epsilon)
                )
            return value * np.exp(-lam * t)

    slow = np.linspace(0.0, r1, math.ceil(r1 / 8.0) + 1)
    fast = np.log1p(_WEIGHT_FALLS / (lam * base))
    # The sorted union of both edge sets, as np.union1d gives it; that call
    # would import numpy.ma the first time it runs (numpy 2.4).
    edges = np.sort(np.concatenate((slow, fast)))
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    integral, err = _quadrature(integrand, edges)
    decay = math.exp(-lam * cutoff)
    g0 = phi(float(cutoff), epsilon) * decay
    g0_deriv = (
        phi_deriv(float(cutoff), epsilon) - lam * phi(float(cutoff), epsilon)
    ) * decay
    return integral + 0.5 * g0 - g0_deriv / 12.0, err


def _offspring_survival_series(params: ModelParams, p: float) -> float:
    """Evaluate ``sum_k phi(k) * (1-p)**k`` for ``p in [0, 1]``.

    This is the survival-weighted series behind the offspring pgf: taking
    ``z = 1-p``, ``g_B(z) = 1 - p * theta * (this sum)``.  Exact head over
    ``k < 2**14`` plus the integral tail; absolute accuracy ~1e-13 down to
    ``p = 1e-305`` (`_LAMBDA_FLOOR`), checked against a 40-digit reference
    in the tests.  Taking ``p`` (not ``z``) as the argument keeps the
    extinction recursion free of cancellation near ``z = 1``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0:
        return params.series_const
    z = 1.0 - p
    head_terms = _phi_head(params.epsilon)
    weights = np.power(z, np.arange(_PGF_HEAD_TERMS, dtype=np.float64))
    # A threaded dot product would make the pgf's bits depend on the core
    # count (and leave BLAS threads spinning after each call).
    with one_blas_thread():
        head = float(np.dot(head_terms, weights))
    lam = math.inf if p == 1.0 else -math.log1p(-p)
    tail, _ = _survival_series_tail(params.epsilon, _PGF_HEAD_TERMS, lam)
    return head + tail


# Guards the growth of the extinction tables: any thread may ask for one.
_EXTINCTION_LOCK = threading.Lock()


@lru_cache(maxsize=8)
def _survival_rows(params: ModelParams) -> list:
    """``P(D_n > 0)`` for the generations computed so far, from ``p[0] =
    1``: the one table of a model, grown in place by `extinction_table`."""
    return [1.0]


def extinction_table(params: ModelParams, n_max: int) -> np.ndarray:
    """Survival probabilities ``p[n] = P(D_n > 0)`` of the generation
    aggregates, ``n = 0 .. n_max``, as a read-only array.

    ``D_0 = 1`` (a single root), so ``p[0] = 1``, and ``D_{n+1}`` is a sum
    of ``B``-many independent copies of ``D_n``.  The extinction
    probability is ``q[n] = P(D_n = 0) = 1 - p[n]``; it iterates the
    offspring pgf, ``q[n+1] = g_B(q[n])``, and is non-decreasing.  The
    recursion is kept in survival form, ``p[n+1] = p[n] * theta * Phi``
    with ``Phi = sum_k phi(k) * q[n]**k`` clamped at the series constant, so
    no precision is lost as ``q[n] -> 1`` and the mean bound ``p[n] <= b**n``
    holds structurally.

    Each model (the 8 most recently used) has one table, grown under a lock
    when a caller asks past its last generation; the recursion is
    deterministic, so every reader on any thread sees the bits of a table
    built at once.  The oracle's generation chain, the cluster sampler
    and `depth_remainder_bound` all read it.

    Raises:
        RuntimeError: if the mean bound fails (a pgf evaluation bug).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    with _EXTINCTION_LOCK:
        rows = _survival_rows(params)
        for n in range(len(rows), n_max + 1):
            series = min(
                _offspring_survival_series(params, rows[-1]), params.series_const
            )
            survive = rows[-1] * params.theta * series
            if survive > params.b**n * (1.0 + 1e-12):
                raise RuntimeError(
                    f"generation survival p[{n}] = {survive:g} exceeds the mean "
                    f"bound b**n = {params.b ** n:g}: pgf evaluation inconsistent"
                )
            rows.append(survive)
        p = np.array(rows[: n_max + 1])
    p.setflags(write=False)
    return p


def depth_remainder_bound(params: ModelParams, depth: int) -> float:
    """Upper bound on the probability that any generation beyond ``depth``
    contributes to the stationary value.

    Generation ``m`` contributes iff one of its immigration-count many
    aggregates is nonzero.  With ``p_m = P(D_m > 0)`` that has probability
    ``f(p_m) = -p_m ln p_m / (1 - p_m)``, one minus the immigration pgf at
    ``1 - p_m``, which increases in ``p_m``.  The pgf is convex with slope
    ``b`` at 1, so ``p_{m+1} <= b p_m``, and with ``p = p_depth``:

        R <= sum_{j >= 1} f(p b**j)
          <= p b (-ln p / (1 - b) - ln b / (1 - b)**2) / (1 - b p),

    from ``-ln(p b**j) = -ln p - j ln b`` and ``1 - p b**j >= 1 - b p``.
    That holds for any ``p`` in (0, 1] at least the true one, so ``p`` is
    read from `extinction_table` and raised by 1e-12 relative per generation
    (each pgf step is good to about 1e-13 of a series at least 1, plus a few
    ulps), then floored at the smallest normal float.  Depth 0 takes ``p_0
    = 1``.  Both truncated-pmf assembly and cluster sampling use this to
    certify their finite-depth truncations.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    p = 1.0 if depth == 0 else float(extinction_table(params, depth)[depth])
    p = min(max(p * (1.0 + 1e-12 * depth), sys.float_info.min), 1.0)
    b = params.b
    spread = -math.log(p) / (1.0 - b) - math.log(b) / (1.0 - b) ** 2
    return p * b * spread / (1.0 - b * p)
