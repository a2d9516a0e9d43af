"""Model layer: calibration, the two laws, pgf, and extinction table.

Golden values were computed independently with mpmath at 50 digits
(series constant via Euler-Maclaurin at two summation points, extinction
probabilities via direct high-precision series evaluation) and frozen here.
"""

import hashlib
import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bigjump import model
from bigjump.sampler import ChainConfig, RngStream, run_chain
from bigjump.model import (
    _PGF_HEAD_TERMS,
    LawA,
    _offspring_survival_series,
    _phi_integral,
    _survival_series_tail,
    calibrate,
    depth_remainder_bound,
    extinction_table,
    law_B,
    offspring_mean_bracket,
    phi,
    phi_deriv,
    phi_tail_bounds,
    pmf_A,
    slowly_varying_part,
    survival_A,
    truncated_mean_A,
)

# 50-digit reference values (mpmath), rounded to double precision.
GOLDEN_SERIES_CONST = 2.1108239615767531  # S(1) = sum_k phi(k, eps=1)
GOLDEN_THETA_HALF = 0.2368743244825152  # 0.5 / S(1)
GOLDEN_SURVIVAL_B_1 = 0.06867290891223995  # theta * phi(1)
GOLDEN_P2 = 0.07763979139235238  # P(D_2 >= 1) at b=0.5
GOLDEN_P3 = 0.02950061949947674  # P(D_3 >= 1) at b=0.5
GOLDEN_PGF_HALF = 0.8584264858195965  # offspring pgf at z = 0.5
GOLDEN_PHI_SERIES_P1E4 = 1.9913691797993586  # sum phi(k)(1-1e-4)^k
GOLDEN_PHI_SERIES_P1E9 = 2.0609648124173176  # sum phi(k)(1-1e-9)^k
GOLDEN_PHI_TAIL_2_14 = 0.10304849534211  # sum_{k > 2^14} phi(k)
GOLDEN_TM_A_10 = 2.019877344877345  # H(11) - 1
GOLDEN_TM_A_2_20 = 13.440160706610928  # H(2^20 + 1) - 1
GOLDEN_TM_A_1E7 = 15.695311765859752  # H(10^7 + 4) - 1, via t = 10^7 + 3


class TestCalibration:
    def test_series_constant_golden(self, params):
        assert params.series_const == pytest.approx(GOLDEN_SERIES_CONST, abs=2e-13)
        assert params.theta == pytest.approx(GOLDEN_THETA_HALF, abs=2e-13)

    def test_mean_identity_exact_by_construction(self, params):
        assert abs(params.theta * params.series_const - params.b) <= 1e-12

    def test_series_constant_independent_of_b(self, params, params_b02, params_b08):
        assert params_b02.series_const == params.series_const
        assert params_b08.series_const == params.series_const
        assert params_b02.theta == pytest.approx(0.4 * params.theta, rel=1e-15)

    def test_series_constant_decreases_in_epsilon(self):
        s1 = calibrate(0.5, 1.0).series_const
        s2 = calibrate(0.5, 2.0).series_const
        assert 1.0 <= s2 < s1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="b out of range"):
            calibrate(1.2, 1.0)
        with pytest.raises(ValueError, match="b out of range"):
            calibrate(0.0, 1.0)
        with pytest.raises(ValueError, match="b out of range"):
            calibrate(1.0, 1.0)
        with pytest.raises(ValueError, match="epsilon out of range"):
            calibrate(0.5, 0.0)
        with pytest.raises(ValueError, match="epsilon out of range"):
            calibrate(0.5, 176.5)  # phi would overflow to 0 before 2**62
        with pytest.raises(ValueError, match="tolerance out of range"):
            calibrate(0.5, 1.0, tolerance=0.0)

    def test_rejects_unreachable_tolerance(self):
        with pytest.raises(ValueError, match="unreachable"):
            calibrate(0.5, 1.0, tolerance=1e-18)

    def test_tail_bracket_golden(self):
        lo, hi = phi_tail_bounds(2**14, 1.0)
        assert lo <= GOLDEN_PHI_TAIL_2_14 <= hi
        assert hi - lo < 1e-11
        lo, hi = phi_tail_bounds(2**17, 1.0)
        assert hi - lo < 1e-12

    def test_mean_bracket_contains_b(self, params):
        lo, hi = offspring_mean_bracket(params)
        assert hi - lo < 1e-9
        assert lo - 1e-9 <= params.b <= hi + 1e-9

    def test_mean_bracket_other_b(self, params_b02, params_b08):
        for p in (params_b02, params_b08):
            lo, hi = offspring_mean_bracket(p)
            assert lo - 1e-9 <= p.b <= hi + 1e-9

    def test_default_calibration_bits(self, params):
        # The pinned artifact hashes of tests/test_cli.py read these bits.
        assert float(params.theta) == 0.23687432448251633
        assert float(params.series_const) == 2.110823961576743


def _fsum_of_phi(cutoff: int, epsilon: float) -> float:
    return math.fsum(phi(np.arange(cutoff + 1, dtype=np.float64), epsilon).tolist())


class TestPhiPartialSum:
    """The partial sum rounds once: it equals `math.fsum` of the whole list."""

    @pytest.mark.parametrize("epsilon", [0.2, 0.5, 1.0, 176.0])
    def test_mean_bracket_cutoff(self, epsilon):
        cutoff = model._MEAN_BRACKET_CUTOFF
        assert model._phi_partial_sum(cutoff, epsilon) == _fsum_of_phi(cutoff, epsilon)

    @pytest.mark.parametrize("epsilon", [0.5, 1.0])
    @pytest.mark.parametrize(
        "cutoff",
        [
            0,
            model._PARTIAL_SUM_CHUNK - 1,
            model._PARTIAL_SUM_CHUNK,
            model._PARTIAL_SUM_CHUNK + 1,
            2 * model._PARTIAL_SUM_CHUNK + 1,
            model._CALIBRATION_CUTOFF,
        ],
    )
    def test_cutoffs_around_the_chunk(self, cutoff, epsilon):
        assert model._phi_partial_sum(cutoff, epsilon) == _fsum_of_phi(cutoff, epsilon)

    def test_refuses_terms_that_are_not_normal(self, monkeypatch):
        # A raise, not an assert: the guard holds under python -O too.
        monkeypatch.setattr(model, "phi", lambda t, epsilon: np.zeros_like(t))
        with pytest.raises(RuntimeError, match="positive and normal"):
            model._phi_partial_sum(10, 1.0)

    @pytest.mark.parametrize(
        "build", [offspring_mean_bracket, lambda _: calibrate(0.5, 1.0)],
        ids=["offspring_mean_bracket", "calibrate"],
    )
    def test_memory_stays_below_8_mib(self, params, build):
        tracemalloc.start()
        try:
            build(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestQuadrature:
    """The Gauss-Legendre integrals against scipy's adaptive `quad`."""

    EPSILONS = (0.1, 0.2, 0.5, 1.0, 3.0, 5.0)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize(
        "a", [0.0, 1.0, 2.0**14, 2.0**17 + 0.5, 2.0**17 + 1.0, 2.0**21 + 0.5]
    )
    def test_phi_integral_matches_quad(self, epsilon, a):
        value, err = _phi_integral(a, epsilon)

        # v = u**(-eps) maps u = log(e+t) in [log(e+a), inf) onto a finite
        # interval, where the integrand is smooth up to v = 0.
        def integrand(v):
            u = v ** (-1.0 / epsilon)
            return 1.0 / (epsilon * (1.0 - (math.e - 1.0) * math.exp(-u)))

        top = math.log(math.e + a) ** -epsilon
        ref, _ = quad(integrand, 0.0, top, epsabs=0.0, epsrel=1e-13, limit=200)
        assert abs(value - ref) <= err
        assert err <= 1e-14 * value

    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize(
        "lam", [1e-30, 1e-20, 1e-12, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.04]
    )
    def test_series_tail_matches_quad(self, epsilon, lam):
        cutoff = _PGF_HEAD_TERMS
        value, err = _survival_series_tail(epsilon, cutoff, lam)

        def integrand(u):
            w = math.exp(u)
            t = w - math.e
            return w / ((1.0 + t) * u ** (1.0 + epsilon)) * math.exp(-lam * t)

        u0 = math.log(math.e + cutoff)
        u1 = math.log(math.e + cutoff + 800.0 / lam)
        # quad's error estimate is wider than ours; the two values must
        # agree within the sum of both.
        ref, ref_err = quad(
            integrand, u0, u1, epsabs=1e-16, epsrel=1e-12, limit=200
        )
        # Both integrals are closed by the same Euler-Maclaurin end terms.
        g0 = phi(float(cutoff), epsilon)
        g0_deriv = phi_deriv(float(cutoff), epsilon) - lam * g0
        ends = (0.5 * g0 - g0_deriv / 12.0) * math.exp(-lam * cutoff)
        assert abs(value - (ref + ends)) <= err + ref_err
        assert err <= 1e-13 * value

    def test_series_tail_underflow(self):
        assert _survival_series_tail(1.0, _PGF_HEAD_TERMS, 0.05) == (0.0, 0.0)


class TestLawA:
    def test_survival_exact_values(self):
        assert survival_A(0) == 1.0
        assert survival_A(1) == 0.5
        assert survival_A(9) == pytest.approx(0.1, rel=1e-15)

    def test_survival_floors_real_arguments(self):
        assert survival_A(2.7) == survival_A(2)
        assert survival_A(1e6 + 0.5) == survival_A(1e6)

    def test_pmf_values(self):
        assert pmf_A(0) == 0.0
        assert pmf_A(1) == 0.5
        assert pmf_A(2) == pytest.approx(1 / 6, rel=1e-15)
        assert pmf_A(3) == pytest.approx(1 / 12, rel=1e-15)

    def test_pmf_matches_survival_differences(self):
        k = np.arange(1, 2000)
        diff = survival_A(k - 1) - survival_A(k)
        assert np.allclose(pmf_A(k), diff, rtol=1e-12, atol=0)

    def test_pmf_partial_sum_closed_form(self):
        k_max = 5000
        total = math.fsum(pmf_A(np.arange(1, k_max + 1)).tolist())
        assert total == pytest.approx(1.0 - 1.0 / (1 + k_max), rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            survival_A(-1)
        with pytest.raises(ValueError):
            pmf_A(-2)

    def test_law_object_delegates(self):
        assert LawA.survival(4) == survival_A(4)
        assert LawA.pmf(4) == pmf_A(4)


def _one_shot_harmonic(n: int) -> float:
    """``H(n) - 1`` as one pairwise ``np.sum`` over an array of every term."""
    return float(np.sum(1.0 / np.arange(2.0, n + 1.0)))


def _assert_within_4_ulps(n: int) -> None:
    """``truncated_mean_A(n - 1)`` is within 4 ulps of ``H(n) - 1``, taken
    exactly from 140-bit integer parts (their floors lose under n 2^-140)."""
    scaled = sum((1 << 140) // j for j in range(2, n + 1))
    exact = Fraction(scaled, 1 << 140)
    got = truncated_mean_A(n - 1.0)
    assert abs(Fraction(got) - exact) <= 4 * Fraction(math.ulp(float(exact)))


class TestTruncatedMeanA:
    def test_exact_small_values(self):
        assert truncated_mean_A(0.5) == 0.0
        assert truncated_mean_A(1.0) == 0.5
        assert truncated_mean_A(2.0) == pytest.approx(5 / 6, rel=1e-15)
        assert truncated_mean_A(2.9) == pytest.approx(5 / 6, rel=1e-15)

    def test_goldens(self):
        assert truncated_mean_A(10) == pytest.approx(GOLDEN_TM_A_10, abs=5e-15)
        assert truncated_mean_A(2.0**20) == pytest.approx(GOLDEN_TM_A_2_20, abs=5e-14)
        assert truncated_mean_A(1e7 + 3) == pytest.approx(GOLDEN_TM_A_1E7, abs=5e-14)

    def test_branch_seam_agreement(self):
        # Direct summation at the switch, asymptotic one past it: the
        # increment between consecutive integers must match 1/(n+1).
        t = float(model._HARMONIC_SWITCH)
        below = truncated_mean_A(t - 1.0)
        above = truncated_mean_A(t)
        assert above - below == pytest.approx(1.0 / (t + 1.0), abs=1e-14)

    def test_log_growth(self):
        t = 1e6
        assert truncated_mean_A(t) / math.log(t) == pytest.approx(1.0, abs=0.05)

    def test_infinite_argument(self):
        assert truncated_mean_A(math.inf) == math.inf

    def test_huge_argument_is_finite(self):
        # The remainder bound of a depth-300 truncation reaches 2**300,
        # where n**4 overflows; the quartic term underflows to 0 instead.
        out = truncated_mean_A(2.0**300)
        expected = 300 * math.log(2.0) + np.euler_gamma - 1.0
        assert out == pytest.approx(expected, rel=1e-15)

    # n = floor(t) + 1 sums n - 1 terms 1/2 .. 1/n.
    @pytest.mark.parametrize(
        "n", [2, 3, 9, 129, model._HARMONIC_SWITCH - 1, model._HARMONIC_SWITCH]
    )
    def test_direct_sum_has_the_one_shot_bits(self, n):
        assert truncated_mean_A(n - 1.0) == _one_shot_harmonic(n)

    @given(st.integers(min_value=2, max_value=model._HARMONIC_SWITCH))
    @settings(max_examples=100, deadline=None)
    def test_direct_sum_has_the_one_shot_bits_at_any_n(self, n):
        assert truncated_mean_A(n - 0.5) == _one_shot_harmonic(n)

    # Either side of the switch, 3473 (the expansion's worst n up to 2**20)
    # and 2**20.
    @pytest.mark.parametrize("n", [2, 255, 256, 257, 258, 3473, 1 << 20])
    def test_within_4_ulps_of_exact(self, n):
        _assert_within_4_ulps(n)

    @given(st.integers(min_value=2, max_value=1 << 16))
    @settings(max_examples=50, deadline=None)
    def test_within_4_ulps_of_exact_at_any_n(self, n):
        _assert_within_4_ulps(n)

    def test_memory_stays_below_1_mib(self):
        tracemalloc.start()
        try:
            truncated_mean_A(model._HARMONIC_SWITCH - 1.0)
            truncated_mean_A((1 << 20) - 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestLawB:
    def test_survival_at_zero_is_theta(self, params):
        assert law_B(params).survival(0) == pytest.approx(params.theta, rel=1e-15)
        # phi(0) = 1 exactly, so the samplers read P(B >= 1) as params.theta.
        assert float(law_B(params).survival_table[0]) == params.theta

    def test_survival_golden(self, params):
        assert law_B(params).survival(1) == pytest.approx(GOLDEN_SURVIVAL_B_1, abs=2e-15)

    def test_survival_strictly_decreasing_sweep(self, params):
        k = np.arange(0, 10**6 + 1)
        values = law_B(params).survival(k)
        assert np.all(np.diff(values) < 0)

    def test_table_matches_formula_at_seam(self, params):
        law = law_B(params)
        cutoff = params.tail_table_cutoff
        for k in (cutoff - 1, cutoff, cutoff + 1, cutoff + 2):
            assert law.survival(k) == params.theta * phi(float(k), params.epsilon)

    def test_pmf_at_zero(self, params):
        assert law_B(params).pmf(0) == pytest.approx(1.0 - params.theta, rel=1e-15)

    def test_search_key_is_built_on_the_first_draw(self, params):
        # Only the samplers read the key: a process that never draws an
        # offspring count never holds its 2^16 + 1 doubles.
        law_B.cache_clear()
        law = law_B(params)
        assert "search_key" not in vars(law)
        run_chain(params, ChainConfig(n_samples=200, burn_in=0), RngStream(seed=5))
        key = vars(law)["search_key"]
        assert not key.flags.writeable
        np.testing.assert_array_equal(key, -law.survival_table)

    def test_pmf_matches_survival_differences(self, params):
        k = np.arange(1, 5000)
        diff = law_B(params).survival(k - 1) - law_B(params).survival(k)
        assert np.allclose(law_B(params).pmf(k), diff, rtol=1e-12, atol=0)

    def test_pmf_sums_to_one_minus_tail(self, params):
        k_max = 3000
        total = math.fsum(law_B(params).pmf(np.arange(0, k_max + 1)).tolist())
        assert total == pytest.approx(1.0 - law_B(params).survival(k_max), abs=1e-12)

    def test_slow_variation_bound(self, params):
        # |L(2x)/L(x) - 1| <= 3(1+eps)/log(x) for x >= e^2
        xs = np.geomspace(math.e**2, 1e15, 60)
        ratio = slowly_varying_part(params, 2 * xs) / slowly_varying_part(params, xs)
        assert np.all(np.abs(ratio - 1.0) <= 3.0 * (1 + params.epsilon) / np.log(xs))

    def test_boundary_decay_monotone(self, params):
        # L(x) * log(x) -> 0.  The product rises until x ~ 4.6 (where
        # (e+x)log(e+x) = 2x log x), then decays; test the decaying regime.
        xs = np.geomspace(10.0, 1e15, 80)
        decay = slowly_varying_part(params, xs) * np.log(xs)
        assert np.all(np.diff(decay) < 0)
        assert decay[-1] < 0.01


@lru_cache(maxsize=2)
def _phi_head_40_digits(epsilon: float) -> tuple:
    power = 1 + mpmath.mpf(epsilon)
    return tuple(
        1 / ((1 + k) * mpmath.log(mpmath.e + k) ** power) for k in range(_PGF_HEAD_TERMS)
    )


def _survival_series_40_digits(epsilon: float, p: float):
    """sum_k phi(k) (1-p)^k at 40 digits, as `_offspring_survival_series`
    splits it: the head k < 2^14 summed term by term, the tail as the
    integral from 2^14 by `mpmath.quad` in u = log(e+t), plus the same
    Euler-Maclaurin end terms g(c)/2 - g'(c)/12."""
    with mpmath.workdps(40):
        e, power, p = mpmath.e, 1 + mpmath.mpf(epsilon), mpmath.mpf(p)
        head, weight = mpmath.mpf(0), mpmath.mpf(1)
        for value in _phi_head_40_digits(epsilon):
            head += value * weight
            weight *= 1 - p
        lam, c = -mpmath.log1p(-p), mpmath.mpf(_PGF_HEAD_TERMS)

        def integrand(u):
            t = mpmath.exp(u) - e
            return mpmath.exp(u) / ((1 + t) * u**power) * mpmath.exp(-lam * t)

        # Panels doubling from log(e+c) up to where lam t = e^-4, then 2
        # wide across the weight's fall at lam t = 1.
        u0, fall = mpmath.log(e + c), -mpmath.log(lam)
        edges = [u0]
        while edges[-1] < fall - 4:
            edges.append(min(2 * edges[-1] - u0 + 1, fall - 4))
        edges += [fall - 2, fall, fall + 2, fall + 4, fall + 8]
        tail = mpmath.quad(integrand, edges)
        phi_c = 1 / ((1 + c) * mpmath.log(e + c) ** power)
        phi_c_deriv = -phi_c * (1 / (1 + c) + power / ((e + c) * mpmath.log(e + c)))
        decay = mpmath.exp(-lam * c)
        return head + tail + phi_c * decay / 2 - (phi_c_deriv - lam * phi_c) * decay / 12


def pgf_B(params, z):
    """The offspring pgf g(z) = 1 - (1-z) theta Phi(1-z), with Phi the
    survival series that `extinction_table` iterates."""
    p = 1.0 - z
    return 1.0 - p * params.theta * _offspring_survival_series(params, p)


class TestPgfB:
    def test_normalization(self, params):
        assert pgf_B(params, 1.0) == 1.0

    def test_mass_at_zero(self, params):
        assert pgf_B(params, 0.0) == pytest.approx(1.0 - params.theta, rel=1e-14)

    def test_golden_at_half(self, params):
        assert pgf_B(params, 0.5) == pytest.approx(GOLDEN_PGF_HALF, abs=5e-15)

    def test_direct_pmf_crosscheck(self, params):
        # Independent evaluation: sum P(B = k) z^k, remainder below 1e-16.
        z = 0.5
        k = np.arange(0, 200)
        direct = math.fsum((law_B(params).pmf(k) * z**k).tolist())
        assert pgf_B(params, z) == pytest.approx(direct, abs=1e-12)

    def test_monotone_and_convex(self, params):
        zs = np.linspace(0.0, 1.0, 201)
        values = np.array([pgf_B(params, z) for z in zs])
        first = np.diff(values)
        assert np.all(first > 0)
        assert np.all(np.diff(first) >= -1e-12)

    def test_survival_series_goldens(self, params):
        assert _offspring_survival_series(params, 1e-4) == pytest.approx(
            GOLDEN_PHI_SERIES_P1E4, abs=5e-14
        )
        assert _offspring_survival_series(params, 1e-9) == pytest.approx(
            GOLDEN_PHI_SERIES_P1E9, abs=5e-14
        )

    @pytest.mark.parametrize("epsilon", [0.5, 1.0])
    @pytest.mark.parametrize("p", [1e-16, 1e-30, 1e-100, 1e-300, 1e-304])
    def test_survival_series_matches_a_40_digit_reference(self, epsilon, p):
        # Within the stated 1e-13; 7.1e-15 at most here.  The weight's fall
        # sat at lam = 1e-30 for every smaller p, which read 0.0103 low at
        # (1e-100, 1) and 0.166 at (1e-300, 0.5).  At p = 1e-304 the
        # integrand's nodes with weight near 1 reach t past 1e303, where
        # (1+t) log(e+t)**(1+eps) overflows.
        params = calibrate(0.5, epsilon)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = _offspring_survival_series(params, p)
        assert value == pytest.approx(float(_survival_series_40_digits(epsilon, p)), abs=1e-13)

    def test_rejects_out_of_range(self, params):
        with pytest.raises(ValueError):
            _offspring_survival_series(params, -0.1)
        with pytest.raises(ValueError):
            _offspring_survival_series(params, 1.1)


class TestExtinctionTable:
    def test_first_generation(self, params):
        table = extinction_table(params, 5)
        assert table[1] == params.theta
        assert 1.0 - table[1] == 1.0 - params.theta

    def test_goldens(self, params):
        table = extinction_table(params, 5)
        assert table[2] == pytest.approx(GOLDEN_P2, abs=5e-15)
        assert table[3] == pytest.approx(GOLDEN_P3, abs=5e-15)

    def test_monotone_and_mean_bound(self, params):
        table = extinction_table(params, 60)
        # q is non-decreasing; it saturates at exactly 1.0 in floating point
        # once p drops below ~5e-17, so strict growth is asserted on p.
        assert np.all(np.diff(1.0 - table) >= 0)
        assert np.all(np.diff(table) < 0)
        n = np.arange(0, 61)
        assert np.all(table <= params.b**n * (1.0 + 1e-12))

    def test_root_generation(self, params):
        table = extinction_table(params, 1)
        assert table[0] == 1.0
        assert 1.0 - table[0] == 0.0
        assert table.size == 2

    def test_rejects_bad_n(self, params):
        with pytest.raises(ValueError, match="n_max"):
            extinction_table(params, 0)
        with pytest.raises(ValueError, match="n_max"):
            extinction_table(params, -3)

    def test_growing_is_bit_identical(self, params):
        model._survival_rows.cache_clear()
        full = extinction_table(params, 12)
        model._survival_rows.cache_clear()
        for n_max in (1, 5, 12):
            table = extinction_table(params, n_max)
            assert table.size == n_max + 1
        np.testing.assert_array_equal(table, full)
        # A shallower read of the grown table is its head.
        np.testing.assert_array_equal(extinction_table(params, 5), full[:6])

    @pytest.mark.parametrize(
        "b, epsilon, n_max, digest",
        [
            (0.5, 1.0, 300, "c301a1dfb288362b581326600d4f2b4e"),
            (0.5, 176.0, 400, "7700b022efbce75b717e2c024feb5a60"),
            (0.01, 176.0, 400, "5ff50b1e428f17a6e61a919caa4a8429"),
        ],
    )
    def test_bits_frozen_without_warnings(self, b, epsilon, n_max, digest):
        # md5 of the p then q = 1 - p bytes, as the table read before it was shared
        # and before the pgf tail's overflowing nodes were silenced: at
        # epsilon = 176 the integrand's denominator overflowed with 677 (b =
        # 0.5) and 305 (b = 0.01) RuntimeWarnings, at nodes that read 0
        # either way.  The 300-row digest moved (from ccd70d6f...) when the
        # pgf tail stopped flooring lam at 1e-30: p_300 read 3.065e-93, and
        # reads 5.910e-93.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = extinction_table(calibrate(b, epsilon), n_max)
        q = 1.0 - table
        assert hashlib.md5(table.tobytes() + q.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n", [100, 200])
    def test_steps_below_1e_30_match_a_40_digit_series(self, params, n):
        # p_100 = 2.0e-32 and p_200 = 9.8e-63: each step p_{n+1} = p_n theta
        # Phi(p_n) to 1e-13 (6.7e-16 here).  With lam floored at 1e-30 the
        # steps read 3.8e-4 and 3.6e-3 low, and R(200) read 1.12e-60 where
        # it reads 1.42e-60.
        table = extinction_table(params, n + 1)
        series = float(_survival_series_40_digits(params.epsilon, float(table[n])))
        step = table[n + 1] / (table[n] * params.theta * series)
        assert step == pytest.approx(1.0, rel=1e-13, abs=0.0)

    def test_threads_growing_a_fresh_table_match_the_serial_one(self, params):
        # Four threads on a 2-core box, switching every microsecond: a row
        # grown twice or out of order would break the bits or the length.
        model._survival_rows.cache_clear()
        serial = extinction_table(params, 80)
        model._survival_rows.cache_clear()
        tables, start = [], threading.Barrier(4)

        def grow(depths: tuple) -> None:
            start.wait()
            tables.extend(extinction_table(params, depth) for depth in depths)

        threads = [
            threading.Thread(target=grow, args=(depths,))
            for depths in ((10, 40, 80), (25, 60, 80), (80,), (5, 79, 80))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(tables) == 10
        assert len(model._survival_rows(params)) == 81
        for table in tables:
            np.testing.assert_array_equal(table, serial[: table.size])

    def test_is_a_read_only_array(self, params):
        table = extinction_table(params, 3)
        assert isinstance(table, np.ndarray)
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0.0


def _contribution(p: np.ndarray) -> np.ndarray:
    """``-p ln p / (1 - p)``: the chance that a generation with ``P(D_n > 0)
    = p`` contributes, one minus the immigration pgf at ``1 - p``."""
    out = np.ones_like(p)  # f(1) = 1, its limit
    out[p == 0.0] = 0.0
    alive = (p > 0.0) & (p < 1.0)
    out[alive] = -p[alive] * np.log(p[alive]) / (1.0 - p[alive])
    return out


class TestDepthRemainderBound:
    def test_golden(self, params):
        # Frozen arithmetic check (the mean bound b**n read 2.79e-11).
        assert depth_remainder_bound(params, 40) == pytest.approx(
            1.3319886490114134e-12, rel=1e-12
        )

    def test_depth_zero_reads_the_root(self, params):
        b = params.b
        expected = -b * math.log(b) / (1.0 - b) ** 3  # p_0 = 1
        assert depth_remainder_bound(params, 0) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "b, epsilon",
        [(0.5, 1.0), (0.5, 0.1), (0.2, 0.2), (0.8, 1.0), (0.9, 1.0), (0.95, 1.0)],
    )
    def test_covers_the_exact_sum(self, b, epsilon):
        # R(d) >= sum_{m = d+1}^{d+400} f(p_m) with p_m from the table, at
        # every depth 1..300; past d + 400 the terms are below 1e-18 of the
        # sum at every one of these configurations.
        params = calibrate(b, epsilon)
        terms = _contribution(extinction_table(params, 700))
        for depth in range(1, 301):
            exact = math.fsum(terms[depth + 1 : depth + 401].tolist())
            assert depth_remainder_bound(params, depth) >= exact, depth

    def test_within_reach_of_the_exact_sum(self, params):
        # At the default model's stopping depths (36 at cutoff 2**16, 40
        # for the cluster sampler) the closed form is 1.03x the sum it
        # bounds; the mean bound b**n read 20x.
        terms = _contribution(extinction_table(params, 440))
        for depth in (36, 40):
            exact = math.fsum(terms[depth + 1 :].tolist())
            assert depth_remainder_bound(params, depth) <= 1.1 * exact

    def test_underflowed_survival_is_floored(self):
        # p_n underflows to 0 at b = 0.2 long before generation 600; the
        # bound then reads the smallest normal float, still positive.
        params = calibrate(0.2, 1.0)
        assert extinction_table(params, 600)[600] == 0.0
        assert 0.0 < depth_remainder_bound(params, 600) < 1e-300

    def test_decreasing_roughly_geometric(self, params):
        values = [depth_remainder_bound(params, m) for m in (10, 20, 30, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))
        # each extra 10 generations should shrink the bound by >~ b**10 / 2
        for a, b in zip(values, values[1:]):
            assert b < a * (0.5**10) * 40

    def test_rejects_negative(self, params):
        with pytest.raises(ValueError):
            depth_remainder_bound(params, -1)


class TestPhiProperties:
    def test_finite_where_the_denominator_overflows(self):
        # (1+t) * log(e+t)**2 overflows past t ~ 1e303; phi is then a
        # positive subnormal, with no overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = phi(1e306, 1.0)
        assert 0.0 < value < math.inf
        assert value == pytest.approx(1e-306 / math.log(1e306) ** 2, rel=1e-9)

    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 7.25, 176.0])
    def test_bits_are_those_of_the_plain_expression(self, epsilon):
        def plain(t):
            with np.errstate(over="ignore"):
                out = 1.0 / ((1.0 + t) * np.log(math.e + t) ** (1.0 + epsilon))
                split = (1.0 / (1.0 + t)) / np.log(math.e + t) ** (1.0 + epsilon)
            return np.where(out == 0.0, split, out)

        rng = np.random.default_rng(31)
        special = np.array([0.0, 1e300, 1.7e308, 2.0**62])
        for ts in (np.arange(1 << 16, dtype=np.float64), np.exp(700.0 * rng.random(4096)), special):
            np.testing.assert_array_equal(phi(ts, epsilon).view(np.uint64), plain(ts).view(np.uint64))
        # A scalar's log and power come from libm, an array's from numpy's
        # own loops: between t = 0 and 2047 they part in the last bit 1 to
        # 104 times per epsilon here.
        for t in np.concatenate((np.arange(2048.0), special)):
            assert phi(float(t), epsilon) == float(plain(np.asarray(t)))

    def test_bits_kept_where_the_denominator_is_finite(self):
        ts = np.array([0.0, 1.0, 7.5, 1e6, 1e300])
        np.testing.assert_array_equal(
            phi(ts, 1.0), 1.0 / ((1.0 + ts) * np.log(math.e + ts) ** 2.0)
        )

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_decreasing_at_integers(self, k):
        eps = 1.0
        v0, v1, v2 = phi(k, eps), phi(k + 1, eps), phi(k + 2, eps)
        assert v0 > v1 > v2 > 0

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_convex_at_integers(self, k):
        # The second difference is ~2*phi(k)/k^2, which stays clear of float
        # rounding noise (~1e-16 * phi) only for k up to about 1e6.
        eps = 1.0
        v0, v1, v2 = phi(k, eps), phi(k + 1, eps), phi(k + 2, eps)
        assert v0 + v2 >= 2 * v1

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_pgf_stays_in_range(self, z):
        params = calibrate(0.5, 1.0)
        g = pgf_B(params, z)
        assert 1.0 - params.theta - 1e-12 <= g <= 1.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_survival_series_stays_in_range(self, p):
        params = calibrate(0.5, 1.0)
        series = _offspring_survival_series(params, p)
        assert 1.0 - 1e-12 <= series <= params.series_const + 1e-12

    @given(st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_vectorization_matches_scalars(self, ks):
        arr = np.array(ks)
        assert np.array_equal(survival_A(arr), np.array([survival_A(k) for k in ks]))
        assert np.array_equal(pmf_A(arr), np.array([pmf_A(k) for k in ks]))
