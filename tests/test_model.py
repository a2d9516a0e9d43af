"""Model layer: calibration, the two laws, pgf, and extinction table.

Golden values were computed independently with mpmath at 50 digits
(series constant via Euler-Maclaurin at two summation points, extinction
probabilities via direct high-precision series evaluation) and frozen here.
"""

import hashlib
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bigjump import model
from bigjump.model import (
    _PGF_HEAD_TERMS,
    ExtinctionTable,
    LawA,
    _offspring_survival_series,
    _phi_integral,
    _survival_series_tail,
    calibrate,
    depth_remainder_bound,
    extinction_table,
    law_B,
    offspring_mean_bracket,
    pgf_B,
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
        # Direct summation just below the switch, asymptotic just above:
        # the increment between consecutive integers must match 1/(n+1).
        t = float(1 << 20)
        below = truncated_mean_A(t - 1.0)
        above = truncated_mean_A(t)
        assert above - below == pytest.approx(1.0 / (t + 1.0), abs=1e-12)

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

    def test_rejects_out_of_range(self, params):
        with pytest.raises(ValueError):
            pgf_B(params, -0.1)
        with pytest.raises(ValueError):
            pgf_B(params, 1.1)


class TestExtinctionTable:
    def test_first_generation(self, params):
        table = extinction_table(params, 5)
        assert table.p[1] == params.theta
        assert table.q[1] == 1.0 - params.theta

    def test_goldens(self, params):
        table = extinction_table(params, 5)
        assert table.p[2] == pytest.approx(GOLDEN_P2, abs=5e-15)
        assert table.p[3] == pytest.approx(GOLDEN_P3, abs=5e-15)

    def test_monotone_and_mean_bound(self, params):
        table = extinction_table(params, 60)
        # q is non-decreasing; it saturates at exactly 1.0 in floating point
        # once p drops below ~5e-17, so strict growth is asserted on p.
        assert np.all(np.diff(table.q) >= 0)
        assert np.all(np.diff(table.p) < 0)
        n = np.arange(0, 61)
        assert np.all(table.p <= params.b**n * (1.0 + 1e-12))

    def test_root_generation(self, params):
        table = extinction_table(params, 1)
        assert table.p[0] == 1.0
        assert table.q[0] == 0.0
        assert table.p.size == table.q.size == 2

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
            assert table.p.size == n_max + 1
        np.testing.assert_array_equal(table.p, full.p)
        np.testing.assert_array_equal(table.q, full.q)
        # A shallower read of the grown table is its head.
        np.testing.assert_array_equal(extinction_table(params, 5).p, full.p[:6])

    @pytest.mark.parametrize(
        "b, epsilon, n_max, digest",
        [
            (0.5, 1.0, 300, "ccd70d6f27fd1e9c6384825ce4153ddf"),
            (0.5, 176.0, 400, "7700b022efbce75b717e2c024feb5a60"),
            (0.01, 176.0, 400, "5ff50b1e428f17a6e61a919caa4a8429"),
        ],
    )
    def test_bits_frozen_without_warnings(self, b, epsilon, n_max, digest):
        # md5 of the p then q bytes, as the table read before it was shared
        # and before the pgf tail's overflowing nodes were silenced: at
        # epsilon = 176 the integrand's denominator overflowed with 677 (b =
        # 0.5) and 305 (b = 0.01) RuntimeWarnings, at nodes that read 0
        # either way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = extinction_table(calibrate(b, epsilon), n_max)
        assert hashlib.md5(table.p.tobytes() + table.q.tobytes()).hexdigest() == digest

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
            n = table.p.size
            np.testing.assert_array_equal(table.p, serial.p[:n])
            np.testing.assert_array_equal(table.q, serial.q[:n])

    def test_type_roundtrip(self, params):
        table = extinction_table(params, 3)
        assert isinstance(table, ExtinctionTable)
        assert np.allclose(table.p + table.q, 1.0, rtol=0, atol=1e-15)


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
        terms = _contribution(extinction_table(params, 700).p)
        for depth in range(1, 301):
            exact = math.fsum(terms[depth + 1 : depth + 401].tolist())
            assert depth_remainder_bound(params, depth) >= exact, depth

    def test_within_reach_of_the_exact_sum(self, params):
        # At the default model's stopping depths (36 at cutoff 2**16, 40
        # for the cluster sampler) the closed form is 1.03x the sum it
        # bounds; the mean bound b**n read 20x.
        terms = _contribution(extinction_table(params, 440).p)
        for depth in (36, 40):
            exact = math.fsum(terms[depth + 1 :].tolist())
            assert depth_remainder_bound(params, depth) <= 1.1 * exact

    def test_underflowed_survival_is_floored(self):
        # p_n underflows to 0 at b = 0.2 long before generation 600; the
        # bound then reads the smallest normal float, still positive.
        params = calibrate(0.2, 1.0)
        assert extinction_table(params, 600).p[600] == 0.0
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
