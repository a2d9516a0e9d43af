"""Closed-form predictors: identities, two-scale refinement, summability sums.

Golden values computed independently with mpmath at 40 digits and frozen.
`second_scale_series` is the direct-series reference for the closed form and
lives here because only these tests use it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigjump.asymptotics import (
    _TAIL_SUMS_B_MAX,
    a_tail_sums,
    correction_sum,
    decomposition_pred,
    generation_tail_pred,
    leading_tail,
    per_generation_pred,
    prediction_table,
    second_scale,
    second_scale_positivity_threshold,
    series_identities,
    series_partial_sums,
    two_scale_total,
)
from bigjump.model import (
    calibrate,
    law_B,
    slowly_varying_part,
    survival_A,
    truncated_mean_A,
)

GOLDEN_SECOND_SCALE_E12 = 4.010642471002143e-07  # at b=0.5, eps=1, x=e^12
GOLDEN_SS_OVER_LEADING_1E3 = 0.047899205598643161
GOLDEN_PER_GEN_1_10 = 0.056427575419355575
GOLDEN_A_TAIL_EXACT_4 = 0.23116644701511088
GOLDEN_CORRECTION_1E3_X = 0.16976307019858192  # correction_sum(1e3) * 1e3
GOLDEN_DECOMP_OVER_TWOSCALE_1E4 = 1.0200968409134596


def second_scale_series(params, x) -> float:
    """Direct series evaluation of the two-scale coefficient.

    Sums ``n * b^(n-1) * (log x - n*log(1/b))`` until terms fall below
    1e-16, then multiplies by ``L(x)/(1+x)``; agrees with the closed-form
    :func:`second_scale` to 1e-10.
    """
    x = float(x)
    if x <= 1.0:
        raise ValueError("x must be > 1")
    b = params.b
    n_terms = 400
    while n_terms**2 * b ** (n_terms - 1) > 1e-16 and n_terms < (1 << 24):
        n_terms *= 2
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    coeff = float(np.sum(n * b ** (n - 1.0) * (math.log(x) - n * math.log(1.0 / b))))
    return coeff * slowly_varying_part(params, x) / (1.0 + x)


class TestLeadingTail:
    def test_exact_values(self, params):
        assert leading_tail(params, 999) == pytest.approx(0.002, rel=1e-15)

    def test_small_b_limit_matches_immigration_tail(self):
        tiny = calibrate(1e-6, 1.0)
        x = np.array([5.0, 50.0, 500.0])
        assert np.allclose(leading_tail(tiny, x), 1.0 / (1.0 + x), rtol=2e-6)

    def test_formula_value_at_small_x(self):
        steep = calibrate(0.9, 1.0)
        assert leading_tail(steep, 9) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_negative(self, params):
        with pytest.raises(ValueError):
            leading_tail(params, -1.0)


class TestSeriesIdentities:
    def test_closed_forms(self):
        assert series_identities(0.5) == (4.0, 12.0)
        s1, s2 = series_identities(0.2)
        assert s1 == pytest.approx(1.5625, rel=1e-15)
        assert s2 == pytest.approx(2.34375, rel=1e-15)
        s1, s2 = series_identities(0.8)
        assert s1 == pytest.approx(25.0, rel=1e-12)
        assert s2 == pytest.approx(225.0, rel=1e-12)

    def test_partial_sums_match_closed_forms(self):
        for b in (0.2, 0.5, 0.8):
            n1, n2 = series_partial_sums(b)
            assert n1 == pytest.approx(1.0 / (1.0 - b) ** 2, rel=1e-10)
            assert n2 == pytest.approx((1.0 + b) / (1.0 - b) ** 3, rel=1e-10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            series_identities(1.0)
        with pytest.raises(ValueError):
            series_identities(0.0)


class TestSecondScale:
    def test_golden_at_e12(self, params):
        assert second_scale(params, math.exp(12.0)) == pytest.approx(
            GOLDEN_SECOND_SCALE_E12, rel=1e-13
        )

    def test_golden_ratio_to_leading(self, params):
        ratio = second_scale(params, 1e3) / leading_tail(params, 1e3)
        assert ratio == pytest.approx(GOLDEN_SS_OVER_LEADING_1E3, rel=1e-13)
        assert 0.0 < ratio < 0.5

    def test_series_cross_check(self, params):
        for x in (1e2, 1e3, 1e6, 1e10):
            closed = second_scale(params, x)
            direct = second_scale_series(params, x)
            assert direct == pytest.approx(closed, rel=1e-10)

    def test_two_scale_total_is_sum(self, params):
        x = np.array([100.0, 1000.0, 1e6])
        assert np.array_equal(
            two_scale_total(params, x),
            leading_tail(params, x) + second_scale(params, x),
        )

    def test_rejects_x_at_most_one(self, params):
        with pytest.raises(ValueError):
            second_scale(params, 1.0)
        with pytest.raises(ValueError):
            second_scale_series(params, 0.5)

    def test_positivity_threshold(self, params):
        assert second_scale_positivity_threshold(params) == pytest.approx(
            8.0, rel=1e-14
        )
        assert second_scale(params, 7.9) < 0 < second_scale(params, 8.1)

    def test_decay_monotone_on_doubling_grid(self, params):
        # (1+x) * second_scale(x) strictly decreasing over [1e4, ~1e12]
        xs = 1e4 * 2.0 ** np.arange(0, 28)
        vals = second_scale(params, xs) * (1.0 + xs)
        assert np.all(np.diff(vals) < 0)

    def test_ratio_to_leading_vanishes(self, params):
        xs = 1e4 * 2.0 ** np.arange(0, 28)
        ratios = second_scale(params, xs) / leading_tail(params, xs)
        assert np.all(np.diff(ratios) < 0)
        assert ratios[-1] < 0.05


class TestGenerationTailPred:
    def test_first_generation_is_offspring_tail(self, params):
        for x in (10, 100, 2**13):
            assert generation_tail_pred(params, 1, x) == law_B(params).survival(x)

    def test_second_generation_at_half(self, params):
        # 2 * b = 1 at b = 0.5
        assert generation_tail_pred(params, 2, 100) == pytest.approx(
            law_B(params).survival(100), rel=1e-15
        )

    def test_rejects_bad_n(self, params):
        with pytest.raises(ValueError):
            generation_tail_pred(params, 0, 10)


class TestPerGenerationPred:
    def test_golden(self, params):
        assert per_generation_pred(params, 1, 10.0) == pytest.approx(
            GOLDEN_PER_GEN_1_10, rel=1e-13
        )

    def test_structural_decomposition(self, params):
        # the prediction is (truncated mean) * (jump tail) + (batch tail)
        x = 50.0
        expected = truncated_mean_A(2 * x) * law_B(params).survival(x) + survival_A(2 * x)
        assert per_generation_pred(params, 1, x) == pytest.approx(expected, rel=1e-14)

    def test_at_zero_threshold(self, params):
        assert per_generation_pred(params, 3, 0.0) == 1.0

    def test_rejects_bad_args(self, params):
        with pytest.raises(ValueError):
            per_generation_pred(params, 0, 10.0)
        with pytest.raises(ValueError):
            per_generation_pred(params, 1, -1.0)

    def test_finite_past_the_float_range(self, params, params_b02):
        # x*b^-n passes the float range from n = 1011 at x = 1e4, b = 0.5
        # (b**-n alone from n = 1024), and from n = 436 at b = 0.2; the
        # term stays finite and shrinks.
        for p, n_max in ((params, 1100), (params_b02, 500)):
            ns = range(n_max - 200, n_max + 1)
            terms = [per_generation_pred(p, n, 1e4) for n in ns]
            assert all(math.isfinite(t) and t >= 0.0 for t in terms)
            assert all(later <= earlier for earlier, later in zip(terms, terms[1:]))

    def test_log_scale_branch_matches_the_direct_formula(self, params):
        # Past the switch at x*b^-n = exp(690), n = 983 at x = 1e4, the
        # scale is still a finite float, so the direct formula can check
        # the log form.
        n, x = 983, 1e4
        scale = x * 0.5**-n
        assert math.exp(690.0) < scale < math.inf
        direct = truncated_mean_A(scale) * n * 0.5 ** (n - 1) * law_B(params).survival(x)
        direct += survival_A(scale)
        assert per_generation_pred(params, n, x) == pytest.approx(direct, rel=1e-12)

    def test_small_x_where_only_b_power_overflows(self, params):
        # At x = 1e-12, b = 0.5, b**-n alone overflows from n = 1024 while
        # x*b^-n stays below the log switch up to n = 1035; the scale then
        # comes from its log.
        for n in (1023, 1024, 1030, 1036):
            term = per_generation_pred(params, n, 1e-12)
            assert math.isfinite(term) and 0.0 < term < 1.0
        assert math.isfinite(decomposition_pred(params, 1e-12, 1100))


class TestATailSums:
    def test_golden_small_x(self):
        exact, asym = a_tail_sums(0.5, 4.0)
        assert exact == pytest.approx(GOLDEN_A_TAIL_EXACT_4, rel=1e-14)
        assert asym == 0.25  # b/(1-b) = 1 at b = 0.5

    def test_within_two_percent_at_desk_scale(self):
        for b in (0.2, 0.5, 0.8):
            exact, asym = a_tail_sums(b, 1e6)
            assert exact / asym == pytest.approx(1.0, abs=0.02)

    def test_exact_below_asymptote(self):
        # 1/(1+floor(y)) <= 1/y for every y > 0, term by term
        for x in (0.5, 3.0, 17.0, 1e4):
            exact, asym = a_tail_sums(0.5, x)
            assert exact <= asym

    def test_terms_past_the_float_range_count(self):
        # From x = 1e294 on at b = 0.5, x*b^-n overflows inside the sum;
        # those terms take the log form 1/t instead of reading 0.
        exact, asym = a_tail_sums(0.5, 1e300)
        assert exact == pytest.approx(asym, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            a_tail_sums(0.5, 0.0)

    @pytest.mark.parametrize("b", [0.0, -0.5, 1.0, math.nan])
    def test_rejects_b_outside_the_unit_interval(self, b):
        with pytest.raises(ValueError, match="b out of range"):
            a_tail_sums(b, 100.0)

    def test_b_limit(self):
        # At the limit the sum runs its ~7,400 generations; past it, refused.
        exact, asym = a_tail_sums(_TAIL_SUMS_B_MAX, 100.0)
        assert exact / asym == pytest.approx(1.0, abs=0.05)
        with pytest.raises(ValueError, match="above 0.995"):
            a_tail_sums(0.999, 100.0)


class TestCorrectionSum:
    def test_golden(self, params):
        value = correction_sum(params, 1e3) * 1e3
        assert value == pytest.approx(GOLDEN_CORRECTION_1E3_X, rel=1e-13)
        assert value < 1.0

    def test_strictly_decreasing_over_decades(self, params):
        vals = [correction_sum(params, float(10**k)) * 10**k for k in range(3, 7)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_first_term_dominates_from_below(self, params):
        x = 100.0
        first = truncated_mean_A(2 * x) * law_B(params).survival(x)
        assert correction_sum(params, x) >= first

    def test_rejects_small_x(self, params):
        with pytest.raises(ValueError):
            correction_sum(params, 1.0)

    def test_log_scale_past_the_float_range(self, params):
        # From x = 1e300 on, x*b^-n leaves the float range within the sum
        # and every term takes the log form E[A; A <= t] = log t + gamma - 1,
        # whose sum over n is (log x + gamma - 1)*s1 + log(1/b)*s2.
        s1, s2 = series_identities(0.5)
        x = 1e300
        mean = (math.log(x) + np.euler_gamma - 1.0) * s1 + math.log(2.0) * s2
        expected = mean * law_B(params).survival(x)
        assert correction_sum(params, x) == pytest.approx(expected, rel=1e-12)
        # At 1e306 phi's denominator overflows, so P(B > x) reads 0 (its
        # true value, about 1e-312, is subnormal); the sum stays finite.
        with np.errstate(over="ignore"):
            assert math.isfinite(correction_sum(params, 1e306))

    def test_b_limit(self):
        assert correction_sum(calibrate(_TAIL_SUMS_B_MAX, 1.0), 1e6) > 0.0
        with pytest.raises(ValueError, match="above 0.995"):
            correction_sum(calibrate(0.999, 1.0), 1e6)


class TestDecompositionPred:
    def test_agrees_with_two_scale_at_desk_scale(self, params):
        ratio = decomposition_pred(params, 1e4, 80) / two_scale_total(params, 1e4)
        assert ratio == pytest.approx(GOLDEN_DECOMP_OVER_TWOSCALE_1E4, rel=1e-12)
        assert 0.95 <= ratio <= 1.05

    def test_five_percent_band_above_1e4(self, params):
        for x in (1e4, 1e5, 1e6):
            ratio = decomposition_pred(params, x, 80) / two_scale_total(params, x)
            assert abs(ratio - 1.0) <= 0.05

    def test_formula_value_at_zero(self, params):
        assert decomposition_pred(params, 0.0, 6) >= 1.0

    def test_explicit_depth_cap(self, params):
        shallow = decomposition_pred(params, 1e4, n_max=3)
        deep = decomposition_pred(params, 1e4, n_max=80)
        assert shallow < deep
        # Generations past 80, and past the float range of x*b^-n from
        # n = 1011, add nothing visible.
        assert decomposition_pred(params, 1e4, n_max=1100) == deep


class TestPredictionTable:
    def test_builds_and_is_consistent(self, params):
        xs = [10.0, 100.0, 1000.0, 1e4]
        table = prediction_table(params, xs, n_max=4)
        assert np.array_equal(
            table["two_scale_total"], table["leading"] + table["second_scale"]
        )
        exact, asym = a_tail_sums(params.b, 100.0)
        assert table["a_tail_exact"][1] == exact
        assert table["a_tail_asym"][1] == asym
        assert decomposition_pred(params, 1000.0, 4) == table["decomposition"][2]

    def test_all_entries_nonnegative(self, params):
        table = prediction_table(params, [10.0, 1e3, 1e6], n_max=6)
        assert list(table) == [
            "leading",
            "second_scale",
            "two_scale_total",
            "decomposition",
            "a_tail_exact",
            "a_tail_asym",
        ]
        for column in table.values():
            assert column.shape == (3,) and np.all(column >= 0)

    def test_rejects_grid_below_positivity_threshold(self, params):
        with pytest.raises(ValueError, match="positivity threshold"):
            prediction_table(params, [5.0, 100.0], 6)

    def test_rejects_unsorted_grid(self, params):
        with pytest.raises(ValueError, match="strictly increasing"):
            prediction_table(params, [100.0, 10.0], 6)

    def test_rejects_empty_or_bad_nmax(self, params):
        with pytest.raises(ValueError):
            prediction_table(params, [], 6)
        with pytest.raises(ValueError):
            prediction_table(params, [10.0], n_max=0)


class TestProperties:
    @given(st.floats(min_value=10.0, max_value=1e12))
    @settings(max_examples=100, deadline=None)
    def test_exact_a_tail_below_asymptote(self, x):
        exact, asym = a_tail_sums(0.5, x)
        assert 0.0 < exact <= asym

    @given(
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=0.0, max_value=1e9),
    )
    @settings(max_examples=100, deadline=None)
    def test_per_generation_pred_nonnegative(self, n, x):
        params = calibrate(0.5, 1.0)
        assert per_generation_pred(params, n, x) >= 0.0

    @given(st.floats(min_value=0.0, max_value=1e15))
    @settings(max_examples=100, deadline=None)
    def test_leading_tail_decreasing(self, x):
        params = calibrate(0.5, 1.0)
        assert leading_tail(params, x) > leading_tail(params, x + 1.0)
