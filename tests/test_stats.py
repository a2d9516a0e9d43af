"""Empirical tail curves, exact intervals, KS test, attribution shares."""

import math

import numpy as np
import pytest
from scipy.stats import beta, ks_2samp

from bigjump.oracle import stationary_pmf
from bigjump.sampler import ChainConfig, RngStream, run_chain
from bigjump.stats import (
    attribution_summary,
    clopper_pearson,
    empirical_survival,
    ks_two_sample,
)


class TestClopperPearson:
    def test_edge_closed_forms(self):
        # k=0: hi solves (1-hi)^n = alpha/2; k=n: lo solves lo^n = alpha/2
        level, n = 0.95, 3
        alpha = 1.0 - level
        lo, hi = clopper_pearson(0, n, level)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - (alpha / 2.0) ** (1.0 / n), rel=1e-12)
        lo, hi = clopper_pearson(n, n, level)
        assert hi == 1.0
        assert lo == pytest.approx((alpha / 2.0) ** (1.0 / n), rel=1e-12)

    def test_interval_properties(self):
        lo, hi = clopper_pearson(3, 10, 0.95)
        assert 0.0 < lo < 0.3 < hi < 1.0
        wide_lo, wide_hi = clopper_pearson(3, 10, 0.99)
        assert wide_lo < lo and hi < wide_hi

    def test_coverage_on_known_law(self):
        # exact intervals must cover the true parameter in >= 95% of
        # seed-fixed Bernoulli(0.3) replications at level 0.95
        rng = np.random.default_rng(20240817)
        n = 40
        ks = rng.binomial(n, 0.3, size=1000)
        interval = {k: clopper_pearson(k, n, 0.95) for k in np.unique(ks)}
        covered = sum(interval[k][0] <= 0.3 <= interval[k][1] for k in ks)
        assert covered / 1000 >= 0.95

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 10_000, 1_000_000])
    def test_matches_beta_ppf_bit_for_bit(self, n, level):
        alpha = 1.0 - level
        for k in {k for k in (0, 1, 2, n // 3, n // 2, n - 1, n) if k <= n}:
            lo, hi = clopper_pearson(k, n, level)
            if k > 0:
                assert lo == float(beta.ppf(alpha / 2, k, n - k + 1))
            if k < n:
                assert hi == float(beta.ppf(1 - alpha / 2, k + 1, n - k))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            clopper_pearson(1, 0, 0.95)
        with pytest.raises(ValueError):
            clopper_pearson(5, 3, 0.95)
        with pytest.raises(ValueError):
            clopper_pearson(1, 3, 1.0)


class TestEmpiricalSurvival:
    def test_all_exceed(self):
        curve = empirical_survival([5, 5, 5], [4.0], level=0.95)
        assert curve.estimate[0] == 1.0
        assert curve.ci_hi[0] == 1.0
        assert curve.ci_lo[0] == pytest.approx(0.025 ** (1.0 / 3.0), rel=1e-12)

    def test_none_exceed(self):
        curve = empirical_survival([1, 2, 3], [10.0], level=0.95)
        assert curve.estimate[0] == 0.0
        assert curve.ci_lo[0] == 0.0
        assert curve.ci_hi[0] == pytest.approx(1.0 - 0.025 ** (1.0 / 3.0), rel=1e-12)

    def test_strict_exceedance_semantics(self):
        curve = empirical_survival([1.0, 2.0, 3.0], [2.0])
        assert curve.count_exceed[0] == 1  # ties at the threshold do not count

    def test_known_law_sanity(self):
        rng = np.random.default_rng(7)
        draws = rng.integers(0, 10, size=1_000_000)
        curve = empirical_survival(draws, [4.0], level=0.99)
        assert curve.ci_lo[0] <= 0.5 <= curve.ci_hi[0]
        assert curve.estimate[0] == pytest.approx(0.5, abs=0.005)

    def test_counts_non_increasing(self):
        rng = np.random.default_rng(11)
        samples = rng.exponential(size=500)
        curve = empirical_survival(samples, np.linspace(0.0, 5.0, 20))
        assert np.all(np.diff(curve.count_exceed) <= 0)
        assert np.all(curve.ci_lo <= curve.estimate)
        assert np.all(curve.estimate <= curve.ci_hi)

    def test_partial_count_merge_is_additive(self):
        # counting exceedances over a concatenation equals the sum of the
        # per-chunk counts, so parallel partial aggregation is safe
        rng = np.random.default_rng(13)
        a, b = rng.exponential(size=300), rng.exponential(size=200)
        grid = [0.5, 1.0, 2.0]
        merged = empirical_survival(np.concatenate([a, b]), grid)
        parts = [empirical_survival(chunk, grid) for chunk in (a, b)]
        assert np.array_equal(
            merged.count_exceed, parts[0].count_exceed + parts[1].count_exceed
        )

    def test_rejects_empty_and_unsorted(self):
        with pytest.raises(ValueError, match="empty sample set"):
            empirical_survival([], [1.0])
        with pytest.raises(ValueError, match="sorted"):
            empirical_survival([1, 2], [2.0, 1.0])
        with pytest.raises(ValueError, match="empty threshold grid"):
            empirical_survival([1, 2], [])


class TestChainSurvival:
    def test_independent_samples_keep_the_plain_interval(self):
        rng = np.random.default_rng(17)
        draws = rng.integers(0, 10, size=10_000)
        plain = empirical_survival(draws, [4.0, 8.0], level=0.99)
        chain = empirical_survival(draws, [4.0, 8.0], level=0.99, chain=True)
        assert np.all(plain.tau == 1.0)
        assert np.all(chain.tau >= 1.0) and np.all(chain.tau < 1.2)

    def test_repeated_draws_count_once(self):
        # Each draw held for 4 steps: the autocorrelation time is 4, and the
        # interval is about that of the draws counted once.
        rng = np.random.default_rng(19)
        draws = rng.integers(0, 10, size=40_000)
        once = empirical_survival(draws, [4.0], level=0.99)
        held = empirical_survival(np.repeat(draws, 4), [4.0], level=0.99, chain=True)
        assert held.tau[0] == pytest.approx(4.0, rel=0.1)
        width = once.ci_hi[0] - once.ci_lo[0]
        assert held.ci_hi[0] - held.ci_lo[0] == pytest.approx(width, rel=0.05)

    def test_correct_chain_misses_at_the_stated_rate(self, params):
        # 200 chains of the default model, 1e4 samples each, at level 0.8:
        # each x's interval should miss the oracle bracket in about 20% of
        # them (40, sd 5.7).  Plain Clopper-Pearson intervals, which treat
        # the chain's samples as independent, miss in about 45%.
        pi = stationary_pmf(params, 2**14)
        xs = (10, 100)
        brackets = [pi.survival_bracket(x) for x in xs]
        misses = {True: [0, 0], False: [0, 0]}
        for stream_id in range(200):
            run = run_chain(
                params, ChainConfig(10_000, burn_in=1_000), RngStream(7, stream_id)
            )
            for chain in (True, False):
                curve = empirical_survival(run.samples, xs, level=0.8, chain=chain)
                for i, (lo, hi) in enumerate(brackets):
                    missed = curve.ci_hi[i] < lo or curve.ci_lo[i] > hi
                    misses[chain][i] += missed
        assert all(20 <= m <= 60 for m in misses[True]), misses
        assert all(m > 60 for m in misses[False]), misses


class TestKsTwoSample:
    def test_identical_samples(self):
        a = np.arange(100.0)
        stat, critical, reject = ks_two_sample(a, a.copy())
        assert stat == 0.0
        assert not reject

    def test_disjoint_supports(self):
        stat, _, reject = ks_two_sample([0.0] * 50, [1.0] * 50)
        assert stat == 1.0
        assert reject

    def test_critical_value_formula(self):
        m = n = 10**5
        _, critical, _ = ks_two_sample(np.zeros(m), np.zeros(n), alpha=0.01)
        c = math.sqrt(-math.log(0.005) / 2.0)
        assert c == pytest.approx(1.6276, abs=5e-5)
        assert critical == pytest.approx(c * math.sqrt(2.0 / 10**5), rel=1e-12)

    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=403)
        b = rng.normal(0.1, size=517)
        stat, _, _ = ks_two_sample(a, b)
        assert stat == pytest.approx(ks_2samp(a, b).statistic, rel=1e-12)

    def test_same_law_accepts_shifted_law_rejects(self):
        rng = np.random.default_rng(29)
        a = rng.uniform(size=3000)
        b = rng.uniform(size=3000)
        _, _, reject = ks_two_sample(a, b, alpha=0.01)
        assert not reject
        _, _, reject = ks_two_sample(a, b + 0.2, alpha=0.01)
        assert reject

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            ks_two_sample([], [1.0])


class TestAttributionSummary:
    def test_single_component(self):
        summary = attribution_summary(np.zeros(5, dtype=np.int64), np.ones(5, bool))
        assert summary.counts.tolist() == [5]
        assert summary.total == 5
        assert summary.dominant_share == 1.0

    def test_mixed_components_and_dominance(self):
        # immigration, gen 1 twice, gen 3: gen 2 counts zero.
        summary = attribution_summary(
            np.array([0, 1, 1, 3]), np.array([True, True, False, False])
        )
        assert summary.total == 4
        assert summary.counts.tolist() == [1, 2, 0, 1]
        assert summary.dominant_share == 0.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no attributions"):
            attribution_summary(np.zeros(0, dtype=np.int64), np.zeros(0, bool))
