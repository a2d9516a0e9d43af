"""Empirical tail curves, exact intervals, KS test, attribution shares."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, betaincc
from scipy.stats import beta, ks_2samp

from bigjump import stats
from bigjump.cli import _KS_THIN
from bigjump.model import survival_A
from bigjump.oracle import stationary_pmf
from bigjump.sampler import (
    ChainConfig,
    ClusterBatch,
    RngStream,
    run_chain,
    sample_clusters,
)
from bigjump.stats import (
    attribution_summary,
    clopper_pearson,
    empirical_survival,
    ks_two_sample,
)

# clopper_pearson's grid: every n at every level, and the benchmark's shape
# (1,000 samples at level 1 - 1e-9); each at the counts of `_cp_counts`, as
# integers and as effective counts over tau = 1.7 and 3.1.
_CP_GRID = [
    (n, level)
    for n in (1, 2, 3, 10, 100, 10_000, 1_000_000)
    for level in (0.5, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6)
] + [(1000, 1 - 1e-9)]
_CP_TAUS = (1.0, 1.7, 3.1)


def _cp_counts(n: int, tau: float) -> list:
    """(k / tau, n / tau) for k in {0, 1, 2, n // 3, n // 2, n - 1, n}; none
    when n / tau < 1, which clopper_pearson refuses."""
    if n / tau < 1:
        return []
    counts = sorted(k for k in {0, 1, 2, n // 3, n // 2, n - 1, n} if k <= n)
    return [(k / tau, n / tau) for k in counts]


def _cp_quantiles() -> list:
    """(a, b, p) of every beta quantile that clopper_pearson solves over the grid."""
    quantiles = []
    for n, level in _CP_GRID:
        alpha = 1.0 - level
        for tau in _CP_TAUS:
            for k, m in _cp_counts(n, tau):
                if k > 0:
                    quantiles.append((k, m - k + 1.0, alpha / 2.0))
                if k < m:
                    quantiles.append((k + 1.0, m - k, 1.0 - alpha / 2.0))
    return quantiles


def _refined_beta_ppf(a: float, b: float, p: float) -> float:
    """scipy's ``beta.ppf`` after one Newton step on scipy's incomplete beta
    of the tail that p names (the upper one above 1/2).  ``beta.ppf`` alone is
    off by up to 1e-11 at n = 10^6 and a = 2, 3 (against 45-digit
    arithmetic); the step takes it to the precision of the tail function."""
    x = float(beta.ppf(p, a, b))
    if not 0.0 < x < 1.0:
        return x
    density = float(beta.pdf(x, a, b))
    if p > 0.5:
        return x + (float(betaincc(a, b, x)) - (1.0 - p)) / density
    return x + (p - float(betainc(a, b, x))) / density


def _tail(a: float, b: float, x: float, upper: bool) -> float:
    """1 - I_x(a, b) when ``upper``, else I_x(a, b), at 0 < x <= 1."""
    if x == 1.0:
        return 0.0 if upper else 1.0
    lower, upper_tail, _ = stats._incomplete_beta(a, b, x)
    return upper_tail if upper else lower


# A probability in either tail, log-uniform in the tail's mass on [1e-12, 1/2].
_TAIL_P = st.tuples(st.floats(math.log(1e-12), math.log(0.5)), st.booleans()).map(
    lambda draw: 1.0 - math.exp(draw[0]) if draw[1] else math.exp(draw[0])
)
_SHAPE = st.floats(math.log(0.05), math.log(1e6)).map(math.exp)


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

    @pytest.mark.parametrize("tau", _CP_TAUS)
    @pytest.mark.parametrize("n, level", _CP_GRID)
    def test_matches_beta_ppf(self, n, level, tau):
        # Within 1e-12 relative; over this grid the largest gap is 1e-14.
        alpha = 1.0 - level
        for k, m in _cp_counts(n, tau):
            lo, hi = clopper_pearson(k, m, level)
            if k > 0:
                ref = _refined_beta_ppf(k, m - k + 1.0, alpha / 2)
                assert lo == pytest.approx(ref, rel=1e-12)
            if k < m:
                ref = _refined_beta_ppf(k + 1.0, m - k, 1 - alpha / 2)
                assert hi == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize(
        "a, b, x",
        [
            (0.05, 0.05, 0.3),
            (0.05, 1e6, 1e-100),
            (0.3, 5.0, 0.01),
            (9.0, 2.0, 0.75),
            (23.0, 978.0, 0.005),
            (30.0, 1000.0, 0.01),
            (2.0, 999999.0, 2.69e-6),
            # Past the mean near 1, where x - mean must come from 1 - x.
            (3e5, 0.7, 1 - 1e-6),
            (1e6, 2.0, 1 - 3e-6),
        ],
    )
    def test_incomplete_beta_matches_scipy(self, a, b, x):
        # The smaller tail, from betainc or betaincc; both scipy values are
        # within 2e-14 of 45-digit arithmetic at these points.
        lower, upper, density = stats._incomplete_beta(a, b, x)
        if lower <= upper:
            assert lower == pytest.approx(float(betainc(a, b, x)), rel=1e-13)
        else:
            assert upper == pytest.approx(float(betaincc(a, b, x)), rel=1e-13)
        assert density == pytest.approx(float(beta.pdf(x, a, b)), rel=1e-12)

    def test_each_quantile_costs_at_most_8_incomplete_betas(self, monkeypatch):
        # Stands in for a time budget, which Tier-1 cannot time reliably: one
        # evaluation of I_x costs about 5 us at the benchmark's counts.
        evaluate = stats._incomplete_beta
        calls = []

        def counted(a, b, x):
            calls.append(x)
            return evaluate(a, b, x)

        monkeypatch.setattr(stats, "_incomplete_beta", counted)
        costs = {}
        for a, b, p in _cp_quantiles():
            calls.clear()
            stats._beta_quantile(a, b, p)
            costs[a, b, p] = len(calls)
        assert {q: cost for q, cost in costs.items() if cost > 8} == {}

    @given(_SHAPE, _SHAPE, _TAIL_P, _TAIL_P)
    @settings(max_examples=300, deadline=None)
    def test_beta_quantile_inverts_the_incomplete_beta(self, a, b, p, q):
        p, q = sorted((p, q))
        x = stats._beta_quantile(a, b, p)
        # Monotone in p, wherever the two tails differ beyond rounding.
        if q - p > 1e-9 * min(p, 1.0 - q):
            assert x <= stats._beta_quantile(a, b, q)
        # In (0, 1], and at 1 only when the root lies past the last float below 1.
        upper = p > 0.5
        t = 1.0 - p if upper else p
        below = math.nextafter(x, 0.0)
        assert 0.0 < below < x <= 1.0
        assert x < 1.0 or _tail(a, b, below, upper) >= t
        # Maps back to its smaller tail within 1e-12 relative, or as close as
        # a step of one ulp in x can resolve.
        at_x = _tail(a, b, x, upper)
        ulp_step = max(abs(_tail(a, b, z, upper) - at_x) for z in (below, math.nextafter(x, 1.0)))
        assert abs(at_x - t) <= 1e-12 * t + ulp_step

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


class TestChainKs:
    def test_thinned_chain_misses_at_most_the_stated_rate(self, params):
        # Criterion 7's rule on 300 correct chains of the default model, each
        # read as every _KS_THIN-th of 3,000 states (300 samples) against 300
        # independent depth-40 cluster draws, at alpha = 0.05 (at 0.01 the
        # expected 3 misses resolve no rate).  Measured on seed 7: the
        # thinned rule misses 3 times, the first 300 consecutive states 32
        # times; on seeds 8-10, 5-6 and 25-30.  The law is discrete, so KS
        # is conservative and the thinned rule misses below alpha; the
        # consecutive states' autocorrelation (tau near 3) lifts theirs to
        # about twice alpha.
        chains, size, alpha = 300, 300, 0.05
        clusters = sample_clusters(params, 40, chains * size, RngStream(7, 10**6))
        values = clusters.value.reshape(chains, size)
        misses = {"thinned": 0, "consecutive": 0}
        for i in range(chains):
            run = run_chain(
                params, ChainConfig(_KS_THIN * size, burn_in=1_000), RngStream(7, i)
            )
            for rule, sample in (
                ("thinned", run.samples[::_KS_THIN]),
                ("consecutive", run.samples[:size]),
            ):
                misses[rule] += ks_two_sample(sample, values[i], alpha=alpha)[2]
        assert misses["thinned"] <= alpha * chains, misses
        assert misses["consecutive"] > 1.5 * alpha * chains, misses


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
    @staticmethod
    def _batch(immigration, contrib):
        return ClusterBatch(
            np.array(immigration, dtype=np.int64),
            np.array(contrib, dtype=np.int64),
            remainder_bound=0.0,
        )

    def _winner(self, immigration, contrib, x):
        """The winning component of one exceeding sample, and whether it
        is dominant."""
        summary = attribution_summary(self._batch([immigration], [contrib]), x)
        assert summary.total == 1
        (component,) = np.flatnonzero(summary.counts)
        return int(component), summary.dominant_share == 1.0

    def test_immigration_win_is_dominant(self):
        assert self._winner(150, (30, 20, 0), 100) == (0, True)

    def test_generation_win(self):
        assert self._winner(10, (5, 80, 15), 100) == (2, True)  # 80 > 50

    def test_tie_prefers_lowest_index(self):
        assert self._winner(50, (50, 10), 100)[0] == 0
        assert self._winner(10, (46, 46, 9), 110)[0] == 1

    def test_split_value_is_not_dominant(self):
        assert self._winner(40, (40, 30), 100) == (0, False)  # 40 <= 50

    def test_boundary_is_strict(self):
        assert not self._winner(50, (49, 2), 100)[1]  # exactly half
        assert self._winner(51, (49, 1), 100)[1]
        assert not self._winner(50, (50, 2), 101)[1]  # 50 <= 50.5
        assert self._winner(51, (50, 1), 101)[1]

    def test_only_exceedances_are_counted(self):
        batch = self._batch(
            [40, 200, 7, 1 << 62], [[20, 0], [0, 0], [0, 300], [0, 0]]
        )
        summary = attribution_summary(batch, 100)
        assert summary.counts.tolist() == [2, 0, 1]
        assert summary.total == 3
        assert summary.dominant_share == 1.0
        with pytest.raises(ValueError, match="no samples exceed x="):
            attribution_summary(batch, 1 << 62)

    def test_mixed_components_and_dominance(self):
        # immigration, gen 1 twice, gen 3: gen 2 counts zero.  The second
        # gen-1 win (40) and the gen-3 win (45) are not above x/2 = 50.
        batch = self._batch(
            [150, 0, 30, 30], [[0, 0, 0], [120, 0, 0], [40, 0, 35], [10, 20, 45]]
        )
        summary = attribution_summary(batch, 100)
        assert summary.total == 4
        assert summary.counts.tolist() == [1, 2, 0, 1]
        assert summary.dominant_share == 0.5

    def test_share_of_dominant_exceedances_matches_immigration_tails(self, params):
        # Nearly every exceedance should trace to one oversized immigration
        # batch: either the direct one (survival 1/(1+x)) or the cohort
        # feeding generation n, which needs about x / b**n immigrants.
        x = 100
        clusters = sample_clusters(params, 40, 250_000, RngStream(seed=19))
        summary = attribution_summary(clusters, x)
        assert summary.total == np.count_nonzero(clusters.value > x) > 3000
        scales = x / params.b ** np.arange(1, 41)
        predicted_rate = survival_A(x) + float(np.sum(survival_A(scales)))
        predicted_share = predicted_rate * len(clusters) / summary.total
        assert abs(summary.dominant_share - predicted_share) <= 0.10
