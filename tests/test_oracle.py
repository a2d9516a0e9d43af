"""Tests for the truncated-pmf arithmetic and its sound survival brackets.

`DiracLaw`, `tail_additivity_check` and the reference generation term
(`thinned_immigrant_count` compounded by `reference_term`) live here, not in
the package: only these tests use them.
"""

from __future__ import annotations

import collections
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve, lfilter
from scipy.stats import binom

from bigjump import model, oracle
from bigjump.model import (
    ExtinctionTable,
    LawA,
    calibrate,
    depth_remainder_bound,
    extinction_table,
    law_B,
    pmf_A,
    survival_A,
)
from bigjump.oracle import (
    GeometricLaw,
    NotConverged,
    Pmf,
    _CHAIN_CACHE_SIZE,
    _chain_cache,
    _conv_full,
    _extinct_brood_mass,
    _next_fast_len,
    _spectrum,
    _thinned_offspring_count,
    compound,
    conditional_nonzero,
    conv_tail_ratio,
    convolve,
    dn_pmf,
    generation_term,
    pmf_of,
    random_sum_check,
    stationary_pmf,
)
from bigjump.sampler import RngStream, sample_clusters


class DiracLaw:
    """Unit mass at a fixed nonnegative integer."""

    def __init__(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"value must be >= 0: {value}")
        self.value = int(value)

    def survival(self, k):
        k_arr = np.floor(np.asarray(k, dtype=np.float64))
        out = np.where(k_arr < self.value, 1.0, 0.0)
        return float(out) if out.ndim == 0 else out

    def pmf(self, k):
        k_arr = np.asarray(k, dtype=np.float64)
        out = np.where(k_arr == self.value, 1.0, 0.0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TailAdditivityCheck:
    """Tail of an independent sum versus the sum of individual tails."""

    sum_lo: float
    sum_hi: float
    additive_lo: float
    additive_hi: float
    ratio: float


def tail_additivity_check(terms: Sequence[Pmf], x: float) -> TailAdditivityCheck:
    """Compare P(T_0 + ... + T_k > x) against sum_i P(T_i > x).

    One-big-jump behaviour makes the ratio approach 1 from above for heavy
    tails; the ratio reported is upper-endpoint over upper-endpoint.
    """
    if len(terms) == 0:
        raise ValueError("need at least one term")
    total = terms[0]
    for term in terms[1:]:
        total = convolve(total, term)
    sum_lo, sum_hi = total.survival_bracket(x)
    brackets = [term.survival_bracket(x) for term in terms]
    additive_lo = sum(b[0] for b in brackets)
    additive_hi = sum(b[1] for b in brackets)
    if additive_lo <= 0.0:
        raise ValueError(
            f"tail below truncation resolution at x={x}: "
            "no placed mass above the threshold in any term"
        )
    return TailAdditivityCheck(
        sum_lo=sum_lo,
        sum_hi=sum_hi,
        additive_lo=additive_lo,
        additive_hi=additive_hi,
        ratio=sum_hi / additive_hi,
    )


def thinned_immigrant_count(p: float, cutoff: int) -> Pmf:
    """Law of Binomial(A, p) on {0..cutoff}, A the immigration count.

    The immigration pgf G(s) = 1 + (1-s)ln(1-s)/s composed at
    s = 1 - p(1-z) is a rational-log series whose coefficients satisfy the
    two-term recurrence (1-p) w[k] + p w[k-1] = numerator[k], stable for
    p < 1/2.  The remainder P(count > cutoff) goes to overflow.
    """
    k = np.arange(cutoff + 1, dtype=np.float64)
    numerator = np.empty(cutoff + 1)
    log_p = math.log(p)
    numerator[0] = p * log_p
    numerator[1] = p * (-1.0 - log_p)
    numerator[2:] = p / (k[2:] * (k[2:] - 1.0))
    b0, a1 = 1.0 / (1.0 - p), p / (1.0 - p)
    w = np.empty(cutoff + 1)
    y = 0.0
    for i, x in enumerate(numerator.tolist()):
        y = b0 * x - a1 * y
        w[i] = y
    w[0] += 1.0
    return Pmf(mass=w, overflow=max(1.0 - float(np.sum(w)), 0.0))


def bernoulli_aggregate(p: float, cutoff: int) -> Pmf:
    """Mass 1 - p at 0 and the rest at 1, stored so that 1 - mass[0] is
    exactly mass[1]: the conditional nonzero law is then the point 1, and
    the generation term of this aggregate is Binomial(A, p) itself."""
    mass = np.zeros(cutoff + 1)
    mass[0] = 1.0 - p
    mass[1] = 1.0 - mass[0]
    return Pmf(mass=mass, overflow=0.0)


def reference_term(aggregate: Pmf) -> Pmf:
    """A generation term by the route `generation_term` replaced: the
    thinned immigration count, every count up to the cutoff, compounded
    against the conditional nonzero aggregate."""
    alive = 1.0 - float(aggregate.mass[0])
    count = thinned_immigrant_count(alive, aggregate.cutoff)
    return compound(count, conditional_nonzero(aggregate))


def assert_tails_close(term: Pmf, reference: Pmf, rtol: float) -> None:
    """Placed tail sums at x = 0, 10, 100, N/4 and N/2 within ``rtol``, and
    the overflows within ``rtol`` or 1e-15."""
    n = term.cutoff
    for x in (0, 10, 100, n // 4, n // 2):
        assert term.survival_known(x) == pytest.approx(
            reference.survival_known(x), rel=rtol
        ), x
    assert term.overflow == pytest.approx(reference.overflow, rel=rtol, abs=1e-15)


@pytest.fixture(scope="module")
def pB512(params):
    return pmf_of(law_B(params), 512)


@pytest.fixture(scope="module")
def pB4096(params):
    return pmf_of(law_B(params), 4096)


class TestPmfContainer:
    def test_immigration_truncation_exact(self):
        p = pmf_of(LawA, 3)
        # P(A = k) = 1/k - 1/(k+1) for k >= 1, nothing at zero.
        expected = np.array([0.0, 1 / 2, 1 / 6, 1 / 12])
        np.testing.assert_allclose(p.mass, expected, rtol=0, atol=1e-15)
        assert p.overflow == pytest.approx(1 / 4, abs=1e-15)
        assert p.meta == "LawA@3"

    def test_bracket_contains_exact_tail(self):
        p = pmf_of(LawA, 3)
        lo, hi = p.survival_bracket(1)
        # Placed mass above 1 is 1/6 + 1/12; all unplaced mass is above 3 > 1,
        # so the upper endpoint equals the exact survival 1/2.
        assert lo == pytest.approx(1 / 4, abs=1e-15)
        assert hi == pytest.approx(survival_A(1), abs=1e-15)
        lo3, hi3 = p.survival_bracket(3)
        assert lo3 == 0.0
        assert hi3 == pytest.approx(1 / 4, abs=1e-15)

    def test_survival_floor_on_fractional_threshold(self):
        p = pmf_of(LawA, 50)
        assert p.survival_known(10.5) == p.survival_known(10)

    def test_survival_curve_is_upper_bracket(self):
        p = pmf_of(LawA, 50)
        curve = p.survival_curve()
        for j in (0, 1, 7, 49, 50):
            assert curve[j] == pytest.approx(
                p.survival_bracket(j)[1], abs=1e-15
            )

    def test_offspring_truncation(self, params):
        p = pmf_of(law_B(params), 8)
        assert p.mass[0] == pytest.approx(1.0 - params.theta, abs=1e-15)
        assert p.overflow == pytest.approx(law_B(params).survival(8), abs=1e-15)
        assert p.known_total + p.overflow == pytest.approx(1.0, abs=1e-12)

    def test_conservation_violation_names_meta(self):
        with pytest.raises(ValueError, match="broken-example"):
            Pmf(mass=np.array([0.5, 0.3]), overflow=0.0, meta="broken-example")

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative probability mass"):
            Pmf(mass=np.array([-1e-9, 1.0 + 1e-9]), overflow=0.0)

    def test_tiny_negative_mass_clipped(self):
        p = Pmf(mass=np.array([-1e-13, 1.0]), overflow=1e-13)
        assert p.mass[0] == 0.0

    def test_mass_is_write_locked(self):
        p = pmf_of(LawA, 3)
        with pytest.raises(ValueError):
            p.mass[0] = 0.5

    def test_known_mean_lower_bound(self):
        p = pmf_of(GeometricLaw(0.5), 64)
        true_mean = 1.0  # (1-p)/p at p = 1/2
        assert p.known_mean() <= true_mean + 1e-12
        assert p.known_mean() >= true_mean - 1e-10


class TestConvolve:
    def test_dirac_zero_identity(self, pB512):
        out = convolve(pB512, pmf_of(DiracLaw(0), 512))
        np.testing.assert_array_equal(out.mass, pB512.mass)
        assert out.overflow == pytest.approx(pB512.overflow, abs=1e-15)

    def test_commutative_to_rounding(self):
        # The direct convolution path accumulates in argument order, so
        # equality holds to the last ulp rather than bitwise.
        a = pmf_of(LawA, 40)
        b = pmf_of(GeometricLaw(0.3), 40)
        ab = convolve(a, b)
        ba = convolve(b, a)
        np.testing.assert_allclose(ab.mass, ba.mass, rtol=1e-14, atol=1e-18)
        assert ab.overflow == pytest.approx(ba.overflow, rel=1e-13)

    def test_bernoulli_square(self):
        bern = Pmf(mass=np.array([0.6, 0.4, 0.0, 0.0]), overflow=0.0)
        out = convolve(bern, bern)
        np.testing.assert_allclose(
            out.mass, [0.36, 0.48, 0.16, 0.0], rtol=0, atol=1e-15
        )
        assert out.overflow == 0.0

    def test_spill_moves_to_overflow(self):
        bern = Pmf(mass=np.array([0.6, 0.4]), overflow=0.0)
        out = convolve(bern, bern)
        np.testing.assert_allclose(out.mass, [0.36, 0.48], atol=1e-15)
        assert out.overflow == pytest.approx(0.16, abs=1e-15)

    def test_geometric_pair_closed_form(self):
        g = pmf_of(GeometricLaw(0.5), 40)
        out = convolve(g, g)
        m = np.arange(41, dtype=np.float64)
        # Sum of two geometrics: P(S = m) = (m+1) p^2 (1-p)^m at p = 1/2.
        expected = (m + 1.0) * 0.25 * 0.5**m
        np.testing.assert_allclose(out.mass, expected, rtol=1e-12)
        for x in (0, 5, 20, 39):
            true_surv = 0.5**x * (x + 3.0) / 4.0  # exact pair survival
            lo, hi = out.survival_bracket(x)
            assert lo <= true_surv + 1e-15
            assert true_surv <= hi + 1e-15

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cutoff mismatch"):
            convolve(pmf_of(LawA, 64), pmf_of(LawA, 128))

    def test_fft_kernel_with_reused_spectrum_is_bit_identical(self):
        # Past the direct limit the kernel runs on real FFTs.  `compound`
        # passes the fixed operand's precomputed spectrum; that must change
        # no bit, and the kernel must match scipy's fftconvolve exactly,
        # signed: the series products need the residue below zero.
        rng = np.random.default_rng(5)
        a = rng.random(5000) ** 4
        b = rng.random(5000) ** 4
        plain = _conv_full(a, b)
        np.testing.assert_array_equal(
            _conv_full(a, b, _spectrum(b, a.size)), plain
        )
        np.testing.assert_array_equal(plain, fftconvolve(a, b))
        np.testing.assert_allclose(
            plain, np.convolve(a, b), rtol=1e-9, atol=1e-12
        )
        assert _spectrum(b[:4096], 4096) is None

    def test_next_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len

        rng = np.random.default_rng(11)
        sizes = [
            *range(1, 5000),
            *rng.integers(5000, 1 << 24, size=2000).tolist(),
            32_805,
            131_220,
        ]
        ours = [_next_fast_len(n) for n in sizes]
        assert ours == [next_fast_len(n, True) for n in sizes]


class TestCompound:
    def test_hand_example(self):
        count = Pmf(mass=np.array([0.3, 0.5, 0.2]), overflow=0.0)
        summand = Pmf(mass=np.array([0.6, 0.4, 0.0]), overflow=0.0)
        out = compound(count, summand)
        np.testing.assert_allclose(
            out.mass, [0.672, 0.296, 0.032], rtol=0, atol=1e-15
        )
        assert out.overflow == pytest.approx(0.0, abs=1e-15)

    def test_unit_summand_identity(self):
        count = pmf_of(LawA, 64)
        out = compound(count, pmf_of(DiracLaw(1), 64))
        np.testing.assert_allclose(out.mass, count.mass, rtol=0, atol=1e-15)
        assert out.overflow == pytest.approx(count.overflow, abs=1e-14)

    def test_dirac_count_gives_convolution_powers(self):
        q = pmf_of(GeometricLaw(0.4), 60)
        power = pmf_of(DiracLaw(0), 60)
        for k in range(1, 9):
            power = convolve(power, q)
            out = compound(pmf_of(DiracLaw(k), 60), q)
            np.testing.assert_allclose(
                out.mass, power.mass, rtol=1e-12, atol=1e-17
            )
            assert out.overflow == pytest.approx(power.overflow, rel=1e-10, abs=1e-15)

    def test_zero_count_is_point_mass_at_zero(self, pB512):
        out = compound(pmf_of(DiracLaw(0), 512), pB512)
        assert out.mass[0] == 1.0
        assert out.known_total == 1.0

    def test_giant_step_blocks_match_direct_fold(self):
        # Support 300 forces multiple blocks through the Horner pass.
        count = pmf_of(GeometricLaw(0.02), 300)
        summand = pmf_of(GeometricLaw(0.5), 300)
        out = compound(count, summand)

        power = np.zeros(301)
        power[0] = 1.0
        acc = count.mass[0] * power
        spill_acc = 0.0
        pow_tot, pow_over = 1.0, 0.0
        s_tot, s_over = summand.known_total, summand.overflow
        for k in range(1, 301):
            full = np.convolve(power, summand.mass)
            spill = float(np.sum(full[301:]))
            pow_over = spill + pow_over * (s_tot + s_over) + s_over * pow_tot
            power = full[:301]
            pow_tot = float(np.sum(power))
            acc = acc + count.mass[k] * power
            spill_acc += float(count.mass[k]) * pow_over
        np.testing.assert_allclose(out.mass, acc, rtol=1e-10, atol=1e-16)
        assert out.overflow == pytest.approx(
            spill_acc + count.overflow, rel=1e-9, abs=1e-14
        )

    def test_cutoff_mismatch_rejected(self, pB512):
        with pytest.raises(ValueError, match="cutoff mismatch"):
            compound(pmf_of(LawA, 64), pB512)


class TestConditionalAndThinnedCount:
    def test_conditional_hand_example(self):
        p = Pmf(mass=np.array([0.5, 0.3, 0.15]), overflow=0.05)
        c = conditional_nonzero(p)
        np.testing.assert_allclose(c.mass, [0.0, 0.6, 0.3], atol=1e-15)
        assert c.overflow == pytest.approx(0.1, abs=1e-12)

    def test_conditional_rejects_point_mass_at_zero(self):
        with pytest.raises(ValueError, match="no mass above zero"):
            conditional_nonzero(Pmf(mass=np.array([1.0, 0.0]), overflow=0.0))

    def test_conditional_deep_generation_survives_drift(self, params):
        # Dividing by a survival near 4e-7 amplifies float drift; the
        # conditional law must still satisfy conservation.
        d = dn_pmf(params, 20, 1024)
        c = conditional_nonzero(d)
        assert c.mass[0] == 0.0
        assert c.known_total + c.overflow == pytest.approx(1.0, abs=1e-12)

    def test_thinned_count_zero_mass_closed_form(self):
        p = 0.3
        out = thinned_immigrant_count(p, 64)
        # G_A(1 - p) = 1 + p ln(p) / (1 - p).
        assert out.mass[0] == pytest.approx(
            1.0 + p * math.log(p) / (1.0 - p), abs=1e-12
        )

    def test_thinned_count_matches_brute_force(self):
        p = 0.3
        out = thinned_immigrant_count(p, 64)
        a = np.arange(1, 20001)
        weights = pmf_A(a)
        ks = np.arange(65)
        table = binom.pmf(ks[None, :], a[:, None], p)
        brute = weights @ table
        np.testing.assert_allclose(out.mass, brute, atol=5e-6)
        assert out.overflow < 0.01

    def test_thinned_offspring_count_matches_brute_force(self, params):
        # beta[m] = sum_{k <= N} b_k P(Binomial(k, p) = m); the count cap
        # (67 here) drops only mass far below the tolerance.
        offspring = pmf_of(law_B(params), 256)
        p = 0.05
        out = _thinned_offspring_count(offspring, p)
        ks = np.arange(257)
        brute = offspring.mass @ binom.pmf(ks[None, :], ks[:, None], p)
        np.testing.assert_allclose(out.mass, brute, rtol=1e-12, atol=1e-25)
        assert out.overflow == pytest.approx(
            1.0 - float(np.sum(brute)), abs=1e-15
        )
        assert out.overflow >= offspring.overflow - 1e-15

    @pytest.mark.parametrize("p", [1e-12, 1e-5, 0.01, 0.2, 0.3, 0.4999])
    @pytest.mark.parametrize("k_max", [1, 2, 3, 64, 4097])
    def test_thinned_count_recurrence_matches_lfilter(self, p, k_max):
        # The term of a Bernoulli(p) aggregate is the thinned immigration
        # count itself; its series coefficients must match the two-term
        # recurrence run by scipy.signal.lfilter (k_max 4097 takes the FFT
        # path, whose residue is absolute, of order 1e-16 of the unit mass).
        aggregate = bernoulli_aggregate(p, k_max + 7)
        out = generation_term(aggregate)
        p = float(aggregate.mass[1])  # P(aggregate > 0) as stored
        k =np.arange(k_max + 1, dtype=np.float64)
        numerator = np.empty(k_max + 1)
        numerator[0] = p * math.log(p)
        numerator[1] = p * (-1.0 - math.log(p))
        numerator[2:] = p / (k[2:] * (k[2:] - 1.0))
        w = lfilter([1.0 / (1.0 - p)], [1.0, p / (1.0 - p)], numerator)
        np.testing.assert_allclose(
            out.mass[1 : k_max + 1], w[1:], rtol=1e-9, atol=1e-14 * p
        )
        assert out.mass[0] == 1.0 + w[0]

    def test_thinned_count_conservation(self):
        out = generation_term(bernoulli_aggregate(0.3, 64))
        assert out.known_total + out.overflow == pytest.approx(1.0, abs=1e-12)
        assert out.overflow < 0.01

    def test_thinned_count_rejects_bad_args(self):
        with pytest.raises(ValueError, match=r"< 0\.5"):
            generation_term(bernoulli_aggregate(0.5, 16))
        with pytest.raises(RuntimeError, match="extinguished"):
            generation_term(bernoulli_aggregate(0.0, 16))


class TestGenerationChain:
    def test_generation_one_is_offspring_law(self, params):
        d1 = dn_pmf(params, 1, 256)
        np.testing.assert_array_equal(
            d1.mass, pmf_of(law_B(params), 256).mass
        )

    def test_zero_mass_matches_extinction_recursion(self, params):
        table = extinction_table(params, 6)
        for n in range(1, 7):
            d = dn_pmf(params, n, 4096)
            assert abs(float(d.mass[0]) - table.q[n]) <= 1e-9 + d.overflow

    def test_generation_two_mean_bracket(self, params):
        d2 = dn_pmf(params, 2, 4096)
        true_mean = params.b**2
        # The placed mean misses exactly the mean mass above the cutoff; the
        # offspring tail puts roughly theta/ln(4096) ~ 0.03 of the mean up
        # there, so 0.05 slack is comfortable yet still two-sided.
        assert d2.known_mean() <= true_mean + 1e-12
        assert d2.known_mean() >= true_mean - 0.05

    @pytest.mark.parametrize("n", [4, 8, 20, 30])
    def test_thinned_generation_matches_offspring_compound(self, params, n):
        # At cutoff 2048 every product is an exact direct convolution, so
        # the thinned chain must reproduce one step of the offspring-count
        # compound plus the dead brood.  Both overflows are differences of
        # numbers near 1e-5, so they agree to absolute float resolution.
        offspring = dn_pmf(params, 1, 2048)
        prev = dn_pmf(params, n - 1, 2048)
        full = compound(offspring, prev)
        dead = _extinct_brood_mass(params, offspring, float(prev.mass[0]))
        mass = full.mass.copy()
        mass[0] += dead
        ref = Pmf(mass=mass, overflow=full.overflow - dead)
        new = dn_pmf(params, n, 2048)
        new_lo = new.survival_curve() - new.overflow
        ref_lo = ref.survival_curve() - ref.overflow
        np.testing.assert_allclose(new_lo, ref_lo, rtol=1e-12, atol=0.0)
        assert new.overflow == pytest.approx(ref.overflow, rel=0.0, abs=1e-15)

    def test_fft_chain_carries_no_residue(self, params, monkeypatch):
        # Cutoff 4096 takes the FFT path; the same chain with every product
        # convolved directly is the reference.  The bound is relative to
        # P(D_n > 0): a full-support count compound leaves FFT residue near
        # 1e-15 absolute, a 1e-3 error where that survival is ~1e-12.
        fft = [dn_pmf(params, n, 4096) for n in range(1, 37)]
        _chain_cache.pop((params, 4096))
        monkeypatch.setattr("bigjump.oracle._DIRECT_CONV_LIMIT", 1 << 13)
        try:
            exact = [dn_pmf(params, n, 4096) for n in range(1, 37)]
        finally:
            _chain_cache.pop((params, 4096), None)
        for a, b in zip(fft, exact):
            lo_fft = a.survival_curve() - a.overflow
            lo_ref = b.survival_curve() - b.overflow
            gap = float(np.max(np.abs(lo_fft - lo_ref)))
            assert gap <= 1e-14 * lo_ref[0], (a.meta, gap, lo_ref[0])

    def test_one_extinction_table_serves_chains_and_sampler(
        self, params, monkeypatch
    ):
        # Chains at two cutoffs and a depth-40 cluster batch read one table:
        # each generation's pgf is evaluated once, by the table's growth.
        # (`_extinct_brood_mass` evaluates the pgf at the chain's own zero
        # masses; those calls are not the table's.)
        real_series = model._offspring_survival_series
        callers = collections.Counter()

        def counted(params, p):
            callers[sys._getframe(1).f_code.co_name] += 1
            return real_series(params, p)

        monkeypatch.setattr(model, "_offspring_survival_series", counted)
        model._survival_rows.cache_clear()
        for cutoff in (256, 512):
            _chain_cache.pop((params, cutoff), None)
            dn_pmf(params, 12, cutoff)
        sample_clusters(params, 40, 100, RngStream(seed=3))
        assert callers["extinction_table"] == 40
        assert callers["pgf_B"] > 0

    def test_a_zero_mass_off_the_table_is_refused_and_not_cached(
        self, params, monkeypatch
    ):
        real_table = oracle.extinction_table

        def shifted(params, n_max):
            table = real_table(params, n_max)
            return ExtinctionTable(q=table.q - 0.5, p=table.p + 0.5)

        _chain_cache.pop((params, 128), None)
        dn_pmf(params, 2, 128)
        monkeypatch.setattr(oracle, "extinction_table", shifted)
        with pytest.raises(RuntimeError, match="generation 3 extinction mass off by"):
            dn_pmf(params, 3, 128)
        assert len(_chain_cache[(params, 128)]) == 2
        _chain_cache.pop((params, 128))

    def test_chain_cache_keeps_most_recent(self, params):
        cutoffs = [64 + i for i in range(_CHAIN_CACHE_SIZE + 1)]
        for cutoff in cutoffs:
            dn_pmf(params, 2, cutoff)
        keys = list(_chain_cache)
        assert len(keys) == _CHAIN_CACHE_SIZE
        assert (params, cutoffs[0]) not in _chain_cache
        assert keys[-1] == (params, cutoffs[-1])
        dn_pmf(params, 2, cutoffs[1])
        assert list(_chain_cache)[-1] == (params, cutoffs[1])

    def test_rejects_generation_zero(self, params):
        with pytest.raises(ValueError, match="generation index"):
            dn_pmf(params, 0, 64)

    def test_deep_generation_overflow_decays(self, params):
        # The extinct portion of above-cutoff offspring counts must return
        # to the zero bin; otherwise deep-generation overflow stalls at the
        # offspring tail mass instead of decaying with survival.
        d25 = dn_pmf(params, 25, 1024)
        assert d25.overflow < 1e-8
        d35 = dn_pmf(params, 35, 1024)
        assert d35.overflow < 1e-10
        assert d35.overflow < d25.overflow

    def test_generation_term_zero_mass(self, params):
        term = generation_term(dn_pmf(params, 1, 512))
        alive = 1.0 - float(dn_pmf(params, 1, 512).mass[0])
        expected_zero = 1.0 + alive * math.log(alive) / (1.0 - alive)
        assert term.mass[0] == pytest.approx(expected_zero, abs=1e-10)
        assert term.known_total + term.overflow == pytest.approx(1.0, abs=1e-9)

    def test_generation_term_deep_is_near_degenerate(self, params):
        # Far beyond float survival resolution the contribution collapses
        # onto zero but must still construct a conservative, conserving law.
        term = generation_term(dn_pmf(params, 55, 256))
        assert term.mass[0] >= 1.0 - 1e-12
        assert term.known_total + term.overflow == pytest.approx(
            1.0, abs=1e-9
        )

    @pytest.mark.parametrize("cutoff", [512, 4096])
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 36])
    def test_generation_term_matches_thinned_count_reference(
        self, params, cutoff, n
    ):
        aggregate = dn_pmf(params, n, cutoff)
        assert_tails_close(
            generation_term(aggregate), reference_term(aggregate), rtol=1e-9
        )

    def test_generation_term_series_fft_path(self, params, monkeypatch):
        # At 512 the series products are direct; with the direct limit at 64
        # they go through the FFT and must agree with the direct ones.
        aggregate = dn_pmf(params, 5, 512)
        direct = generation_term(aggregate)
        monkeypatch.setattr(oracle, "_DIRECT_CONV_LIMIT", 64)
        assert oracle._fft_length(513, 513)
        assert_tails_close(generation_term(aggregate), direct, rtol=1e-9)

    def test_generation_term_near_the_theta_limit(self):
        # b = 0.7, epsilon = 2 calibrates to theta = 0.4575, so generation
        # 1's term divides by 1 + r C with r = 0.843.
        params = calibrate(0.7, 2.0, tolerance=1e-10)
        assert 0.45 < params.theta < 0.5
        aggregate = dn_pmf(params, 1, 512)
        assert_tails_close(
            generation_term(aggregate), reference_term(aggregate), rtol=1e-9
        )

    @pytest.mark.parametrize("zero_mass", [0.5, 0.2, 0.0])
    def test_generation_term_refuses_p_at_least_half(self, zero_mass):
        aggregate = Pmf(mass=np.array([zero_mass, 1.0 - zero_mass]), overflow=0.0)
        with pytest.raises(ValueError, match=r"< 0\.5"):
            generation_term(aggregate)


class TestStationary:
    def test_matches_manual_generation_fold(self, params):
        st_pmf = stationary_pmf(params, 512, tol=1e-11)
        depth = int(re.search(r"depth=(\d+)", st_pmf.meta).group(1))
        manual = pmf_of(LawA, 512, meta="LawA@512")
        for n in range(1, depth + 1):
            manual = convolve(manual, generation_term(dn_pmf(params, n, 512)))
        _assert_remainder_folded(st_pmf, manual, params, depth)

    def test_dominates_immigration_tail(self, params):
        st_pmf = stationary_pmf(params, 512, tol=1e-11)
        base = pmf_of(LawA, 512)
        for x in (0, 10, 100):
            assert st_pmf.survival_known(x) >= 0.99 * base.survival_known(x)

    def test_fixed_point_brackets_overlap(self, params):
        # The stationary law must be consistent with one more step of
        # immigration + compound-offspring: both sides bracket the same law.
        st_pmf = stationary_pmf(params, 1024, tol=1e-11)
        rhs = convolve(
            pmf_of(LawA, 1024),
            compound(st_pmf, pmf_of(law_B(params), 1024)),
        )
        st_hi = st_pmf.survival_curve()
        st_lo = st_hi - st_pmf.overflow
        rhs_hi = rhs.survival_curve()
        rhs_lo = rhs_hi - rhs.overflow
        assert float(np.max(rhs_lo - st_hi)) <= 1e-12
        assert float(np.max(st_lo - rhs_hi)) <= 1e-12
        # The fresh step pays one extra immigration truncation (~1e-3 at
        # this cutoff); the known curves agree to that budget.
        assert float(np.max(np.abs(rhs_lo - st_lo))) < 2e-3

    @pytest.mark.parametrize("cutoff", [512, 4096])
    def test_masses_stay_below_a_deeper_fold(self, params, cutoff):
        # A >= 1, so X = 1 only when every generation past the fold adds 0:
        # P(X = 1) <= P(X_{d+5} = 1), which the deeper fold places to a few
        # ulps.  The remainder has to come off the placed masses to respect it.
        st_pmf = stationary_pmf(params, cutoff)
        deeper = _serial_fold(params, cutoff, _depth(st_pmf) + 5)
        assert st_pmf.mass[1] <= deeper.mass[1]

    def test_meta_records_depth_and_gap(self, params):
        st_pmf = stationary_pmf(params, 512, tol=1e-11)
        assert st_pmf.meta.startswith("stationary@512(depth=")
        assert "gap=" in st_pmf.meta

    def test_deterministic_across_cache_resets(self, params):
        first = stationary_pmf(params, 256, tol=1e-11)
        _chain_cache.clear()
        second = stationary_pmf(params, 256, tol=1e-11)
        assert np.array_equal(first.mass, second.mass)
        assert first.overflow == second.overflow

    def test_rejects_bad_args(self, params):
        with pytest.raises(ValueError, match="tol"):
            stationary_pmf(params, 64, tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            stationary_pmf(params, 64, max_iter=0)

    def test_unreachable_tolerance_raises(self, params):
        with pytest.raises(RuntimeError, match="did not converge"):
            stationary_pmf(params, 64, tol=1e-30, max_iter=2)


def _depth(law: Pmf) -> int:
    return int(re.search(r"depth=(\d+)", law.meta).group(1))


def _generation(law: Pmf) -> int:
    """n of a generation law D_n, from its ``gen<n>@<cutoff>`` meta."""
    return int(re.match(r"gen(\d+)@", law.meta).group(1))


def _assert_remainder_folded(law: Pmf, fold: Pmf, params, depth: int) -> None:
    """``law`` is ``fold`` with the depth remainder R folded in, bit for bit:
    masses times 1 - R, and R times the placed total added to the overflow,
    with the rounding margin of ``depth`` folded products."""
    remainder = min(depth_remainder_bound(params, depth), 1.0)
    np.testing.assert_array_equal(law.mass, (1.0 - remainder) * fold.mass)
    margin = depth * oracle._FOLD_MARGIN
    assert law.overflow == fold.overflow + remainder * fold.known_total + margin


def _serial_fold(params, cutoff: int, depth: int) -> Pmf:
    """The stationary iteration's fold of its first ``depth`` terms, one
    after another on the calling thread."""
    serial = pmf_of(LawA, cutoff, meta=f"LawA@{cutoff}")
    for n in range(1, depth + 1):
        serial = convolve(serial, generation_term(dn_pmf(params, n, cutoff)))
    return serial


class TestConcurrentStationary:
    def test_bit_identical_to_serial_fold(self, params):
        st_pmf = stationary_pmf(params, 4096)
        depth = _depth(st_pmf)
        _assert_remainder_folded(
            st_pmf, _serial_fold(params, 4096, depth), params, depth
        )

    @pytest.mark.parametrize("failing", ["chain step", "term"])
    def test_errors_past_the_stopping_depth_stay_hidden(
        self, params, monkeypatch, failing
    ):
        reference = stationary_pmf(params, 512)
        depth = _depth(reference)
        real_dn_pmf, real_term = oracle.dn_pmf, oracle.generation_term
        reached = []

        def failing_dn_pmf(p, n, cutoff):
            if failing == "chain step" and n == depth + 1:
                reached.append(n)
                raise RuntimeError(f"chain step {n} past the stopping depth")
            return real_dn_pmf(p, n, cutoff)

        def failing_term(law):
            if failing == "term" and _generation(law) == depth + 1:
                reached.append(_generation(law))
                raise RuntimeError(f"term of {law.meta} past the stopping depth")
            return real_term(law)

        monkeypatch.setattr(oracle, "dn_pmf", failing_dn_pmf)
        monkeypatch.setattr(oracle, "generation_term", failing_term)
        result = stationary_pmf(params, 512)
        # The lookahead reached the failing generation.
        assert reached == [depth + 1]
        np.testing.assert_array_equal(result.mass, reference.mass)
        assert result.overflow == reference.overflow
        assert result.meta == reference.meta

    def test_error_of_a_reached_generation_surfaces(self, params, monkeypatch):
        real_term = oracle.generation_term

        def failing_term(law):
            if _generation(law) == 3:
                raise ArithmeticError("term 3")
            return real_term(law)

        monkeypatch.setattr(oracle, "generation_term", failing_term)
        with pytest.raises(ArithmeticError, match="term 3"):
            stationary_pmf(params, 256)

    def test_refusals_raise_and_leave_no_threads(self, params):
        before = threading.active_count()
        with pytest.raises(NotConverged):
            stationary_pmf(params, 64, tol=1e-30, max_iter=2)
        assert threading.active_count() == before
        # epsilon = 0.1 stops at depth 15 with a remainder of 4.1e-4, which
        # widens the brackets instead of being refused.
        law = stationary_pmf(calibrate(0.5, 0.1), 256)
        assert _depth(law) == 15 and law.overflow > 4.07e-4
        assert threading.active_count() == before

    def test_builds_nothing_past_max_iter(self, params, monkeypatch):
        depth = _depth(stationary_pmf(params, 320))
        real_term = oracle.generation_term
        terms = []

        def counted_term(law):
            terms.append(_generation(law))
            return real_term(law)

        monkeypatch.setattr(oracle, "generation_term", counted_term)
        # Converging on the last allowed iteration, then running out of them.
        _chain_cache.pop((params, 320))
        stationary_pmf(params, 320, max_iter=depth)
        assert max(terms) == depth
        assert len(_chain_cache[(params, 320)]) == depth
        _chain_cache.pop((params, 320))
        terms.clear()
        with pytest.raises(NotConverged):
            stationary_pmf(params, 320, max_iter=3)
        assert max(terms) == 3
        assert len(_chain_cache[(params, 320)]) == 3

    @pytest.mark.parametrize("cores", [1, 4])
    def test_one_term_past_the_stopping_depth(self, params, monkeypatch, cores):
        # The lookahead is one term whatever the core count.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False
        )
        depth = _depth(stationary_pmf(params, 320))
        real_term = oracle.generation_term
        terms = []

        def counted_term(law):
            terms.append(_generation(law))
            return real_term(law)

        monkeypatch.setattr(oracle, "generation_term", counted_term)
        st_pmf = stationary_pmf(params, 320)
        assert max(terms) == depth + 1
        _assert_remainder_folded(
            st_pmf, _serial_fold(params, 320, depth), params, depth
        )


def test_bytes_do_not_depend_on_blas_threads(src_env):
    # At N = 2^14 the extinction dot product and the collapse product are
    # large enough for OpenBLAS to split them over threads, which would
    # change their last bits with the thread count.
    code = (
        "import hashlib\n"
        "from bigjump.model import calibrate\n"
        "from bigjump.oracle import dn_pmf, generation_term\n"
        "law = dn_pmf(calibrate(0.5, 1.0, tolerance=1e-10), 8, 2**14)\n"
        "for p in (law, generation_term(law)):\n"
        "    data = p.mass.tobytes() + repr(p.overflow).encode()\n"
        "    print(hashlib.md5(data).hexdigest())\n"
    )
    digests = set()
    for threads in ("1", "4", None):
        env = dict(src_env)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.add(out.stdout)
    assert len(digests) == 1


class TestTailDiagnostics:
    def test_conv_tail_ratio_geometric_closed_form(self):
        g = pmf_of(GeometricLaw(0.5), 1024)
        out = conv_tail_ratio(g, 60)
        # Exact ratio for the geometric pair: (x + 3) / 2.
        assert out.point == pytest.approx(31.5, rel=1e-9)
        assert out.lo == pytest.approx(31.5, rel=1e-9)
        assert out.hi == pytest.approx(31.5, rel=1e-9)

    def test_conv_tail_ratio_heavy_tail_near_two(self, pB4096):
        out = conv_tail_ratio(pB4096, 256)
        assert 1.5 < out.lo <= out.point <= out.hi < 2.5

    def test_conv_tail_ratio_below_resolution(self):
        with pytest.raises(ValueError, match="below truncation resolution"):
            conv_tail_ratio(pmf_of(DiracLaw(0), 16), 5)
        with pytest.raises(ValueError, match="below truncation resolution"):
            conv_tail_ratio(pmf_of(GeometricLaw(0.5), 16), 16)

    def test_random_sum_unit_count(self, params, pB512):
        out = random_sum_check(DiracLaw(1), pB512, 100)
        lo, hi = pB512.survival_bracket(100)
        assert out.exact_lo == pytest.approx(lo, rel=1e-12)
        assert out.exact_hi == pytest.approx(hi, rel=1e-12)
        assert out.ratio == pytest.approx(1.0, rel=1e-12)

    def test_random_sum_dirac_summand_exact(self):
        # Sum of A copies of the constant 3 exceeds 31 iff A >= 11, and the
        # truncated-mean prediction collapses to P(A > 10) = 1/11 exactly.
        out = random_sum_check(LawA, pmf_of(DiracLaw(3), 4096), 31)
        assert out.prediction == pytest.approx(1 / 11, rel=1e-12)
        assert out.exact_hi == pytest.approx(1 / 11, rel=1e-9)
        assert out.ratio == pytest.approx(1.0, rel=1e-9)

    def test_random_sum_zero_prediction_is_nan(self, pB512):
        out = random_sum_check(DiracLaw(0), pmf_of(DiracLaw(1), 512), 10)
        assert out.prediction == 0.0
        assert math.isnan(out.ratio)

    def test_tail_additivity_single_term(self, pB512):
        out = tail_additivity_check([pB512], 100)
        assert out.ratio == pytest.approx(1.0, rel=1e-12)
        assert out.sum_lo == pytest.approx(out.additive_lo, rel=1e-12)

    def test_tail_additivity_pair_heavy(self, pB4096):
        out = tail_additivity_check([pB4096, pB4096], 512)
        assert 0.9 < out.ratio < 1.15

    def test_tail_additivity_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one term"):
            tail_additivity_check([], 10)


@st.composite
def _pmf_pair(draw):
    size = draw(st.integers(min_value=4, max_value=12))
    masses = []
    for _ in range(2):
        raw = draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=1.0),
                min_size=size,
                max_size=size,
            )
        )
        arr = np.asarray(raw)
        masses.append(arr / arr.sum())
    return masses[0], masses[1]


class TestSoundnessProperties:
    @given(_pmf_pair())
    @settings(max_examples=40, deadline=None)
    def test_convolve_is_exact_without_overflow(self, pair):
        a, b = pair
        n = a.size - 1
        out = convolve(Pmf(mass=a, overflow=0.0), Pmf(mass=b, overflow=0.0))
        full = np.convolve(a, b)
        np.testing.assert_allclose(out.mass, full[: n + 1], atol=1e-14)
        assert out.overflow == pytest.approx(
            float(np.sum(full[n + 1 :])), abs=1e-14
        )
        for x in range(n + 1):
            true_surv = float(np.sum(full[x + 1 :]))
            lo, hi = out.survival_bracket(x)
            assert lo <= true_surv + 1e-12
            assert true_surv <= hi + 1e-12

    @given(_pmf_pair())
    @settings(max_examples=25, deadline=None)
    def test_compound_matches_direct_power_sum(self, pair):
        count_mass, summand_mass = pair
        n = count_mass.size - 1
        out = compound(
            Pmf(mass=count_mass, overflow=0.0),
            Pmf(mass=summand_mass, overflow=0.0),
        )
        power = np.zeros(n + 1)
        power[0] = 1.0
        acc = count_mass[0] * power
        spill = 0.0
        spilled_mass = 0.0
        for k in range(1, n + 1):
            full = np.convolve(power, summand_mass)
            spilled_mass += float(np.sum(full[n + 1 :]))
            power = full[: n + 1]
            acc = acc + count_mass[k] * power
            spill += count_mass[k] * spilled_mass
        np.testing.assert_allclose(out.mass, acc, atol=1e-13)
        assert out.known_total + out.overflow == pytest.approx(1.0, abs=1e-12)
        assert out.overflow == pytest.approx(spill, abs=1e-12)
