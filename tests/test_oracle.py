"""Tests for the truncated-pmf arithmetic and its sound survival brackets.

`DiracLaw`, `GeometricLaw`, `tail_additivity_check` and the reference
generation term (`thinned_immigrant_count` compounded by `reference_term`)
live here, not in the package: only these tests use them.
"""

from __future__ import annotations

import collections
import math
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve, lfilter
from scipy.stats import binom

from bigjump import cli, model, oracle
from bigjump._native import one_blas_thread
from bigjump.model import (
    LawA,
    calibrate,
    depth_remainder_bound,
    extinction_table,
    law_B,
    pmf_A,
    survival_A,
)
from bigjump.oracle import (
    NotConverged,
    Pmf,
    _chain_cache,
    _conv_full,
    _next_fast_len,
    _spectrum,
    _thinned_offspring_count,
    compound,
    conditional_nonzero,
    convolve,
    dn_pmf,
    generation_term,
    pmf_of,
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


class GeometricLaw:
    """Geometric law on {0, 1, ...}: light-tailed control for tail tests."""

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"p out of range (0, 1): {p}")
        self.p = p

    def survival(self, k):
        k_arr = np.floor(np.asarray(k, dtype=np.float64))
        out = (1.0 - self.p) ** (k_arr + 1.0)
        return float(out) if out.ndim == 0 else out

    def pmf(self, k):
        k_arr = np.asarray(k, dtype=np.float64)
        out = self.p * (1.0 - self.p) ** k_arr
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


def placed_tail(p: Pmf) -> np.ndarray:
    """Placed mass above x for x = 0..N-1, summed directly."""
    return np.cumsum(p.mass[::-1])[::-1][1:]


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

    @pytest.mark.parametrize(
        "sizes, fshape",
        [
            ((4097, 4097), 8192),
            ((16385, 16385), 32768),
            ((16385, 8192), 24576),
            ((65, 513), 540),
        ],
        ids=["4097x4097", "16385x16385", "16385x8192", "65x513"],
    )
    def test_fft_kernel_corrects_wrapped_top_entries(self, sizes, fshape):
        # The transform length is the smallest 5-smooth one at least the
        # full length less 64, so up to 64 top entries wrap onto the bottom
        # ones: 1 of 8193 at 4097^2, 1 of 32769 at 16385^2 and 37 of 577 at
        # 65 x 513.  The kernel sums them directly and takes them off.
        # 16385 x 8192 has the 5-smooth full length 24576: nothing wraps,
        # and the product is scipy's bit for bit.
        rng = np.random.default_rng(17)
        a, b = (rng.random(size) ** 4 for size in sizes)
        full = a.size + b.size - 1
        assert oracle._fft_length(a.size, b.size, law=False) == fshape
        out = _conv_full(a, b, law=False)
        assert out.size == full
        np.testing.assert_allclose(out, np.convolve(a, b), rtol=1e-9, atol=1e-12)
        if fshape >= full:
            np.testing.assert_array_equal(out, fftconvolve(a, b))
        else:
            assert 1 <= full - fshape <= 64

    @pytest.mark.parametrize("kind", ["term", "log"])
    def test_series_reciprocal_matches_recurrence(self, params, kind):
        # Against 1/f by its recurrence (scipy.signal.lfilter, within 2e-15
        # of a long-double recurrence here), at 2^12 and just past it: 2^12
        # + 1 and 2^12 + 64 end in a step of direct sums, 2^12 + 65 in a
        # middle product of length 4320.  f is generation 1's 1 + r C, as
        # in its term (coefficients of 1/f from 1 down to 5e-11), or 1 - C,
        # as in its logarithm (coefficients 0.5 to 1).  The largest errors
        # measured were 1.2e-16 and 1.3e-13 absolute (1.7e-16 and 2.1e-14
        # before the middle product); asserted within 1e-15 and 1e-12.
        grid = (1 << 12) + 64
        law = dn_pmf(params, 1, grid)
        c, alive = conditional_nonzero(law).mass, 1.0 - float(law.mass[0])
        if kind == "term":
            f, atol = np.concatenate([[1.0], alive / (1.0 - alive) * c[1:]]), 1e-15
        else:
            f, atol = np.concatenate([[1.0], -c[1:]]), 1e-12
        reference = lfilter([1.0], f, np.eye(1, grid + 1)[0])
        power = oracle._series_reciprocal(f, 1 << 12)
        for n in (1 << 12, (1 << 12) + 1, (1 << 12) + 64, (1 << 12) + 65):
            g = oracle._series_reciprocal(f, n)
            assert g.size == n
            np.testing.assert_allclose(g, reference[:n], rtol=0, atol=atol)
            # Newton's steps to 2^12 are the same for every n.
            np.testing.assert_array_equal(g[: 1 << 12], power)


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

    @pytest.mark.parametrize("cutoff", [300, 1 << 14])
    def test_zero_mass_is_the_counts_where_the_summand_has_none(self, cutoff):
        # The chain step reads its in-grid dead broods from compound's zero,
        # so it must be count[0] to the bit: directly at 300, through the
        # FFT products at 2^14; both take several Horner blocks.
        count = pmf_of(GeometricLaw(0.02), cutoff)
        summand = conditional_nonzero(pmf_of(GeometricLaw(0.5), cutoff))
        out = compound(count, summand)
        assert out.mass[0] == count.mass[0]

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


def _compound_products(support, width):
    """Products `compound` takes at a baby-step width: the baby powers
    past the summand itself, then the giant power and one Horner step per
    block below the top one."""
    rows = np.minimum(width, support + 1)
    blocks = support // width
    return np.maximum(rows - 2, 0) + blocks + (blocks > 0)


class TestBlockWidth:
    def test_width_is_the_smallest_product_minimiser(self):
        supports = np.arange(300_001)
        best = np.full(supports.size, np.iinfo(np.int64).max)
        smallest = np.zeros(supports.size, dtype=np.int64)
        for width in range(1, 257):
            products = _compound_products(supports, width)
            fewer = products < best
            best[fewer], smallest[fewer] = products[fewer], width
        widths = np.array([oracle._block_width(k) for k in range(supports.size)])
        np.testing.assert_array_equal(widths, smallest)
        # The rule it replaced: one block below 4, else the power of two at
        # or above isqrt(K), capped at 256.
        old = np.array(
            [k + 1 if k < 4 else min(256, 1 << (math.isqrt(k) - 1).bit_length())
             for k in range(supports.size)]
        )
        assert np.all(best <= _compound_products(supports, old))
        rows, old_rows = np.minimum(widths, supports + 1), np.minimum(old, supports + 1)
        wider = np.nonzero(rows > old_rows)[0]
        assert wider.tolist() == [8, 24, 80, 288, 1088, 4224, 16640]
        np.testing.assert_array_equal(rows[wider], old_rows[wider] + 1)

    # 11, 12 and 13 = 3 * 4 - 1, + 0, + 1 take width 3: a full top block,
    # then one count and two counts in it.  599 = 24 * 25 - 1 takes width
    # 24 and 25 blocks, so the collapse writes one block row past the 24
    # powers; 600 and 601 take width 21 and 29 blocks.
    @pytest.mark.parametrize("support", [11, 12, 13, 599, 600, 601])
    def test_fft_compound_matches_direct_power_sum(self, support, monkeypatch):
        monkeypatch.setattr(oracle, "_DIRECT_CONV_LIMIT", 0)
        monkeypatch.setattr(oracle, "_DIRECT_FLOOR", 2)
        n = support + 8
        assert oracle._fft_length(n + 1, n + 1) > 0
        calls = []
        real_product = oracle._product

        def product(*args):
            calls.append(None)
            return real_product(*args)

        monkeypatch.setattr(oracle, "_product", product)
        count_mass = np.zeros(n + 1)
        count_mass[: support + 1] = 1.0 / (support + 1)
        summand = pmf_of(GeometricLaw(0.4), n)
        out = compound(Pmf(mass=count_mass, overflow=0.0), summand)
        width = oracle._block_width(support)
        assert len(calls) == _compound_products(support, width)

        power = np.eye(1, n + 1)[0]
        acc = count_mass[0] * power
        pow_over, spill = 0.0, 0.0
        for k in range(1, support + 1):
            full = np.convolve(power, summand.mass)
            pow_over = (
                float(np.sum(full[n + 1 :]))
                + pow_over * (summand.known_total + summand.overflow)
                + summand.overflow * float(np.sum(power))
            )
            power = full[: n + 1]
            acc += count_mass[k] * power
            spill += count_mass[k] * pow_over
        np.testing.assert_allclose(out.mass, acc, rtol=1e-10, atol=1e-16)
        # The placed masses stay below the law's (to FFT residue).
        assert np.all(out.mass <= acc + 1e-16)
        assert out.overflow == pytest.approx(spill, rel=1e-10, abs=1e-15)
        assert out.known_total + out.overflow == pytest.approx(1.0, abs=1e-12)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


class TestInPlaceCollapse:
    @pytest.mark.parametrize("cutoff", [256, 4096, 1 << 14])
    def test_chain_collapses_keep_the_one_shot_bits(self, params, cutoff, monkeypatch):
        # Every collapse of a cold solve, the generation terms' included,
        # against coeff @ powers in one product.  At 2^14 the shapes
        # (n_blocks, rows, columns) run from (1, 3, 16385) to D_2's
        # (70, 62, 16385); slabs of 256 or 512 columns, whatever their
        # work, missed the one-shot bits at (45, 35, 16385) and (26, 26,
        # 16385), in OpenBLAS's small-matrix kernel.
        real = oracle._collapse_in_place
        shapes, missed = [], []

        def collapse(coeff, table):
            n_blocks, rows = coeff.shape
            with one_blas_thread():
                expected = coeff @ table[:rows]
            real(coeff, table)
            shapes.append((n_blocks, rows, table.shape[1]))
            if not np.array_equal(_bits(table[:n_blocks]), _bits(expected)):
                missed.append(shapes[-1])

        monkeypatch.setattr(oracle, "_collapse_in_place", collapse)
        _chain_cache.cache_clear()
        stationary_pmf(params, cutoff)
        assert len(shapes) > 30
        assert missed == []
        if cutoff == 1 << 14:
            assert (70, 62, cutoff + 1) in shapes

    @pytest.mark.parametrize(
        "n_blocks, rows, columns",
        [(70, 62, 3 * 256 + 1), (45, 35, 2 * 768 + 1), (20, 10, 2 * 5376 + 1),
         (139, 118, 16 * 256 + 1)],
    )
    def test_slabs_keep_the_one_shot_bits(self, n_blocks, rows, columns):
        # Each table is one column past whole slabs (256, 768, 5376 and 256
        # columns wide here): numpy would take a one-column slab as a
        # matrix-vector product, with other rounding.  D_2's shape at 2^16,
        # (139, 118), needs only 64 columns for 2^20 multiply-adds and 118
        # for 4 rows; slabs of 128 columns missed the one-shot bits there.
        rng = np.random.default_rng(31)
        table = np.zeros((max(n_blocks, rows), columns))
        table[:rows] = rng.random((rows, columns)) * np.exp(-40.0 * rng.random((rows, columns)))
        coeff = rng.random((n_blocks, rows)) * np.exp(-20.0 * rng.random((n_blocks, rows)))
        with one_blas_thread():
            expected = coeff @ table[:rows]
        oracle._collapse_in_place(coeff, table)
        np.testing.assert_array_equal(_bits(table[:n_blocks]), _bits(expected))

    @pytest.mark.parametrize("support", [0, 1, 2, 13])
    def test_mass_owns_its_memory(self, support):
        # Supports 0..2 take one block: a view of the table would keep all
        # of it alive in the chain cache.
        n = 64
        count_mass = np.zeros(n + 1)
        count_mass[: support + 1] = 1.0 / (support + 1)
        out = compound(Pmf(mass=count_mass, overflow=0.0), pmf_of(GeometricLaw(0.4), n))
        assert out.mass.base is None

    def test_cold_second_generation_at_2_14_stays_below_96_rows(self, params):
        # compound's one table for D_2 holds max(62 powers, 70 blocks) = 70
        # rows of 2^14 + 1 doubles, and the rest of the step about 19 more:
        # the traced peak reads 88.7 rows.  The 62 powers beside a 24-row
        # block chunk, collapsed into fresh memory, read 104.7.
        _chain_cache.cache_clear()
        tracemalloc.start()
        try:
            dn_pmf(params, 2, 1 << 14)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 96 * ((1 << 14) + 1) * 8


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

    @pytest.mark.parametrize("cutoff, p", [(256, 0.05), (3000, "theta")])
    def test_thinned_offspring_count_matches_brute_force(self, params, cutoff, p):
        # beta[m] = sum_{k <= N} b_k P(Binomial(k, p) = m); the count cap
        # (66 and 1002 here) drops only mass far below the tolerance.  At
        # 3000, p = theta makes q**N underflow to zero, where a recurrence
        # from b_k q**k loses every count.
        offspring = pmf_of(law_B(params), cutoff)
        p = params.theta if p == "theta" else p
        if cutoff == 3000:
            assert (1.0 - p) ** cutoff == 0.0
        out = _thinned_offspring_count(offspring, p)
        ks = np.arange(cutoff + 1)
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
        with pytest.raises(RuntimeError, match="extinguished"):
            generation_term(bernoulli_aggregate(0.0, 16))

    def test_thinned_count_at_p_one_is_the_immigration_count(self):
        # With every copy equal to 1 the sum is A itself: the compound route
        # places P(A = k) for k <= 64 and leaves P(A > 64) = 1/65 unplaced.
        out = generation_term(bernoulli_aggregate(1.0, 64))
        immigration = pmf_of(LawA, 64)
        np.testing.assert_array_equal(out.mass, immigration.mass)
        assert out.overflow == immigration.overflow == 1 / 65


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
            assert abs(float(d.mass[0]) - (1.0 - table[n])) <= 1e-9 + d.overflow

    def test_zero_mass_is_one_less_the_table_survival(self, params):
        # D_n's zero mass is the largest float with 1 - zero >= p_n, p_n
        # from the extinction table: the cap by the step's placed mass
        # binds at none of these generations.
        cutoff = 1 << 14
        table = extinction_table(params, 36)
        for n in range(2, 37):
            zero = float(dn_pmf(params, n, cutoff).mass[0])
            assert 1.0 - zero >= table[n] > 1.0 - math.nextafter(zero, 1.0), n

    def test_generation_two_mean_bracket(self, params):
        d2 = dn_pmf(params, 2, 4096)
        true_mean = params.b**2
        # The placed mean misses exactly the mean mass above the cutoff; the
        # offspring tail puts roughly theta/ln(4096) ~ 0.03 of the mean up
        # there, so 0.05 slack is comfortable yet still two-sided.
        placed_mean = float(np.dot(np.arange(d2.mass.size), d2.mass))
        assert placed_mean <= true_mean + 1e-12
        assert placed_mean >= true_mean - 0.05

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 20, 30])
    def test_thinned_generation_matches_offspring_compound(
        self, params, n, monkeypatch
    ):
        # With every product an exact direct convolution (at cutoff 2048,
        # and at 4096 with the direct limit raised) the thinned chain must
        # place above zero what one step of the offspring-count compound
        # places, and leave unplaced the table's p_n less that placed mass.
        # At 4096, D_2 once compounded the full offspring count, since q**N =
        # 0.763**4096 is far below float range.  The overflows agree to
        # absolute float resolution.  The placed tails are summed directly:
        # read as survival_curve() - overflow they carry a rounding of
        # eps * overflow.
        cutoff = 4096 if n <= 3 else 2048
        if cutoff == 4096:
            _chain_cache.cache_clear()
            monkeypatch.setattr(oracle, "_DIRECT_CONV_LIMIT", 1 << 13)
        try:
            offspring = dn_pmf(params, 1, cutoff)
            prev = dn_pmf(params, n - 1, cutoff)
            full = compound(offspring, prev)
            new = dn_pmf(params, n, cutoff)
        finally:
            if cutoff == 4096:
                _chain_cache.cache_clear()
        np.testing.assert_allclose(
            placed_tail(new), placed_tail(full), rtol=1e-12, atol=0.0
        )
        unplaced = extinction_table(params, n)[n] - math.fsum(full.mass[1:])
        assert new.overflow == pytest.approx(unplaced, rel=0.0, abs=1e-15)

    def test_chain_compounds_only_thinned_counts(self, params, monkeypatch):
        # Every chain step compounds a count of support at most the thinned
        # count's cap pN + 12 sqrt(pNq) + 12, p = P(D_{n-1} > 0), never the
        # full offspring count (16,385 entries at 2^14, which D_2 and D_3
        # once compounded).
        real_compound = oracle.compound
        supports = []

        def recorded(count, summand):
            supports.append(int(np.nonzero(count.mass)[0][-1]))
            return real_compound(count, summand)

        cutoff = 1 << 14
        _chain_cache.cache_clear()
        monkeypatch.setattr(oracle, "compound", recorded)
        try:
            laws = [dn_pmf(params, n, cutoff) for n in range(1, 9)]
        finally:
            _chain_cache.cache_clear()
        assert len(supports) == 7
        for support, prev in zip(supports, laws):
            p = 1.0 - float(prev.mass[0])
            spread = p * cutoff
            cap = spread + 12.0 * math.sqrt(spread * (1.0 - p)) + 12.0
            assert support <= cap, (prev.meta, support, cap)

    @pytest.mark.parametrize("cutoff", [64, 256, 4096, 16384])
    def test_chain_never_places_a_zero_mass_above_one(self, params, cutoff):
        # Past float resolution of P(D_n > 0) the zero mass once rounded to
        # 1 + 2.2e-16 (D_49 at 2^14), and the next step's pgf refused it.  A
        # generation with no mass above zero must still yield the next one,
        # the all-zero law.
        for n in range(1, 71):
            law = dn_pmf(params, n, cutoff)
            assert float(law.mass[0]) <= 1.0, law.meta

    def test_fft_chain_carries_no_residue(self, params, monkeypatch):
        # Cutoff 4096 takes the FFT path; the same chain with every product
        # convolved directly is the reference.  The bound is relative to
        # P(D_n > 0): a full-support count compound leaves FFT residue near
        # 1e-15 absolute, a 1e-3 error where that survival is ~1e-12.
        fft = [dn_pmf(params, n, 4096) for n in range(1, 37)]
        _chain_cache.cache_clear()
        monkeypatch.setattr("bigjump.oracle._DIRECT_CONV_LIMIT", 1 << 13)
        try:
            exact = [dn_pmf(params, n, 4096) for n in range(1, 37)]
        finally:
            _chain_cache.cache_clear()
        for a, b in zip(fft, exact):
            lo_fft = a.survival_curve() - a.overflow
            lo_ref = b.survival_curve() - b.overflow
            gap = float(np.max(np.abs(lo_fft - lo_ref)))
            assert gap <= 1e-14 * lo_ref[0], (a.meta, gap, lo_ref[0])

    def test_one_extinction_table_serves_chains_and_sampler(
        self, params, monkeypatch
    ):
        # Chains at two cutoffs and a depth-40 cluster batch read one table:
        # each generation's pgf is evaluated once, by the table's growth,
        # and nowhere else.
        real_series = model._offspring_survival_series
        callers = collections.Counter()

        def counted(params, p):
            callers[sys._getframe(1).f_code.co_name] += 1
            return real_series(params, p)

        monkeypatch.setattr(model, "_offspring_survival_series", counted)
        model._survival_rows.cache_clear()
        for cutoff in (256, 512):
            _chain_cache.cache_clear()
            dn_pmf(params, 12, cutoff)
        sample_clusters(params, 40, 100, RngStream(seed=3))
        assert callers == {"extinction_table": 40}

    def test_a_failed_chain_step_is_not_cached(self, params, monkeypatch):
        def failing(count, summand):
            raise ArithmeticError("chain step 3")

        _chain_cache.cache_clear()
        dn_pmf(params, 2, 128)
        monkeypatch.setattr(oracle, "compound", failing)
        with pytest.raises(ArithmeticError, match="chain step 3"):
            dn_pmf(params, 3, 128)
        assert len(_chain_cache(params, 128)) == 2
        _chain_cache.cache_clear()

    def test_chain_cache_keeps_most_recent(self, params):
        size = _chain_cache.cache_info().maxsize
        cutoffs = [64 + i for i in range(size + 1)]
        _chain_cache.cache_clear()
        laws = [dn_pmf(params, 2, cutoff) for cutoff in cutoffs[:size]]
        dn_pmf(params, 2, cutoffs[0])  # cutoffs[1] is now the least recent
        dn_pmf(params, 2, cutoffs[size])
        assert _chain_cache.cache_info().currsize == size
        assert dn_pmf(params, 2, cutoffs[0]) is laws[0]
        assert dn_pmf(params, 2, cutoffs[1]) is not laws[1]

    def test_rejects_generation_zero(self, params):
        with pytest.raises(ValueError, match="generation index"):
            dn_pmf(params, 0, 64)

    @pytest.mark.parametrize("cutoff", [256, 16384])
    def test_upper_bracket_on_survival_holds_the_table(self, params, cutoff):
        # Every read of P(D_n > 0) from D_n, one less its zero mass and the
        # upper bracket, is at least the table's p_n.  A zero mass summed
        # from the dead broods, in ulps of 1, read above 1 - p_n in 19 of
        # the generations 2-36 at 16384.
        n = 2
        while 1.0 - extinction_table(params, n)[n] < 1.0:
            law, survival = dn_pmf(params, n, cutoff), extinction_table(params, n)[n]
            assert 1.0 - float(law.mass[0]) >= survival, n
            assert law.survival_bracket(0)[1] >= survival, n
            n += 1
        assert n > 40

    def test_zero_mass_rule_holds_any_table_survival(self):
        # The rule holds for any table value p.  Below the step's placed
        # mass above zero, the cap keeps the total at 1.  Above it, placed
        # + (s - placed) can round below s = 1 - zero (at 230 of these p,
        # all above 3/4; never where zero >= 1/2, since s is then a multiple
        # of 2^-53 and the tie resolves to it), and the overflow's ulp up
        # keeps the upper bracket at s.
        law = pmf_of(GeometricLaw(0.55), 16)
        for survival in np.linspace(0.0, 1.0, 2001)[1:-1]:
            step = oracle._next_generation(law, law, survival, "probe")
            alive = 1.0 - float(step.mass[0])
            assert alive >= survival, survival
            assert step.survival_bracket(0)[1] >= alive, survival

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
        # The deepest generation at 256 whose zero mass is below 1 is taken:
        # past it the zero mass is exactly 1, which the term refuses.
        deep = [dn_pmf(params, n, 256) for n in range(40, 61)]
        last = [law for law in deep if float(law.mass[0]) < 1.0][-1]
        assert 1.0 - float(last.mass[0]) < 1e-14
        term = generation_term(last)
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
        # At 512 the law products are direct, but the series products go
        # through the FFT above 64 entries; they must agree with the term
        # whose every product is direct.
        aggregate = dn_pmf(params, 5, 512)
        assert not oracle._fft_length(513, 513)
        assert oracle._fft_length(65, 513, law=False)
        default = generation_term(aggregate)
        monkeypatch.setattr(oracle, "_fft_length", lambda *sizes, law=True: 0)
        direct = generation_term(aggregate)
        assert not np.array_equal(default.mass, direct.mass)
        assert_tails_close(default, direct, rtol=1e-9)

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
    def test_generation_term_brackets_p_at_least_half(self, zero_mass):
        # The term of a Bernoulli(p) aggregate is Binomial(A, p); for p >= 1/2
        # it is compounded over A <= 64.  Its brackets must hold the exact
        # P(Binomial(A, p) > x), summed over A <= K with P(A > K) = 1/(K + 1)
        # as the slack.
        p, big = 1.0 - zero_mass, 10**5
        out = generation_term(bernoulli_aggregate(p, 64))
        ks = np.arange(1, big + 1)
        for x in (0, 1, 5, 20, 63):
            lower = float(np.sum(pmf_A(ks) * binom.sf(x, ks, p)))
            lo, hi = out.survival_bracket(x)
            assert lo <= lower + 1 / (big + 1) + 1e-12
            assert lower - 1e-12 <= hi

    @pytest.mark.parametrize("kind", ["bernoulli", "offspring"])
    @pytest.mark.parametrize("p", [0.4999, 0.5 - 2**-52])
    def test_generation_term_routes_agree_just_below_half(self, params, kind, p):
        # Just below p = 1/2 the series route still runs.  With the summand
        # on a grid of 4N = 2048, `compound` over A <= 4N drops only counts
        # whose sums lie above N = 512 (Binomial(2048, 1/2) <= 512 has
        # probability near 1e-111), so both place the same tails on {0..N}.
        # At x = 0, 10, 100, N/4, N/2 and N - 1 they were measured within
        # 3.7e-10 relative for the Bernoulli aggregate and 7.4e-12 for the
        # offspring one, and are asserted within 1e-9.  Over A <= N, the
        # compound route of p >= 1/2, the placed tails fall short of the
        # series by the counts above N: at most P(A > N) = 1/(N + 1),
        # measured 0.50/(N + 1).
        n = 512
        if kind == "bernoulli":
            aggregate = bernoulli_aggregate(p, n)
        else:
            mass = p * conditional_nonzero(pmf_of(law_B(params), n)).mass
            mass[0] = 1.0 - p
            aggregate = Pmf(mass=mass, overflow=max(0.0, 1.0 - float(np.sum(mass))))
        assert 1.0 - float(aggregate.mass[0]) < 0.5
        series = generation_term(aggregate)
        wide = np.zeros(4 * n + 1)
        wide[: n + 1] = aggregate.mass
        wide = compound(
            pmf_of(LawA, 4 * n), Pmf(mass=wide, overflow=aggregate.overflow)
        )
        same = compound(pmf_of(LawA, n), aggregate)
        for x in (0, 10, 100, n // 4, n // 2, n - 1):
            on_grid = float(np.sum(wide.mass[x + 1 : n + 1]))
            assert series.survival_known(x) == pytest.approx(on_grid, rel=1e-9), x
            short = series.survival_known(x) - same.survival_known(x)
            assert -1e-15 <= short <= 1 / (n + 1), x


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

    def test_cold_solve_at_2_14_stays_below_16_mib(self, params):
        # D_2's table sets the peak: 70 rows (9 MiB) at the width that
        # minimises compound's products, 11.2 MiB in all (13.2 with a 24-row
        # block chunk beside 62 power rows); the power-of-two width held 128
        # rows (16 MiB), and the solve peaked at 22.7 MiB.
        _chain_cache.cache_clear()
        tracemalloc.start()
        try:
            stationary_pmf(params, 1 << 14)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    @pytest.mark.parametrize("cutoff", [4096, 1 << 14])
    def test_places_no_mass_at_zero(self, params, cutoff):
        # A >= 1, so P(X = 0) = 0.  FFT residue once landed there (1.40e-18
        # at 4096, 9.26e-19 at 2^14, where the direct path placed 0); a
        # product now places nothing below the sum of its operands'
        # smallest placed values.
        assert stationary_pmf(params, cutoff).mass[0] == 0.0

    def test_fft_transforms_per_solve(self, params, monkeypatch):
        # A cold solve at 4096 runs every transform at a power of two: 8192
        # for the full products (4097 x 4097, one top entry summed
        # directly, where a length holding all 8193 entries is 8640) and
        # 256..4096 for the Newton steps of the reciprocals.  It made 3,837
        # transforms at 8640 and below; it makes 3,026 now.  A deep chain
        # step compounds a count of a few values: 7 FFT products once, 1 to
        # 3 now.
        cutoff = 4096
        calls = []
        real_rfft, real_irfft = np.fft.rfft, np.fft.irfft

        def rfft(a, n=None, *args, **kwargs):
            calls.append(("rfft", n))
            return real_rfft(a, n, *args, **kwargs)

        def irfft(a, n=None, *args, **kwargs):
            calls.append(("irfft", n))
            return real_irfft(a, n, *args, **kwargs)

        _chain_cache.cache_clear()
        monkeypatch.setattr(np.fft, "rfft", rfft)
        monkeypatch.setattr(np.fft, "irfft", irfft)
        products = {}
        try:
            stationary_pmf(params, cutoff)
            solve = list(calls)
            _chain_cache.cache_clear()
            for n in range(1, 31):
                calls.clear()
                dn_pmf(params, n, cutoff)
                products[n] = sum(kind == "irfft" for kind, _ in calls)
        finally:
            _chain_cache.cache_clear()
        lengths = {length for _, length in solve}
        assert all(length & (length - 1) == 0 for length in lengths), lengths
        assert len(solve) <= 3026
        deep = {n: count for n, count in products.items() if n >= 20}
        assert max(deep.values()) <= 4, deep

    def test_meta_records_depth_and_gap(self, params):
        st_pmf = stationary_pmf(params, 512, tol=1e-11)
        assert st_pmf.meta.startswith("stationary@512(depth=")
        assert "gap=" in st_pmf.meta

    def test_deterministic_across_cache_resets(self, params):
        first = stationary_pmf(params, 256, tol=1e-11)
        _chain_cache.cache_clear()
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
        _chain_cache.cache_clear()
        stationary_pmf(params, 320, max_iter=depth)
        assert max(terms) == depth
        assert len(_chain_cache(params, 320)) == depth
        _chain_cache.cache_clear()
        terms.clear()
        with pytest.raises(NotConverged):
            stationary_pmf(params, 320, max_iter=3)
        assert max(terms) == 3
        assert len(_chain_cache(params, 320)) == 3

    def test_one_term_past_the_stopping_depth(self, params, monkeypatch):
        # The lookahead is one term.
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
        # The conv_tail check's control: every mass, the overflow and the
        # exact ratio for the geometric pair, (x + 3) / 2, are binary.
        g = pmf_of(GeometricLaw(0.5), 256)
        assert cli._pair_tail_ratio(g, 60.0) == 31.5

    def test_conv_tail_ratio_heavy_tail_near_two(self, pB4096):
        assert 1.5 < cli._pair_tail_ratio(pB4096, 256.0) < 2.5

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
