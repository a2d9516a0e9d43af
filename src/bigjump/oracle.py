"""Exact truncated-PMF arithmetic with sound survival brackets.

Every distribution here is a vector of point masses on {0..N} plus a single
scalar "overflow" bucket holding all probability the computation could not
place on the grid.  The known vector is maintained pointwise *below* the true
pmf at every step, the stationary law's included (mass is only ever dropped
into overflow, never invented), which makes the survival bracket

    sum_{k > x} mass[k]  <=  P(> x)  <=  sum_{k > x} mass[k] + overflow

sound by construction.  On top of that arithmetic the module builds the
generation-aggregate laws, the stationary law of the branching fixed point,
and direct numerical checks of the convolution-tail and random-sum relations
that drive the asymptotics.

Design notes
------------
* Convolution is exact discrete convolution: direct summation for short
  vectors and zero-padded FFT (no wrap-around) for long ones, in the one
  kernel `_conv_full`.  It returns the signed product, as the power series
  of the generation terms need; `_product`, the overflow rule for laws,
  clips the tiny negative FFT residue at zero.  The FFT is ``numpy.fft``, at
  scipy's real transform lengths (`_next_fast_len`).  From numpy 2.0 on it
  is the C++ pocketfft that ``scipy.fft`` also wraps, so the products keep
  the bits of ``scipy.signal.fftconvolve`` without importing scipy.
* ``compound`` evaluates sum_k count[k] * summand^{*k} with a
  baby-step/giant-step polynomial scheme (Paterson & Stockmeyer 1973):
  ~2*sqrt(K) convolutions plus a matrix product that collapses the count
  coefficients instead of K convolutions, each FFT product reusing the
  fixed operand's spectrum (two transforms per product, not three).  The
  collapse runs in chunks of rows, top block first, as the Horner pass
  consumes them, so no blocks x (N+1) table exists; chunks start at
  multiples of `_COLLAPSE_CHUNK` rows, which keeps every row's bits those
  of the one-shot product on an AVX-512 OpenBLAS (the only one checked).
* Every BLAS call here and in the offspring pgf (the collapse and the dot
  products) runs on one BLAS thread (`_native.one_blas_thread`).  A
  threaded product or dot splits its sums by the core count, so the bits
  would depend on the machine and on ``OPENBLAS_NUM_THREADS``, and the idle
  BLAS threads spin after each call, taking a core from the generation
  terms.
* The generation chain D_n = sum_{k=1}^{B} D_{n-1}^{(k)} compounds the
  offspring count against D_{n-1} only while D_{n-1} is often nonzero.
  Writing D_{n-1} = q delta_0 + p C (C the conditional nonzero law), the same
  sum over the in-grid counts is sum_m beta_m C^{*m} with beta the law of
  Binomial(B, p) (pgf composition for Galton-Watson processes; Athreya &
  Ney, *Branching Processes*, 1972, ch. I).  That count has support near pN
  instead of N.  Once q^N is a normal float (from D_3 at N = 2^12 and from
  D_6 at N = 2^16 when b = 0.5, epsilon = 1) each generation costs a few
  convolutions instead of ~2 sqrt(N), and the deep-generation laws carry no
  FFT residue from a full-support count.
* The stationary law is assembled as immigration plus one independent
  aggregate term per generation (the fixed point unrolled along its
  generation expansion).  Each term is the immigration pgf composed with the
  generation law, in closed form over the *conditional* nonzero aggregate:
  a power-series logarithm and a reciprocal, both by Newton iterations of a
  few FFT products each (Brent & Kung, "Fast algorithms for manipulating
  formal power series", J. ACM 25, 1978).  Coefficients 0..N depend only
  on the aggregate's coefficients 0..N, so every immigration count is
  included and the term's overflow is exactly its mass above N rather than
  the whole immigration tail, which is what makes desk-scale brackets at
  x ~ N/16 usable at all.  The generations past the stopping depth d are
  covered by R = `depth_remainder_bound`, at least the probability that any
  of them contributes: they are independent of the fold and add zero with
  probability at least 1 - R, so the fold's masses times (1 - R) stay below
  the stationary pmf and the removed share goes to the overflow.  R is
  pgf-exact over the model's one extinction table, which each generation's
  zero mass is also checked against: 2.1e-11 at the default depth 36.
* The generation terms are independent, so ``stationary_pmf`` runs term n
  on one worker thread (numpy's FFTs release the GIL) while the calling
  thread builds D_{n+1}, the larger share of the work, and folds finished
  terms in generation order.  The fold, the stopping rule and the errors
  are those of the serial loop; the one chain step and term computed past
  the stopping depth are discarded, and their errors never surface.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._native import one_blas_thread, release_freed_memory
from .model import (
    LawA,
    ModelParams,
    depth_remainder_bound,
    extinction_table,
    law_B,
    pgf_B,
)

__all__ = [
    "Pmf",
    "GeometricLaw",
    "TailRatioBracket",
    "RandomSumCheck",
    "NotConverged",
    "pmf_of",
    "convolve",
    "compound",
    "conditional_nonzero",
    "dn_pmf",
    "generation_term",
    "stationary_pmf",
    "conv_tail_ratio",
    "random_sum_check",
]

# Masses are probabilities; anything this far below zero is a real bug, not
# FFT rounding residue.
_NEGATIVE_TOLERANCE = 1e-12
# Mass conservation required of every constructed Pmf.
_CONSERVATION_TOLERANCE = 1e-9
# Vectors at or below this length convolve directly (exact products, no FFT
# noise floor — needed when tail masses sit near 1e-19).
_DIRECT_CONV_LIMIT = 4096
# The thinned offspring count starts its recurrence from b_k * q**k, so it is
# used only while q**N >= exp(-this) stays a normal float at the cutoff N.
_THINNED_MAX_NEG_LOG = 600.0
# Outward margin on the stationary law's overflow per folded product: the
# fold's placed total plus overflow lands a few ulps either side of 1 (up to
# 2.5 ulps short at depths 1-37, cutoffs 256-16384; 1 ulp short to 604 over
# at 2^16), and an upper bracket must not read below a survival that is
# exactly 1.
_FOLD_MARGIN = 4 * np.finfo(np.float64).eps
# Generation chains kept, least recently used dropped first (`law_B`'s bound).
_CHAIN_CACHE_SIZE = 8
# Block rows per collapse product in `compound`.  A row's bits depend on
# which dgemm micro-kernel takes it, which follows the row's offset in the
# product: on an AVX-512 OpenBLAS, chunks starting at multiples of 12 rows
# reproduce the whole product and multiples of 16 or 32 do not.  That match
# was checked on that kernel only; another CPU's dgemm may split rows at
# other offsets, and the chunked collapse then differs from the one-shot
# product in the last bits.  24 rows (3 MB at N = 2^14) keep the chunk small
# next to the 128-row power table; 12 would repack that table twice as often.
_COLLAPSE_CHUNK = 24


class NotConverged(RuntimeError):
    """The stationary iteration left its sup-norm gap above ``tol``."""

    def __init__(self, gap: float, tol: float, max_iter: int) -> None:
        super().__init__(
            f"stationary iteration did not converge: sup-norm gap {gap:.3e} "
            f"after {max_iter} iterations (tol {tol:g})"
        )
        self.gap, self.tol, self.max_iter = gap, tol, max_iter


@dataclass(frozen=True, eq=False)
class Pmf:
    """Point masses on {0..N} plus an overflow bucket of unplaced probability.

    ``survival_bracket(x)`` returns sound lower/upper bounds on P(> x); the
    upper endpoint doubles as the point estimate everywhere downstream (it
    is exact whenever the unplaced mass genuinely lies above ``x``).
    """

    mass: np.ndarray
    overflow: float
    meta: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.mass, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("mass must be a nonempty 1-d array")
        low = float(arr.min())
        if low < -_NEGATIVE_TOLERANCE:
            raise ValueError(f"negative probability mass: {low}")
        if low < 0.0:
            arr = np.maximum(arr, 0.0)
        if self.overflow < -_NEGATIVE_TOLERANCE:
            raise ValueError(f"negative overflow: {self.overflow}")
        object.__setattr__(self, "mass", arr)
        object.__setattr__(self, "overflow", max(float(self.overflow), 0.0))
        deficit = abs(1.0 - float(np.sum(arr)) - self.overflow)
        if deficit > _CONSERVATION_TOLERANCE:
            raise ValueError(
                f"mass + overflow deviates from 1 by {deficit:.3e} "
                f"(tolerance {_CONSERVATION_TOLERANCE}) in {self.meta!r}"
            )
        arr.setflags(write=False)

    @property
    def cutoff(self) -> int:
        """Largest representable value N (mass has N+1 entries)."""
        return self.mass.size - 1

    @property
    def known_total(self) -> float:
        return float(np.sum(self.mass))

    def known_mean(self) -> float:
        """Mean of the placed mass only — a lower bound on the true mean."""
        with one_blas_thread():
            return float(np.dot(np.arange(self.mass.size), self.mass))

    def survival_known(self, x: float) -> float:
        """Lower bound on P(> x): placed mass strictly above x."""
        lo = math.floor(x)
        if lo >= self.cutoff:
            return 0.0
        return float(np.sum(self.mass[max(lo + 1, 0) :]))

    def survival_bracket(self, x: float) -> tuple[float, float]:
        """Sound bounds: [placed mass above x, that plus all unplaced mass]."""
        lo = self.survival_known(x)
        return lo, lo + self.overflow

    def survival_curve(self) -> np.ndarray:
        """Upper survival P(> j) for j = 0..N: placed suffix sums + overflow."""
        suffix = np.concatenate([np.cumsum(self.mass[::-1])[::-1], [0.0]])
        return suffix[1:] + self.overflow


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


def pmf_of(law, cutoff: int, meta: str = "") -> Pmf:
    """Truncate a law with exact ``pmf``/``survival`` methods onto {0..cutoff}.

    The overflow bucket receives the analytic survival at the cutoff, so the
    bracket is exact for the source law.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    ks = np.arange(cutoff + 1)
    mass = np.asarray(law.pmf(ks), dtype=np.float64)
    overflow = float(law.survival(cutoff))
    name = meta or f"{getattr(law, '__name__', type(law).__name__)}@{cutoff}"
    return Pmf(mass=mass, overflow=overflow, meta=name)


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2**i * 3**j * 5**k) at least ``n``: what
    ``scipy.fft.next_fast_len(n, real=True)`` returns."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The smallest p35 * 2**i at least n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_length(a_size: int, b_size: int) -> int:
    """Transform length `_conv_full` uses; 0 where it convolves directly."""
    if min(a_size, b_size) <= 64 or max(a_size, b_size) <= _DIRECT_CONV_LIMIT:
        return 0
    return _next_fast_len(a_size + b_size - 1)


def _spectrum(b: np.ndarray, a_size: int) -> np.ndarray | None:
    """Real FFT of ``b`` for `_conv_full` against a length-``a_size``
    operand; None where `_conv_full` convolves directly."""
    fshape = _fft_length(a_size, b.size)
    return np.fft.rfft(b, fshape) if fshape else None


def _conv_full(
    a: np.ndarray, b: np.ndarray, b_spectrum: np.ndarray | None = None
) -> np.ndarray:
    """Exact full linear convolution, signed; FFT with zero padding for long
    inputs.

    The FFT path computes what ``scipy.signal.fftconvolve(a, b)`` computes
    (same transform length, transforms and product order), bit for bit on
    numpy 2.x, residue below zero included.
    Passing ``b_spectrum = _spectrum(b, a.size)`` skips ``b``'s transform,
    one of the three, when ``b`` is convolved many times.
    """
    fshape = _fft_length(a.size, b.size)
    if not fshape:
        return np.convolve(a, b)
    if b_spectrum is None:
        b_spectrum = np.fft.rfft(b, fshape)
    out = np.fft.irfft(np.fft.rfft(a, fshape) * b_spectrum, fshape)
    return out[: a.size + b.size - 1]


def _product(a: tuple, b: tuple, n: int, b_spectrum=None) -> tuple:
    """Law of the sum of independent draws from two laws given as ``(mass,
    overflow, placed total)``, in that form on {0..n}: the one statement of
    the overflow rule.  Mass landing above ``n``, and every term touching
    either overflow bucket, moves to the result's overflow.  FFT residue
    below zero is clipped."""
    a_mass, a_over, a_total = a
    b_mass, b_over, b_total = b
    full = np.maximum(_conv_full(a_mass, b_mass, b_spectrum), 0.0)
    known = full[: n + 1]
    spill = float(np.sum(full[n + 1 :]))
    overflow = spill + a_over * (b_total + b_over) + b_over * a_total
    return known, overflow, float(np.sum(known))


def convolve(p: Pmf, q: Pmf) -> Pmf:
    """Distribution of the sum of independent draws from ``p`` and ``q``."""
    if p.cutoff != q.cutoff:
        raise ValueError(
            f"cutoff mismatch: {p.cutoff} vs {q.cutoff} — operands must share a grid"
        )
    known, overflow, _ = _product(
        (p.mass, p.overflow, p.known_total),
        (q.mass, q.overflow, q.known_total),
        p.cutoff,
    )
    return Pmf(
        mass=known,
        overflow=overflow,
        meta=f"conv({p.meta or '?'}, {q.meta or '?'})",
    )


def _collapse_top_down(coeff: np.ndarray, powers: np.ndarray) -> Iterator:
    """Rows of ``coeff @ powers``, last row first, one chunk at a time.

    Chunks start at multiples of `_COLLAPSE_CHUNK`; a one-row top chunk
    joins the chunk below, since numpy runs a one-row product as a
    matrix-vector product with different rounding.
    """
    n_blocks = coeff.shape[0]
    starts = list(range(0, n_blocks, _COLLAPSE_CHUNK))
    if len(starts) > 1 and n_blocks - starts[-1] == 1:
        starts.pop()
    end = n_blocks
    for start in reversed(starts):
        with one_blas_thread():
            chunk = coeff[start:end] @ powers
        yield from chunk[::-1]
        del chunk  # before the next product, so one chunk is alive at a time
        end = start


def _block_width(count_support: int) -> int:
    """Baby-step width: power of two near sqrt(support), capped at 256."""
    if count_support < 4:
        return count_support + 1
    root = math.isqrt(count_support)
    return min(256, 1 << (root - 1).bit_length())


def compound(count: Pmf, summand: Pmf) -> Pmf:
    """Law of ``sum_{i=1}^{C} Y_i``: count-weighted summand convolution powers.

    Evaluates sum_k count[k] * summand^{*k} with baby-step/giant-step
    polynomial evaluation: powers 0..J-1 are built once, blocks of J
    coefficients collapse through one matrix product, and a Horner pass over
    summand^{*J} stitches the blocks.  Count overflow (C beyond the grid)
    lands in the result's overflow.
    """
    if count.cutoff != summand.cutoff:
        raise ValueError(
            f"cutoff mismatch: {count.cutoff} vs {summand.cutoff} — "
            "operands must share a grid"
        )
    n = count.cutoff
    nonzero = np.nonzero(count.mass)[0]
    if nonzero.size == 0:
        return Pmf(
            mass=np.zeros(n + 1),
            overflow=count.overflow,
            meta=f"compound({count.meta or '?'}, {summand.meta or '?'})",
        )
    support = int(nonzero[-1])
    width = _block_width(support)
    n_blocks = support // width + 1

    # Baby steps: summand powers 0..width-1 (and their bookkeeping scalars).
    rows = min(width, support + 1)
    powers = np.zeros((rows, n + 1))
    powers[0, 0] = 1.0
    pow_overflow = np.zeros(rows)
    pow_total = np.zeros(rows)
    pow_total[0] = 1.0
    summand_law = (summand.mass, summand.overflow, summand.known_total)
    s_spectrum = _spectrum(summand.mass, n + 1)

    def next_power(j: int) -> tuple:  # summand^{*j} from summand^{*(j-1)}
        previous = (powers[j - 1], pow_overflow[j - 1], pow_total[j - 1])
        return _product(previous, summand_law, n, s_spectrum)

    for j in range(1, rows):
        powers[j], pow_overflow[j], pow_total[j] = next_power(j)

    # Collapse count coefficients through the power table, block by block.
    padded = np.zeros(n_blocks * width)
    padded[: support + 1] = count.mass[: support + 1]
    # coeff[g, j] = count[g*width + j]
    coeff = padded.reshape(n_blocks, width)[:, :rows]
    with one_blas_thread():
        block_overflow = coeff @ pow_overflow
        block_total = coeff @ pow_total
    block_mass = _collapse_top_down(coeff, powers)

    if n_blocks == 1:
        acc, acc_over = next(block_mass), float(block_overflow[0])
    else:
        # Giant step: summand^{*width}, then Horner from the top block down.
        giant = next_power(rows)
        acc = next(block_mass)
        acc_over = float(block_overflow[n_blocks - 1])
        acc_total = float(block_total[n_blocks - 1])
        g_spectrum = _spectrum(giant[0], n + 1)
        for g in range(n_blocks - 2, -1, -1):
            known, acc_over, known_total = _product(
                (acc, acc_over, acc_total), giant, n, g_spectrum
            )
            acc = known + next(block_mass)
            acc_over += float(block_overflow[g])
            acc_total = known_total + float(block_total[g])

    return Pmf(
        mass=acc,
        overflow=acc_over + count.overflow,
        meta=f"compound({count.meta or '?'}, {summand.meta or '?'})",
    )


def conditional_nonzero(p: Pmf) -> Pmf:
    """The law of a draw from ``p`` conditioned on being nonzero.

    The scaled masses stay pointwise lower bounds on the true conditional
    law (the zero mass under-counts extinction, so the divisor over-counts
    survival).  The overflow is therefore taken as exactly one minus the
    placed mass rather than ``p.overflow / alive``: dividing the stored
    overflow would amplify accumulated float drift by ``1/alive``, which
    rounds outside the conservation window for deeply subcritical laws.
    """
    alive = 1.0 - float(p.mass[0])
    if alive <= 0.0:
        raise ValueError("law has no mass above zero")
    mass = p.mass.copy()
    mass[0] = 0.0
    mass /= alive
    total = float(np.sum(mass))
    if total > 1.0:
        # Extreme subcriticality can round the placed total past one;
        # scaling down keeps every entry a valid lower bound.
        mass /= total
        total = 1.0
    return Pmf(
        mass=mass,
        overflow=max(0.0, 1.0 - total),
        meta=f"nonzero({p.meta or '?'})",
    )


def _thinned_offspring_count(offspring: Pmf, alive: float) -> Pmf:
    """Law of Binomial(B, alive) over the in-grid offspring counts k <= N.

    beta[m] = sum_k b_k C(k, m) q**(k-m) p**m with p = ``alive``, q = 1 - p,
    through the all-positive recurrence w[k, m+1] = w[k, m] (k-m)/(m+1) p/q
    from w[k, 0] = b_k q**k, one pass over k per m.  Counts above
    pN + 12 sqrt(pNq) + 12 are dropped (their mass is below e^-60); the
    overflow 1 - sum(beta) holds them and P(B > N), so the result stays a
    sound count whatever the cap.
    """
    n = offspring.cutoff
    q = 1.0 - alive
    spread = alive * n
    m_max = min(n, math.ceil(spread + 12.0 * math.sqrt(spread * q) + 12.0))
    k = np.arange(n + 1, dtype=np.float64)
    w = offspring.mass * np.power(q, k)
    beta = np.zeros(n + 1)
    beta[0] = np.sum(w)
    ratio = alive / q
    for m in range(m_max):
        # w[i] holds w[m + i, m]; the k = m entry reaches zero and drops.
        w = w[1:] * (k[m + 1 :] - m) * (ratio / (m + 1))
        beta[m + 1] = np.sum(w)
    return Pmf(
        mass=beta,
        overflow=max(0.0, 1.0 - float(np.sum(beta))),
        meta=f"thinned-offspring(p={alive:.3g})@{m_max}",
    )


# Generation laws D_1, D_2, ... keyed by (params, cutoff): building generation
# n requires every earlier generation, and the stationary assembly, the
# prediction checks, and the acceptance suite all share them.
_chain_cache: OrderedDict[tuple[ModelParams, int], list[Pmf]] = OrderedDict()


def _extinct_brood_mass(
    params: ModelParams, offspring: Pmf, prev_zero: float
) -> float:
    """Exact mass at zero contributed by offspring counts above the cutoff.

    A count of ``k`` children yields an aggregate of zero with probability
    ``prev_zero ** k``, so the truncated counts' zero contribution is
    ``sum_{k > cutoff} b_k * prev_zero**k`` — the offspring pgf at
    ``prev_zero`` minus the in-support partial sum.  Using the known
    (lower-bound) zero mass for ``prev_zero`` keeps the result a lower bound
    on the true contribution, so moving it from overflow to the zero bin
    preserves the pointwise-lower-bound invariant.  Without this split the
    per-generation overflow has a constant floor and deep generations never
    damp out.
    """
    if prev_zero <= 0.0:
        return 0.0
    powers = np.power(prev_zero, np.arange(offspring.mass.size, dtype=np.float64))
    # A threaded dot product (N above 10,000) sums in an order set by the
    # core count; on one thread the chain's bits do not depend on it.
    with one_blas_thread():
        in_support = float(offspring.mass @ powers)
    dead = pgf_B(params, prev_zero) - in_support
    return min(max(dead, 0.0), offspring.overflow)


def _next_generation(
    params: ModelParams, offspring: Pmf, prev: Pmf, meta: str
) -> Pmf:
    """D_n from D_{n-1} = q delta_0 + p C.

    Where q**N is a normal float, sum_{k <= N} b_k D_{n-1}^{*k} is computed
    as sum_m beta_m C^{*m} with beta the thinned offspring count, whose
    support is about pN rather than N.  Otherwise (the first generations,
    where p is large) the offspring count compounds D_{n-1} directly.
    """
    prev_zero = float(prev.mass[0])
    alive = 1.0 - prev_zero
    n = offspring.cutoff
    if 0.0 < alive and -n * math.log1p(-alive) <= _THINNED_MAX_NEG_LOG:
        nxt = compound(
            _thinned_offspring_count(offspring, alive), conditional_nonzero(prev)
        )
    else:
        nxt = compound(offspring, prev)
    dead = _extinct_brood_mass(params, offspring, prev_zero)
    mass = nxt.mass.copy()
    mass[0] += dead
    return Pmf(mass=mass, overflow=nxt.overflow - dead, meta=meta)


def dn_pmf(params: ModelParams, n: int, cutoff: int) -> Pmf:
    """Exact (bracketed) law of the generation-``n`` aggregate on {0..cutoff}.

    Generation 1 is the offspring law itself.  Each later generation is the
    previous one compounded by the offspring count.  Once the previous
    generation is mostly zero, the count is thinned first: Binomial(B, p)
    copies of the previous law conditioned on being nonzero, a count with
    support near pN in place of N, so deep generations cost a few
    convolutions and carry no FFT residue from the full-support count.  The
    fully-extinct portion of the truncated offspring counts is resolved
    analytically back to the zero bin.  The mass at zero of each generation
    built is checked against the model's extinction table before it joins
    the chain.  The chains of the 8 most recently used (params, cutoff)
    pairs are cached.
    """
    if n < 1:
        raise ValueError("generation index must be >= 1")
    key = (params, cutoff)
    laws = _chain_cache.get(key)
    if laws is None:
        laws = _chain_cache[key] = [
            pmf_of(law_B(params), cutoff, meta=f"gen1@{cutoff}")
        ]
        if len(_chain_cache) > _CHAIN_CACHE_SIZE:
            _chain_cache.popitem(last=False)
    _chain_cache.move_to_end(key)
    while len(laws) < n:
        m = len(laws) + 1
        law = _next_generation(params, laws[0], laws[-1], meta=f"gen{m}@{cutoff}")
        gap = abs(float(law.mass[0]) - extinction_table(params, m).q[m])
        if gap > 1e-9 + law.overflow:
            raise RuntimeError(
                f"generation {m} extinction mass off by {gap:.3e} "
                "from the pgf recursion"
            )
        laws.append(law)
    return laws[n - 1]


def _series_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of the power-series product ``a * b``."""
    return _conv_full(a[:n], b[:n])[:n]


def _series_reciprocal(f: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of ``1/f`` for ``f[0] == 1``, by Newton's
    iteration g <- g + g (1 - f g), which doubles the correct coefficients
    of g; only the error terms of f g past them are multiplied back."""
    g = np.ones(1)
    while g.size < n:
        m = min(2 * g.size, n)
        error = _series_product(f[:m], g, m)[g.size :]
        g = np.concatenate([g, -_series_product(g, error, m - g.size)])
    return g


def _series_log(f: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of ``ln f`` for ``f[0] == 1``: the integral of
    f'/f."""
    k = np.arange(1, n, dtype=np.float64)
    quotient = _series_product(f[1:n] * k, _series_reciprocal(f, n - 1), n - 1)
    return np.concatenate([[0.0], quotient / k])


def generation_term(aggregate: Pmf) -> Pmf:
    """Law of one generation's total contribution to the stationary value.

    The contribution is a sum of generation-n aggregates (law ``aggregate``,
    from `dn_pmf`) over an immigration-count number of independent trees.
    With p = P(D_n > 0), r = p/(1-p) and C the pgf of the conditional
    nonzero aggregate, the immigration pgf G(s) = 1 + (1-s) ln(1-s)/s at
    s = 1 - p(1 - C) is 1 + r (1 - C)(ln p + ln(1 - C)) / (1 + r C), here
    on power series cut after coefficient N.  Those coefficients depend only
    on C's first N + 1, so no count is dropped and the overflow is the mass
    above N.  The series of 1/(1 + r C) is stable only for r < 1, so
    p >= 1/2 raises ValueError.  A pure function of ``aggregate``, safe to
    run on any thread.
    """
    alive = 1.0 - float(aggregate.mass[0])
    if alive <= 0.0:
        # Survival has rounded to zero (beyond generation ~55 at b = 0.5);
        # there is no float-resolvable contribution left to represent.
        raise RuntimeError(
            f"{aggregate.meta or 'generation'} aggregate extinguished below "
            "float resolution"
        )
    if alive >= 0.5:
        raise ValueError(
            f"{aggregate.meta or 'generation'} term needs P(aggregate > 0) < 0.5 "
            f"for a stable series reciprocal 1/(1 + r C), got {alive}"
        )
    n, c = aggregate.cutoff + 1, conditional_nonzero(aggregate).mass
    r, log_p = alive / (1.0 - alive), math.log(alive)
    one_minus_c = np.concatenate([[1.0], -c[1:]])
    log_w = _series_log(one_minus_c, n)  # ln(1 - C), then ln p + ln(1 - C)
    log_w[0] = log_p
    inverse = _series_reciprocal(np.concatenate([[1.0], r * c[1:]]), n)
    mass = r * _series_product(_series_product(one_minus_c, log_w, n), inverse, n)
    mass[0] = 1.0 + alive * log_p / (1.0 - alive)
    # Pmf clips FFT residue (refusing any below -_NEGATIVE_TOLERANCE); the
    # overflow is what the clipped masses leave unplaced.
    unplaced = 1.0 - float(np.sum(np.maximum(mass, 0.0)))
    return Pmf(mass=mass, overflow=max(0.0, unplaced), meta=f"term({aggregate.meta})")


def _generation_terms(
    pool: ThreadPoolExecutor, params: ModelParams, cutoff: int, max_iter: int
) -> Iterator[Pmf]:
    """Yield the generation terms n = 1, 2, ..., ``max_iter`` in order,
    stopping before the first D_n whose zero mass rounds to 1 (every later
    generation's does too, and its term has nothing to place).

    The chain D_{n+1} is built on the calling thread while term n runs on
    ``pool``, one term ahead of the one being yielded.  An error of chain
    step n + 1, or of term n + 1, is raised only after term n is yielded, so
    a consumer that stops at n never sees it.
    """
    ahead = None  # the term submitted last and not yet yielded
    for n in range(1, max_iter + 1):
        try:
            law = dn_pmf(params, n, cutoff)
        except Exception:
            if ahead is not None:
                yield ahead.result()
            raise
        finally:
            release_freed_memory()
        if float(law.mass[0]) >= 1.0:
            break
        previous, ahead = ahead, pool.submit(generation_term, law)
        if previous is not None:
            yield previous.result()
    if ahead is not None:
        yield ahead.result()


def stationary_pmf(
    params: ModelParams,
    cutoff: int,
    tol: float = 1e-11,
    max_iter: int = 60,
) -> Pmf:
    """Bracketed stationary law of the branching fixed point on {0..cutoff}.

    Starting from the point mass at zero, each iteration appends one more
    generation's contribution, so the iterates increase stochastically and
    their survival functions converge upward to the stationary one.  The
    first iterate is exactly the immigration law.  Iteration stops when the
    sup-norm between successive survival curves drops below ``tol``, or
    before the first generation whose survival P(D_n > 0) is below float
    resolution.  The generations past the last included one, depth d, add
    a value Y independent of the fold X_d, nonzero with probability at most
    R = min(`depth_remainder_bound`, 1).  So P(X = k) >= (1 - R) P(X_d = k):
    the placed masses are scaled by 1 - R and the removed R times the placed
    total joins the overflow, which keeps both the pointwise lower bound and
    the conservation of the fold.  The overflow also carries `_FOLD_MARGIN`
    per folded product, against rounding.  Each generation term runs on a
    worker thread while the calling thread builds the next generation law,
    and the terms are folded in generation order, so the result is that of
    the serial fold.

    Raises:
        NotConverged: if all ``max_iter`` iterations leave the gap above
            ``tol``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    current = pmf_of(LawA, cutoff, meta=f"LawA@{cutoff}")
    curve = current.survival_curve()
    gap = math.inf
    depth = 0
    with ThreadPoolExecutor(max_workers=1) as pool:
        terms = _generation_terms(pool, params, cutoff, max_iter)
        for n, term in enumerate(terms, start=1):
            nxt = convolve(current, term)
            nxt_curve = nxt.survival_curve()
            # Tolerance covers accumulated FFT rounding drift, far below any
            # genuine monotonicity violation.
            if float(np.min(nxt_curve - curve)) < -1e-10:
                raise RuntimeError(
                    f"survival decreased at iteration {n}: monotone "
                    "convergence broken"
                )
            gap = float(np.max(nxt_curve - curve))
            current, curve, depth = nxt, nxt_curve, n
            if gap < tol:
                break
    if depth == max_iter and gap >= tol:
        raise NotConverged(gap, tol, max_iter)
    remainder = min(depth_remainder_bound(params, depth), 1.0)
    return Pmf(
        mass=(1.0 - remainder) * current.mass,
        overflow=current.overflow + remainder * current.known_total
        + depth * _FOLD_MARGIN,
        meta=f"stationary@{cutoff}(depth={depth}, gap={gap:.2e})",
    )


@dataclass(frozen=True)
class TailRatioBracket:
    """Bracketed ratio of a convolution tail to the single tail."""

    lo: float
    hi: float
    point: float


def conv_tail_ratio(p: Pmf, x: float) -> TailRatioBracket:
    """Bracket of P(sum of two independent draws > x) / P(one draw > x).

    The point estimate is the ratio of the two upper endpoints.  A heavy
    (subexponential) tail puts this near 2; light tails push it far above.
    """
    single_lo, single_hi = p.survival_bracket(x)
    if single_lo <= 0.0:
        raise ValueError(
            f"tail below truncation resolution at x={x}: "
            "no placed mass above the threshold"
        )
    pair_lo, pair_hi = convolve(p, p).survival_bracket(x)
    return TailRatioBracket(
        lo=pair_lo / single_hi,
        hi=pair_hi / single_lo,
        point=pair_hi / single_hi,
    )


@dataclass(frozen=True)
class RandomSumCheck:
    """Exact random-sum tail versus its truncated-mean prediction."""

    exact_lo: float
    exact_hi: float
    prediction: float
    ratio: float


def random_sum_check(count_law, summand: Pmf, x: float) -> RandomSumCheck:
    """Compare the exact tail of a random sum against the two-term prediction.

    Exact side: tail of ``compound(count, summand)`` at ``x``.  Prediction:
    E[C 1{C <= x/m}] * P(Y > x) + P(C > x/m) with ``m`` the summand mean
    (known mean plus overflow placed at the grid edge — a lower bound).  The
    reported ratio uses the exact upper endpoint.
    """
    cutoff = summand.cutoff
    count = pmf_of(count_law, cutoff)
    exact_lo, exact_hi = compound(count, summand).survival_bracket(x)

    mean = summand.known_mean() + summand.overflow * (cutoff + 1)
    if mean <= 0.0:
        raise ValueError("summand mean is zero: prediction undefined")
    threshold = x / mean
    edge = min(math.floor(threshold), cutoff)
    ks = np.arange(edge + 1)
    with one_blas_thread():
        truncated_mean = float(np.dot(ks, count.mass[: edge + 1]))
    count_tail = float(count_law.survival(threshold))
    summand_tail_hi = summand.survival_bracket(x)[1]
    prediction = truncated_mean * summand_tail_hi + count_tail
    if prediction <= 0.0:
        return RandomSumCheck(exact_lo, exact_hi, 0.0, math.nan)
    return RandomSumCheck(
        exact_lo=exact_lo,
        exact_hi=exact_hi,
        prediction=prediction,
        ratio=exact_hi / prediction,
    )
