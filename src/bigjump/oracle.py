"""Exact truncated-PMF arithmetic with sound survival brackets.

Every distribution here is a vector of point masses on {0..N} plus a single
scalar "overflow" bucket holding all probability the computation could not
place on the grid.  The known vector is maintained pointwise *below* the true
pmf at every step, the stationary law's included (mass is only ever dropped
into overflow, never invented), up to the residue of the FFT products: those
in ``compound`` place masses up to 6.1e-17 above the direct power sum
(`TestBlockWidth::test_fft_compound_matches_direct_power_sum`).  Up to that
residue, whose error bound is ROADMAP item 11, the survival bracket

    sum_{k > x} mass[k]  <=  P(> x)  <=  sum_{k > x} mass[k] + overflow

is sound by construction.  On top of that arithmetic the module builds the
generation-aggregate laws and the stationary law of the branching fixed
point.

Design notes
------------
* Convolution is exact discrete convolution: direct summation for short
  vectors and zero-padded FFT for long ones, in the one kernel
  `_conv_full`.  A product with an operand of at most `_DIRECT_FLOOR` = 64
  entries is direct.  So is a product of two laws of at most
  `_DIRECT_CONV_LIMIT` entries, whose tail masses near 1e-19 would sink
  below the FFT's absolute residue; the power series of the generation
  terms take the FFT above 64 entries, since every term ends in full-length
  FFT products whose residue bounds its own.  The transform length is the
  smallest 5-smooth one (`_next_fast_len`) at least the full length less
  64: the at most 64 top entries that wrap onto the bottom ones are summed
  directly from the operands' top entries and subtracted, so two operands
  of 2^14 + 1 entries transform at 2^15 rather than 32,805.  The kernel
  returns the signed product, as the power series need; `_product`, the
  overflow rule for laws, clips the tiny negative FFT residue at zero, and
  the residue below the product's smallest possible value.  It takes each
  law as (mass, overflow) and sums the placed totals the rule needs from
  the masses, so no caller carries a total beside them.  The FFT is
  ``numpy.fft``; from numpy 2.0 on it is the C++ pocketfft that
  ``scipy.fft`` also wraps, so a product whose full length is its
  transform length keeps the bits of ``scipy.signal.fftconvolve`` without
  importing scipy.
* ``compound`` evaluates sum_k count[k] * summand^{*k} with a
  baby-step/giant-step polynomial scheme (Paterson & Stockmeyer 1973):
  ~2*sqrt(K) convolutions plus a matrix product that collapses the count
  coefficients instead of K convolutions, each FFT product reusing the
  fixed operand's spectrum (two transforms per product, not three).  The
  first power is the summand itself, not a product.  One table of max(w,
  K // w + 1) rows holds the w baby-step powers and then the K // w + 1
  blocks: column k of the blocks reads only column k of the powers, so
  the collapse runs slab of columns by slab of columns and writes each
  slab's blocks over the powers it has read.  Each slab spans whole
  multiples of `_SLAB_COLUMNS`, at least `_SLAB_WORK` multiply-adds and
  `_SLAB_ROWS` rows of entries, and a shorter tail joins the slab before
  it, which keeps every column's
  bits those of the one-shot product on an AVX-512 OpenBLAS (the only one
  checked): that library runs a product of at most 10^6 multiply-adds in
  a small-matrix kernel, and numpy a one-column product as a
  matrix-vector product, each with other rounding.
* Every BLAS call here and in the offspring pgf (the collapse and the dot
  products) runs on one BLAS thread (`_native.one_blas_thread`).  A
  threaded product or dot splits its sums by the core count, so the bits
  would depend on the machine and on ``OPENBLAS_NUM_THREADS`` (the tests
  check both in subprocesses), and the idle BLAS threads spin after each
  call, taking a core from the generation terms.
* The generation chain D_n = sum_{k=1}^{B} D_{n-1}^{(k)} never compounds
  the full offspring count.  Writing D_{n-1} = q delta_0 + p C (C the
  conditional nonzero law), the sum over the in-grid counts is sum_m
  beta_m C^{*m} with beta the law of Binomial(B, p) (pgf composition for
  Galton-Watson processes; Athreya & Ney, *Branching Processes*, 1972,
  ch. I), computed for every p in blocks of counts, so no q^k need be a
  normal float.  That count has support near pN instead of N: D_2 at
  N = 2^14 costs 130 FFT products on a table of 70 rows, where the full
  count would cost 255.  It ends where its tail drops below
  `_BINOMIAL_TAIL`, so each deep generation, where pN is far below 1,
  costs one to three.  The laws carry no FFT residue from a full-support
  count.
* The zero-mass rule.  P(D_n > 0) has one source, the model's extinction
  table p_n, which keeps the orbit q_n = g_B(q_{n-1}) in survival form.
  D_n's zero mass is 1 - p_n rounded down, so that 1 - zero >= p_n, and
  capped at 1 less the mass the step placed above zero; the overflow is
  1 - zero less that placed mass, one ulp up where their sum would read
  below 1 - zero.  So the divisor of `conditional_nonzero` is at least
  p_n, and the upper bracket on P(D_n > 0) holds p_n.  Both hold as
  exactly as the table does, each pgf step to about 1e-13 of its series.
  The table fixes only how one less the placed mass splits between zero
  and overflow: the step's own zero mass, summed from the dead broods in
  ulps of 1, can read above 1 - p_n (by 2.9e-5 p_n at N = 4096, n = 36).
* The stationary law is assembled as immigration plus one independent
  aggregate term per generation (the fixed point unrolled along its
  generation expansion).  Each term, the law of A independent copies of the
  generation law, has one home, `generation_term`.  While p = P(D_n > 0)
  < 1/2 it is the immigration pgf composed with the generation law, in
  closed form over the *conditional* nonzero aggregate: a power-series
  logarithm and a reciprocal, both by Newton iterations of a few FFT
  products each (Brent & Kung, "Fast algorithms for manipulating formal
  power series", J. ACM 25, 1978); each Newton step takes its error term
  as a middle product, on transforms of the step's own length: 31 FFT
  products per term at N = 2^14, at every depth.  Coefficients 0..N depend
  only on the aggregate's coefficients 0..N, so every immigration count is
  included and the term's overflow is exactly its mass above N rather than
  the whole immigration tail, which is what makes desk-scale brackets at
  x ~ N/16 usable at all.  The reciprocal's series diverges for p >= 1/2
  (generation 1 when theta = P(B >= 1) >= 1/2), and there the term is
  ``compound`` over the counts up to N, whose overflow carries
  P(A > N) = 1/(N + 1).  The generations past the stopping depth d are
  covered by R = `depth_remainder_bound`, at least the probability that
  any of them contributes: they are independent of the fold and add zero
  with probability at least 1 - R, so the fold's masses times (1 - R) stay
  below the stationary pmf and the removed share goes to the overflow.  R is
  pgf-exact over the same extinction table: 2.1e-11 at the default depth
  36.  The overflow also carries `_FOLD_MARGIN`, 4 ulps per folded term,
  so an upper end never reads below a survival that is exactly 1.
* The generation terms are independent, so ``stationary_pmf`` runs term n
  on one worker thread (numpy's FFTs release the GIL) while the calling
  thread builds D_{n+1}, the larger share of the work, and folds finished
  terms in generation order.  The fold, the stopping rule and the errors
  are those of the serial loop; the one chain step and term computed past
  the stopping depth are discarded, and their errors never surface.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from ._native import one_blas_thread
from .model import (
    LawA,
    ModelParams,
    depth_remainder_bound,
    extinction_table,
    law_B,
)

__all__ = [
    "Pmf",
    "NotConverged",
    "pmf_of",
    "convolve",
    "compound",
    "conditional_nonzero",
    "dn_pmf",
    "generation_term",
    "stationary_pmf",
]

# Masses are probabilities; anything this far below zero is a real bug, not
# FFT rounding residue.
_NEGATIVE_TOLERANCE = 1e-12
# Mass conservation required of every constructed Pmf.
_CONSERVATION_TOLERANCE = 1e-9
# A product with an operand of at most this many entries convolves directly,
# and so do the at most this many top entries of a product whose FFT length
# falls short of its full length (they wrap onto the bottom ones).
_DIRECT_FLOOR = 64
# Laws at or below this length convolve directly (exact products, no FFT
# noise floor — needed when tail masses sit near 1e-19).  The series
# products of the generation terms take the FFT above 64 entries: every
# term ends in full-length FFT products, whose residue bounds its own.
_DIRECT_CONV_LIMIT = 4096
# The thinned offspring count's recurrence starts from q**j within blocks of
# W counts, so W keeps q**W >= exp(-this), a normal float ...
_BLOCK_MAX_NEG_LOG = 600.0
# ... and a block's recurrence within W x (its count cap + 1) terms: wider
# blocks cost more terms per count, narrower ones more carries.
_BLOCK_TERMS = 1 << 18
# Mass of a binomial count dropped at either end of `_binomial_band`, and
# the upper tail at which `_thinned_offspring_count` ends its count.
_BINOMIAL_TAIL = 3e-26
# Outward margin on the stationary law's overflow per folded product: the
# fold's placed total plus overflow lands a few ulps either side of 1 (up to
# 2.5 ulps short at depths 1-37, cutoffs 256-16384; 1 ulp short to 604 over
# at 2^16), and an upper bracket must not read below a survival that is
# exactly 1.
_FOLD_MARGIN = 4 * np.finfo(np.float64).eps
# Column slabs of the collapse in `compound`.  A column's bits depend on
# which dgemm path and micro-kernel take it: on an AVX-512 OpenBLAS, slabs
# starting at multiples of 256 columns and holding at least 2^20
# multiply-adds reproduce the one-shot product at every shape checked,
# while slabs at multiples of 128 columns, or of at most 10^6 multiply-adds
# (the small-matrix kernel), do not.  That match was checked on that
# kernel only; another CPU's dgemm may split columns at other offsets.
_SLAB_COLUMNS = 256
_SLAB_WORK = 1 << 20
# ... and each slab's product holds at least this many table rows of
# entries.  Freed before the Horner pass, it lifts glibc's dynamic mmap
# threshold past the FFT products' 2N + 1 entries, which then reuse heap
# pages instead of faulting in fresh ones: D_2 at N = 2^16 took 292,000
# minor faults per compound with 256-column slabs, 2,000 with these (2
# rows' worth left 190,000).
_SLAB_ROWS = 4


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


@lru_cache(maxsize=256)
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


def _fft_length(a_size: int, b_size: int, law: bool = True) -> int:
    """Transform length `_conv_full` uses; 0 where it convolves directly:
    where an operand has at most `_DIRECT_FLOOR` entries, or, for two laws,
    where neither has more than `_DIRECT_CONV_LIMIT`.  The length is the
    smallest 5-smooth one that leaves at most `_DIRECT_FLOOR` entries of the
    full product to wrap: 2^15 for two operands of 2^14 + 1 entries, not
    the 32,805 that holds all 32,769."""
    if min(a_size, b_size) <= _DIRECT_FLOOR or (
        law and max(a_size, b_size) <= _DIRECT_CONV_LIMIT
    ):
        return 0
    return _next_fast_len(a_size + b_size - 1 - _DIRECT_FLOOR)


def _spectrum(
    b: np.ndarray, a_size: int, cyclic: int | None = None
) -> np.ndarray | None:
    """Real FFT of ``b`` for `_conv_full` against a length-``a_size`` law
    operand, or at the transform length ``cyclic``; None where `_conv_full`
    convolves directly."""
    fshape = _fft_length(a_size, b.size) if cyclic is None else cyclic
    return np.fft.rfft(b, fshape) if fshape else None


def _conv_full(
    a: np.ndarray,
    b: np.ndarray,
    b_spectrum: np.ndarray | None = None,
    law: bool = True,
    cyclic: int | None = None,
) -> np.ndarray:
    """Exact full linear convolution, signed; FFT for long inputs
    (`_fft_length`; ``law=False`` for power series).

    Where the transform length holds the full product, the FFT path computes
    what ``scipy.signal.fftconvolve(a, b)`` computes (same transform length,
    transforms and product order), bit for bit on numpy 2.x, residue below
    zero included.  Where it falls short by w <= `_DIRECT_FLOOR` entries, the
    top w entries wrap onto the bottom w: they are summed directly from the
    operands' top w entries, subtracted from the bottom ones and appended.
    Passing ``b_spectrum = _spectrum(b, a.size, cyclic)`` skips ``b``'s
    transform, one of the three, when ``b`` is convolved many times.

    ``cyclic``, a transform length at least each operand's size, asks for
    the FFT path's product modulo x**cyclic instead: entry k >= cyclic lands
    on k - cyclic uncorrected.  A caller passes it only to read entries that
    nothing wraps onto; where the kernel convolves directly (``cyclic`` 0),
    it returns the full product, which agrees there.
    """
    fshape = _fft_length(a.size, b.size, law) if cyclic is None else cyclic
    if not fshape:
        return np.convolve(a, b)
    if b_spectrum is None:
        b_spectrum = np.fft.rfft(b, fshape)
    out = np.fft.irfft(np.fft.rfft(a, fshape) * b_spectrum, fshape)
    size = a.size + b.size - 1
    if cyclic is not None or size <= fshape:
        return out[:size]
    wrapped = size - fshape
    top = np.convolve(a[-wrapped:], b[-wrapped:])[wrapped - 1 :]
    out[:wrapped] -= top
    return np.concatenate([out, top])


def _first_nonzero(mass: np.ndarray) -> int:
    """Index of the first nonzero entry; the size where there is none."""
    first = int(np.argmax(mass != 0.0))
    return first if mass[first] != 0.0 else mass.size


def _product(a: tuple, b: tuple, n: int, b_spectrum=None) -> tuple:
    """Law of the sum of independent draws from two laws given as ``(mass,
    overflow)``, in that form on {0..n}: the one statement of the overflow
    rule.  Mass landing above ``n``, and every term touching either overflow
    bucket, moves to the result's overflow; the placed totals those terms
    need are summed here, from the operands.  FFT residue below zero is
    clipped, and so is any below the sum of the operands' smallest placed
    values, where the product places nothing."""
    (a_mass, a_over), (b_mass, b_over) = a, b
    full = np.maximum(_conv_full(a_mass, b_mass, b_spectrum), 0.0)
    full[: _first_nonzero(a_mass) + _first_nonzero(b_mass)] = 0.0
    spill = float(np.sum(full[n + 1 :]))
    a_total, b_total = float(np.sum(a_mass)), float(np.sum(b_mass))
    return full[: n + 1], spill + a_over * (b_total + b_over) + b_over * a_total


def convolve(p: Pmf, q: Pmf) -> Pmf:
    """Distribution of the sum of independent draws from ``p`` and ``q``."""
    if p.cutoff != q.cutoff:
        raise ValueError(
            f"cutoff mismatch: {p.cutoff} vs {q.cutoff} — operands must share a grid"
        )
    known, overflow = _product((p.mass, p.overflow), (q.mass, q.overflow), p.cutoff)
    return Pmf(
        mass=known,
        overflow=overflow,
        meta=f"conv({p.meta or '?'}, {q.meta or '?'})",
    )


def _collapse_in_place(coeff: np.ndarray, table: np.ndarray) -> None:
    """Write ``coeff @ table[:rows]`` over ``table[:n_blocks]`` for a
    ``(n_blocks, rows)`` ``coeff``, one slab of columns at a time.

    Column k of the product reads only column k of the table, so each slab
    is read before it is written.  Slabs start at multiples of
    `_SLAB_COLUMNS` and hold at least `_SLAB_WORK` multiply-adds and
    `_SLAB_ROWS` table rows of entries; the last one also takes the columns
    short of a whole slab, so none is narrower than the others and none has
    a single column.
    """
    n_blocks, rows = coeff.shape
    size = table.shape[1]
    least = max(-(-_SLAB_WORK // (n_blocks * rows)), -(-_SLAB_ROWS * size // n_blocks))
    width = _SLAB_COLUMNS * -(-least // _SLAB_COLUMNS)
    count = max(size // width, 1)
    with one_blas_thread():
        for s in range(count):
            cols = slice(s * width, size if s == count - 1 else (s + 1) * width)
            table[:n_blocks, cols] = coeff @ table[:rows, cols]


def _block_width(count_support: int) -> int:
    """Baby-step width of `compound`: the smallest width up to 256 that
    minimises its product count.

    For count support K, one block (width K + 1) takes K - 1 products; a
    width 2 <= w <= K takes w - 2 baby powers, the giant power and K // w
    Horner steps.  w + K // w <= c holds exactly when w * (c + 1 - w) > K,
    so the widths within each level c form an interval: the least level is
    isqrt(4K + 3), and a level's smallest width is the first integer past
    the quadratic's lower root.  Below its optimal widths the count never
    rises with w, so past the cap the best width is the smallest one at
    width 256's level.
    """
    k = count_support

    def smallest_width(level: int) -> int:
        m = level + 1
        width = (m - math.isqrt(m * m - 4 * k)) // 2
        while width * (m - width) <= k:
            width += 1
        return width

    level = math.isqrt(4 * k + 3)
    if k < level:
        return k + 1
    width = smallest_width(level)
    return width if width <= 256 else smallest_width(256 + k // 256)


def compound(count: Pmf, summand: Pmf) -> Pmf:
    """Law of ``sum_{i=1}^{C} Y_i``: count-weighted summand convolution powers.

    Evaluates sum_k count[k] * summand^{*k} with baby-step/giant-step
    polynomial evaluation: powers 0..J-1 are built once (J - 2 products,
    since powers 0 and 1 are delta_0 and the summand), blocks of J
    coefficients collapse through a matrix product written over the powers,
    one slab of columns at a time, and a Horner pass over summand^{*J},
    formed before the collapse, stitches the blocks: J - 1 + K // J
    products for count support K >= J, K - 1 in one block; `_block_width`
    picks J.  Each power's overflow collapses with it; `_product` reads the
    placed totals from the masses.  Count overflow (C beyond the grid)
    lands in the result's overflow.  Where the summand places nothing at
    zero, the result's zero mass is count[0] exactly.
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

    # Baby steps: summand powers 0..width-1 and their overflows, in the
    # table's first rows; the collapse writes the blocks over them.
    rows = min(width, support + 1)
    table = np.zeros((max(rows, n_blocks), n + 1))
    table[0, 0] = 1.0
    pow_overflow = np.zeros(rows)
    s_spectrum = _spectrum(summand.mass, n + 1)

    def next_power(j: int) -> tuple:  # summand^{*j} from summand^{*(j-1)}
        previous = (table[j - 1], pow_overflow[j - 1])
        return _product(previous, (summand.mass, summand.overflow), n, s_spectrum)

    if rows > 1:  # summand^{*1} is the summand: no product
        table[1], pow_overflow[1] = summand.mass, summand.overflow
    for j in range(2, rows):
        table[j], pow_overflow[j] = next_power(j)
    if n_blocks > 1:  # giant step: summand^{*width}, before the collapse
        giant = next_power(rows)
        g_spectrum = _spectrum(giant[0], n + 1)

    # Collapse count coefficients through the powers, in place.
    padded = np.zeros(n_blocks * width)
    padded[: support + 1] = count.mass[: support + 1]
    # coeff[g, j] = count[g*width + j]
    coeff = padded.reshape(n_blocks, width)[:, :rows]
    with one_blas_thread():
        block_overflow = coeff @ pow_overflow
    _collapse_in_place(coeff, table)

    # Horner from the top block down.  The top block is copied out, so a
    # one-block result does not keep the table alive.
    acc, acc_over = table[n_blocks - 1].copy(), float(block_overflow[n_blocks - 1])
    for g in range(n_blocks - 2, -1, -1):
        known, acc_over = _product((acc, acc_over), giant, n, g_spectrum)
        acc = known + table[g]
        acc_over += float(block_overflow[g])

    return Pmf(
        mass=acc,
        overflow=acc_over + count.overflow,
        meta=f"compound({count.meta or '?'}, {summand.meta or '?'})",
    )


def conditional_nonzero(p: Pmf) -> Pmf:
    """The law of a draw from ``p`` conditioned on being nonzero.

    The scaled masses stay pointwise lower bounds on the true conditional
    law where the divisor, one less the zero mass, is at least the true
    survival: for a generation law it is at least the extinction table's
    p_n (the zero-mass rule in the module docstring).  The overflow is
    taken as exactly one minus the placed mass rather than ``p.overflow /
    alive``: dividing the stored overflow would amplify accumulated float
    drift by ``1/alive``, which rounds outside the conservation window for
    deeply subcritical laws.
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


def _binomial_band(trials: int, alive: float) -> tuple[int, int]:
    """Values of Binomial(trials, alive) kept: mean -+ (12 sd + 12).  The
    mass outside is below `_BINOMIAL_TAIL` (largest near mean 1), and
    dropping it keeps every kept value a lower bound."""
    mean = trials * alive
    spread = 12.0 * math.sqrt(mean * (1.0 - alive)) + 12.0
    return max(0, math.ceil(mean - spread)), math.floor(mean + spread)


def _thinned_offspring_count(offspring: Pmf, alive: float) -> Pmf:
    """Law of Binomial(B, alive) over the in-grid offspring counts k <= N.

    beta[m] = sum_k b_k P(Binomial(k, p) = m) with p = ``alive``, for every
    p.  The counts split into blocks k = g W + j, j < W, and Binomial(g W +
    j) is Binomial(g W) convolved with Binomial(j).  Within a block the
    positive recurrence w[j, i] = w[j, i-1] (j-i+1)/i p/q from w[j, 0] =
    b_{gW+j} q**j collapses the counts (one pass over all blocks per i);
    Binomial(g W), carried from block to block as a band
    (`_binomial_band`) by direct convolution with Binomial(W), places them.
    W keeps q**W a normal float, where a recurrence over all k <= N from
    b_k q**k underflows once q**N does.  Counts above pN + 12 sqrt(pNq) +
    12 are dropped, and so are the counts past the first m whose tail
    sum_{m' > m} beta_m' is below `_BINOMIAL_TAIL`: deep in the chain, pN
    is far below 1 and the band's "+ 12" would keep a dozen counts of mass
    near 1e-30, each costing `compound` products.  The overflow 1 -
    sum(beta) holds the dropped counts and P(B > N), so the result stays a
    sound count.
    """
    n = offspring.cutoff
    q = 1.0 - alive
    ratio = alive / q
    m_max = min(n, _binomial_band(n, alive)[1])
    neg_log_q = -math.log1p(-alive)
    width = n + 1  # one block, where allowed
    while width > 1 and (
        width * neg_log_q > _BLOCK_MAX_NEG_LOG
        or width * (_binomial_band(width, alive)[1] + 1) > _BLOCK_TERMS
    ):
        width = (width + 1) // 2
    n_blocks = -(-(n + 1) // width)
    width = -(-(n + 1) // n_blocks)  # blocks of equal width
    rows = min(width, _binomial_band(width, alive)[1], m_max) + 1
    padded = np.zeros(n_blocks * width)
    padded[: n + 1] = offspring.mass
    j = np.arange(width, dtype=np.float64)
    # w[g, t] = b_{gW+i+t} P(Binomial(i+t, p) = i) at step i; its rows are
    # summed pairwise (a BLAS product would cost ulps of the total).
    w = padded.reshape(n_blocks, width) * np.power(q, j)
    blocks = np.empty((n_blocks, rows))
    blocks[:, 0] = np.sum(w, axis=1)
    for i in range(1, rows):
        w = w[:, 1:] * ((j[i:] - (i - 1)) * (ratio / i))
        blocks[:, i] = np.sum(w, axis=1)
    i = np.arange(1, rows, dtype=np.float64)
    step = np.cumprod(np.concatenate([[q**width], (width - i + 1.0) / i * ratio]))
    beta = np.zeros(n + 1)
    carry, low = np.ones(1), 0  # Binomial(g W, p) on low, low + 1, ...
    for g in range(n_blocks):
        part = np.convolve(carry, blocks[g])[: m_max + 1 - low]
        beta[low : low + part.size] += part
        next_low, next_high = _binomial_band((g + 1) * width, alive)
        if g + 1 == n_blocks or next_low > m_max:
            break
        carry = np.convolve(carry, step)[
            next_low - low : min(next_high, m_max) + 1 - low
        ]
        low = next_low
    tail = np.cumsum(beta[::-1])[::-1]  # tail[m] = sum_{m' >= m} beta_m'
    end = int(np.count_nonzero(tail >= _BINOMIAL_TAIL))
    beta[end:] = 0.0
    return Pmf(
        mass=beta,
        overflow=max(0.0, 1.0 - float(np.sum(beta))),
        meta=f"thinned-offspring(p={alive:.3g})@{end - 1}",
    )


@lru_cache(maxsize=8)
def _chain_cache(params: ModelParams, cutoff: int) -> list:
    """Generation laws D_1, D_2, ... of (params, cutoff), grown in place by
    `dn_pmf`: building generation n requires every earlier generation, and
    the stationary assembly, the prediction checks, and the acceptance suite
    all share them."""
    return [pmf_of(law_B(params), cutoff, meta=f"gen1@{cutoff}")]


def _next_generation(offspring: Pmf, prev: Pmf, survival: float, meta: str) -> Pmf:
    """D_n from D_{n-1} = q delta_0 + p C, with ``survival`` = p_n from the
    model's extinction table.

    sum_{k <= N} b_k D_{n-1}^{*k} is computed as sum_m beta_m C^{*m} with
    beta the thinned offspring count, whose support is about pN rather
    than N, and C places nothing at zero; the zero mass and the overflow
    then follow the zero-mass rule of the module docstring.  Where D_{n-1}
    places no mass above zero, q = 1 and D_n is delta_0, exactly.
    """
    alive = 1.0 - float(prev.mass[0])
    if alive <= 0.0:
        return Pmf(mass=np.eye(1, offspring.mass.size)[0], overflow=0.0, meta=meta)
    mass = compound(
        _thinned_offspring_count(offspring, alive), conditional_nonzero(prev)
    ).mass.copy()
    placed = float(np.sum(mass[1:]))
    zero = 1.0 - survival
    while 1.0 - zero < survival:
        zero = math.nextafter(zero, 0.0)
    zero = min(zero, 1.0 - placed)
    mass[0] = zero
    overflow = (1.0 - zero) - placed
    if placed + overflow < 1.0 - zero:
        overflow = math.nextafter(overflow, math.inf)
    return Pmf(mass=mass, overflow=overflow, meta=meta)


def dn_pmf(params: ModelParams, n: int, cutoff: int) -> Pmf:
    """Exact (bracketed) law of the generation-``n`` aggregate on {0..cutoff}.

    Generation 1 is the offspring law itself.  Each later generation is the
    previous one compounded by the offspring count, thinned first:
    Binomial(B, p) copies of the previous law conditioned on being nonzero,
    with p = P(D_{n-1} > 0), a count with support near pN in place of N, so
    every generation costs fewer convolutions and the laws carry no FFT
    residue from the full-support count.  From generation 2 on, the zero
    mass and the overflow read P(D_n > 0) from the model's extinction
    table (`_next_generation`).  The chains of the 8 most recently used
    (params, cutoff) pairs are cached.
    """
    if n < 1:
        raise ValueError("generation index must be >= 1")
    laws = _chain_cache(params, cutoff)
    while len(laws) < n:
        m = len(laws) + 1
        survival = float(extinction_table(params, m)[m])
        laws.append(
            _next_generation(laws[0], laws[-1], survival, meta=f"gen{m}@{cutoff}")
        )
    return laws[n - 1]


def _series_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of the power-series product ``a * b``."""
    return _conv_full(a[:n], b[:n], law=False)[:n]


def _series_reciprocal(f: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of ``1/f`` for ``f[0] == 1``, by Newton's
    iteration g <- g + g (1 - f g), which doubles the correct coefficients
    of g; only the error terms of f g past them are multiplied back.

    A step from h to m coefficients needs only (f g)[h:m], a middle product
    (Hanrot, Quercia & Zimmermann, "The middle product algorithm I", AAECC
    14, 2004): in the cyclic product of length L = fast(m) >= m, entry k >=
    L of f g (k <= m + h - 2) lands on k - L <= h - 2, which the step
    drops.  The update g e has m - 1 <= L entries and does not wrap, so
    both products share g's spectrum.
    A step adding at most `_DIRECT_FLOOR` coefficients (the last one to
    N + 1 = 2^k + 1 adds one) sums them directly instead.
    """
    g = np.ones(1)
    while g.size < n:
        h, m = g.size, min(2 * g.size, n)
        if m - h <= _DIRECT_FLOOR:
            with one_blas_thread():  # np.convolve sums by BLAS dot products
                error = np.convolve(f[1:m], g, "valid")
            g = np.concatenate([g, -np.convolve(g[: m - h], error)[: m - h]])
            continue
        # 0, the full product, where the kernel's rule says direct.
        cyclic = _fft_length(m, h, law=False) and _next_fast_len(m)
        g_spectrum = _spectrum(g, m, cyclic)
        error = _conv_full(f[:m], g, g_spectrum, cyclic=cyclic)[h:m]
        update = _conv_full(error, g, g_spectrum, cyclic=cyclic)
        g = np.concatenate([g, -update[: m - h]])
    return g


def _series_log(f: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of ``ln f`` for ``f[0] == 1``: the integral of
    f'/f."""
    k = np.arange(1, n, dtype=np.float64)
    quotient = _series_product(f[1:n] * k, _series_reciprocal(f, n - 1), n - 1)
    return np.concatenate([[0.0], quotient / k])


def generation_term(aggregate: Pmf) -> Pmf:
    """Law of the sum of A independent copies of ``aggregate``, A the
    immigration count: one generation's total contribution to the
    stationary value when ``aggregate`` is D_n (from `dn_pmf`).

    With p = P(aggregate > 0) < 1/2, r = p/(1-p) and C the pgf of the
    conditional nonzero aggregate, the immigration pgf G(s) = 1 + (1-s)
    ln(1-s)/s at s = 1 - p(1 - C) is 1 + r (1 - C)(ln p + ln(1 - C)) /
    (1 + r C), here on power series cut after coefficient N.  Those
    coefficients depend only on C's first N + 1, so no count is dropped and
    the overflow is the mass above N.  The series of 1/(1 + r C) diverges
    for r >= 1, so for p >= 1/2 the law is ``compound`` over the counts
    A <= N, and P(A > N) = 1/(N + 1) goes to the overflow.  A pure function
    of ``aggregate``, safe to run on any thread.
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
        return compound(pmf_of(LawA, aggregate.cutoff), aggregate)
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
    stopping before the first n whose extinction probability 1 - p_n, from
    the model's table, rounds to 1: every later generation's does too, and
    its term has nothing to place.  D_n's zero mass, at most 1 - p_n
    rounded down, is below 1 at every n before that.

    The chain D_{n+1} is built on the calling thread while term n runs on
    ``pool``, one term ahead of the one being yielded.  An error of chain
    step n + 1, or of term n + 1, is raised only after term n is yielded, so
    a consumer that stops at n never sees it.
    """
    ahead = None  # the term submitted last and not yet yielded
    for n in range(1, max_iter + 1):
        if 1.0 - extinction_table(params, n)[n] >= 1.0:
            break
        try:
            law = dn_pmf(params, n, cutoff)
        except Exception:
            if ahead is not None:
                yield ahead.result()
            raise
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
