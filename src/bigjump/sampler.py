"""Monte Carlo samplers for the branching fixed point.

Two independent sampling routes to the stationary law:

* **Markov chain** (`run_chain`): iterate the recursion
  ``X' = A + sum_{i <= X} B_i`` from zero.  Each step draws the offspring
  sum by thinning — a Binomial count of nonzero children, then conditional
  draws from ``(B | B >= 1)``, identical in law to summing ``X`` copies of
  ``B`` — and reads its immigration and conditional draws from blocks, so
  it costs one scalar binomial call.

* **Cluster sampling** (`sample_clusters`): resolve the stationary value
  into its per-generation contributions — immigration plus, for each
  generation ``n``, a thinned count of nonzero depth-``n`` aggregates.
  Each nonzero aggregate ``(D_n | D_n > 0)`` is drawn exactly by following
  the first surviving lineage of a tree conditioned on survival
  (`_surviving_sums`), so no tree is simulated and then thrown away.  The
  truncation error of stopping at depth ``m`` is certified by an explicit
  bound carried on the batch.

All randomness flows through :class:`RngStream`, a counter-based generator
with explicit ``(seed, stream_id)`` addressing: the same pair reproduces the
same draws bit-for-bit, distinct stream ids are statistically independent,
and tallies accumulated on different streams merge commutatively.

Every cap (population saturation, value overflow at `A_VALUE_CAP`) is
recorded in the stream's event counter — saturation is never silent.  Runs
intended as ground truth should assert the counters are zero.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .model import ModelParams, depth_remainder_bound, extinction_table, law_B

__all__ = [
    "A_VALUE_CAP",
    "DEFAULT_MAX_POPULATION",
    "ChainConfig",
    "ChainResult",
    "ClusterBatch",
    "RngStream",
    "run_chain",
    "sample_clusters",
]

#: Immigration draws are capped at this value (with an ``a_value_cap`` event);
#: the uniform resolution below ``2**-62`` cannot distinguish larger values.
A_VALUE_CAP = 1 << 62

#: Default saturation cap for population sizes.  Large enough that honest
#: runs at desk scale never touch it; also the largest cap cluster sampling
#: accepts, since larger ones would let its float64 per-owner sums of
#: clipped draws pass the exact-integer range (see `_surviving_sums`).
DEFAULT_MAX_POPULATION = 1 << 26

#: Largest number of individuals whose draws are requested at once.
_DRAW_CHUNK = 1 << 22

#: Steps per immigration block, and draws per offspring pool, of `run_chain`.
_CHAIN_BLOCK = 4096


@dataclass
class RngStream:
    """Counter-based random stream addressed by ``(seed, stream_id)``.

    Identical pairs reproduce identical draw sequences across runs and
    platforms; distinct ``stream_id`` values index statistically independent
    streams of the same seed, so worker shards can draw concurrently and
    merge their event tallies commutatively.  A single stream must never be
    shared between concurrent consumers — give each worker its own id.

    Attributes:
        seed: base seed, ``0 <= seed < 2**64``.
        stream_id: stream index, ``0 <= stream_id < 2**64``.
        generator: the wrapped `numpy` generator (counter-based bit stream).
        events: tally of cap events recorded by sampling routines fed from
            this stream (``a_value_cap``, ``population_cap``).
    """

    seed: int
    stream_id: int = 0
    generator: np.random.Generator = field(init=False, repr=False, compare=False)
    events: Counter = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not 0 <= int(value) < 1 << 64:
                raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
        key = int(self.seed) + (int(self.stream_id) << 64)
        self.generator = np.random.Generator(np.random.Philox(key=key))
        self.events = Counter()


@dataclass(frozen=True)
class ChainConfig:
    """Run parameters for the Markov-chain sampler.

    Attributes:
        n_samples: number of emitted samples (post burn-in).
        burn_in: steps discarded before emitting; the chain starts at zero
            and is stochastically increasing toward the stationary law, so
            residual burn-in bias is one-sided (tails are underestimated).
        max_population: saturation cap for the population per step.
    """

    n_samples: int
    burn_in: int = 1000
    max_population: int = DEFAULT_MAX_POPULATION

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.max_population < 1 << 20:
            raise ValueError("max_population must be >= 2**20")


@dataclass(frozen=True)
class ChainResult:
    """Samples plus the cap events recorded during one chain run."""

    samples: np.ndarray
    events: dict

    def __post_init__(self) -> None:
        self.samples.setflags(write=False)


class ClusterRow(NamedTuple):
    """One sample of a `ClusterBatch`, read by row."""

    value: int
    immigration: int
    gen_contrib: tuple
    depth: int
    remainder_bound: float


@dataclass(frozen=True, eq=False)
class ClusterBatch:
    """Stationary draws resolved into per-generation contributions, by column.

    ``gen_contrib[i, n - 1]`` is sample ``i``'s generation-``n`` total and
    ``value = immigration + gen_contrib.sum(axis=1)`` by construction.
    ``remainder_bound`` bounds the probability that any generation beyond
    ``depth`` would have contributed, so the sampled law is within that
    total-variation distance of the untruncated one.  ``len``, indexing and
    iteration read samples as `ClusterRow` tuples.
    """

    immigration: np.ndarray
    gen_contrib: np.ndarray
    remainder_bound: float
    value: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        contrib = self.gen_contrib
        if contrib.ndim != 2 or len(contrib) != len(self.immigration):
            raise ValueError("gen_contrib must hold one row per sample")
        object.__setattr__(self, "value", self.immigration + contrib.sum(axis=1))
        for column in (self.immigration, contrib, self.value):
            column.setflags(write=False)

    @property
    def depth(self) -> int:
        return self.gen_contrib.shape[1]

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, i: int) -> ClusterRow:
        contrib = tuple(self.gen_contrib[i].tolist())
        row = (int(self.value[i]), int(self.immigration[i]), contrib)
        return ClusterRow(*row, self.depth, self.remainder_bound)

    def __iter__(self):
        tail = (self.depth, self.remainder_bound)
        columns = (self.value, self.immigration, self.gen_contrib)
        for value, immigration, contrib in zip(*(c.tolist() for c in columns)):
            yield ClusterRow(value, immigration, tuple(contrib), *tail)


def _sample_a_batch(stream: RngStream, size: int) -> np.ndarray:
    """Immigration draws ``floor(1/U)``, so ``P(A > k) = 1/(1 + k)``.

    Draws below the uniform resolution (``U < 2**-62``) are capped at
    `A_VALUE_CAP` with an ``a_value_cap`` event each: the inversion cannot
    resolve larger values.
    """
    u = stream.generator.random(size)
    n_capped = int(np.count_nonzero(u < 2.0**-62))
    if n_capped:
        stream.events["a_value_cap"] += n_capped
    return (1.0 / np.maximum(u, 2.0**-62)).astype(np.int64)


def _invert_b_tail(params: ModelParams, u: np.ndarray) -> np.ndarray:
    """Smallest ``k`` with ``P(B > k) < u``, elementwise, for ``u`` below the
    table floor.

    Exponential search brackets each level crossing, bisection pins it; all
    uniforms advance together, each through the comparisons a one-at-a-time
    search makes.  The analytic survival function is the table's formula,
    so the seam is exact.  Values beyond `A_VALUE_CAP` saturate there.
    """
    survival = law_B(params).survival
    lo = np.full(u.shape, params.tail_table_cutoff, dtype=np.int64)
    hi = 2 * lo  # survival(lo) >= u by construction
    todo = np.arange(u.size)
    while todo.size:
        todo = todo[survival(hi[todo]) >= u[todo]]
        lo[todo] = hi[todo]
        hi[todo] *= 2
        capped = todo[hi[todo] >= A_VALUE_CAP]
        lo[capped], hi[capped] = A_VALUE_CAP - 1, A_VALUE_CAP  # answer: the cap
        todo = todo[hi[todo] < A_VALUE_CAP]
    todo = np.flatnonzero(hi - lo > 1)
    while todo.size:
        mid = (lo[todo] + hi[todo]) // 2
        below = survival(mid) >= u[todo]
        lo[todo[below]] = mid[below]
        hi[todo[~below]] = mid[~below]
        todo = todo[hi[todo] - lo[todo] > 1]
    return hi


def _invert_b_uniforms(params: ModelParams, u: np.ndarray) -> np.ndarray:
    """Map uniforms to offspring values: ``B = min{k : P(B > k) < u}``.

    Uniforms above ``P(B > 0)`` map to zero.  The precomputed survival
    table answers all but the ~``3e-8`` tail via one vectorized binary
    search; deeper uniforms fall through to the analytic bisection, so the
    draw is exact in distribution at every scale.
    """
    key = law_B(params).search_key
    values = np.searchsorted(key, -u, side="right")
    deep = np.flatnonzero(values == key.size)
    if deep.size:
        values[deep] = _invert_b_tail(params, u[deep])
    return values


def _conditional_b_batch(
    params: ModelParams, stream: RngStream, size: int
) -> np.ndarray:
    """Exact draws from ``(B | B >= 1)``: uniforms scaled into ``(0, P(B > 0))``
    by the unconditional inversion, one table search per draw."""
    return _invert_b_uniforms(params, stream.generator.random(size) * params.theta)


def _chain_path(
    params: ModelParams, stream: RngStream, x: int, steps: int, max_population: int
) -> np.ndarray:
    """The chain's next ``steps`` states from state ``x``, drawn as
    `run_chain`'s stream contract says.  ``k ~ Binomial(x, P(B > 0))``
    nonzero children, each from ``(B | B >= 1)``, are identical in law to
    ``x`` offspring draws; up to a block of them cost one subtraction of
    the pool's exact prefix sums.  Totals beyond ``max_population``
    saturate with a ``population_cap`` event, never silently."""
    block, theta = _CHAIN_BLOCK, params.theta
    binomial, events = stream.generator.binomial, stream.events
    path = np.empty(steps, dtype=np.int64)
    prefix, used = [0], 0  # the pool's prefix sums; its draws read so far
    for start in range(0, steps, block):
        immigration = _sample_a_batch(stream, min(block, steps - start)).tolist()
        for i, total in enumerate(immigration, start):
            k = binomial(x, theta)
            if k > block:  # a float guard before the exact int64 sum
                draws = _conditional_b_batch(params, stream, k)
                big = float(draws.sum(dtype=np.float64)) + total > max_population
                total = max_population + 1 if big else total + int(draws.sum())
            elif k:
                if used + k >= len(prefix):
                    draws = _conditional_b_batch(params, stream, block).tolist()
                    prefix, used = list(accumulate(draws, initial=0)), 0
                total += prefix[used + k] - prefix[used]
                used += k
            if total > max_population:
                events["population_cap"] += 1
                total = max_population
            path[i] = x = total
    return path


def run_chain(
    params: ModelParams, config: ChainConfig, stream: RngStream
) -> ChainResult:
    """Run the chain from zero and emit stationary-law samples.

    The start at zero makes the marginal law stochastically increasing in
    time, so any residual burn-in bias underestimates tails (one-sided).
    Emits every step after discarding ``burn_in`` steps of `_chain_path`;
    the result carries the cap events recorded during this run.

    Stream contract, with ``S = burn_in + n_samples`` steps and ``N =
    _CHAIN_BLOCK``: before steps ``0, N, 2N, ...`` come the immigration
    uniforms of the next ``min(N, S - step)`` steps; each step then makes
    one scalar ``binomial(x, theta)`` call (which draws nothing at ``x =
    0``); a step with ``k <= N`` children that the pool cannot serve first
    draws ``N`` uniforms for a new pool, dropping the old one's unread
    draws; a step with ``k > N`` draws ``k`` uniforms of its own.  Burn-in
    steps draw exactly as emitted ones do, so ``burn_in = b, n_samples = n``
    emits the last ``n`` samples of ``burn_in = 0, n_samples = b + n``.
    """
    before = stream.events.copy()
    steps = config.burn_in + config.n_samples
    path = _chain_path(params, stream, 0, steps, config.max_population)
    events = dict(stream.events - before)  # counts only grow
    return ChainResult(samples=path[config.burn_in :], events=events)


@lru_cache(maxsize=8)
def _equilibrium_cdf(params: ModelParams) -> np.ndarray:
    """CDF of ``P(K = k) = P(B > k) / b`` over the survival table's ``k``."""
    cdf = np.cumsum(law_B(params).survival_table) / params.b
    cdf.setflags(write=False)
    return cdf


def _equilibrium_tail(params: ModelParams, stream: RngStream, size: int) -> np.ndarray:
    """``size`` draws of ``P(K = k) = P(B > k) / b`` conditioned on ``k > N``,
    ``N`` the survival table's cutoff.

    Proposals ``t`` follow the envelope ``g(t) = 1/((e+t) log(e+t)**(1+eps))``
    on ``t > N``, which inverts in closed form: ``log(e+t) = log(e+N) *
    V**(-1/eps)``.  The cell ``(k-1, k]`` proposes ``k = ceil(t)``, accepted
    with probability ``phi(k) / (M g(t))``; ``M = (e+N)/(1+N)`` bounds
    ``phi(ceil(t)) / g(t)``, so each ``k`` is accepted with mass
    proportional to ``phi(k)``: the law is exact.  Proposals at or past
    `A_VALUE_CAP` saturate there, accepted at the ratio's limit ``1/M``;
    `_surviving_sums` records those it keeps.
    """
    cutoff, eps = params.tail_table_cutoff, params.epsilon
    inv_m = (1.0 + cutoff) / (math.e + cutoff)
    out = np.empty(size, dtype=np.int64)
    todo = np.arange(size)
    while todo.size:
        v = 1.0 - stream.generator.random(todo.size)
        w = stream.generator.random(todo.size)
        with np.errstate(over="ignore"):
            log_t = math.log(math.e + cutoff) * v ** (-1.0 / eps)  # log(e+t)
        k = np.full(todo.size, float(A_VALUE_CAP))
        accept = w < inv_m
        fine = np.flatnonzero(log_t < math.log(A_VALUE_CAP))
        t = np.exp(log_t[fine]) - math.e
        k[fine] = kf = np.maximum(np.ceil(t), cutoff + 1.0)
        shape = (log_t[fine] / np.log(math.e + kf)) ** (1.0 + eps)
        accept[fine] = w[fine] < inv_m * (math.e + t) / (1.0 + kf) * shape
        out[todo[accept]] = k[accept]
        todo = todo[~accept]
    return out


def _spine_positions(
    params: ModelParams, log_q: np.ndarray, stream: RngStream
) -> np.ndarray:
    """Per conditioned individual, the number ``K`` of children before its
    first surviving one: ``P(K = k)`` proportional to ``P(B > k) * q**k``,
    with ``log_q`` its children's log extinction probability.

    Proposals follow the equilibrium law ``P(K = k) = P(B > k) / b``: a
    table search, or `_equilibrium_tail` beyond the table (4.3% at the
    default ``b = 0.5, eps = 1``).  Each is accepted with probability
    ``q**K``, and the rest are retried.
    """
    cdf = _equilibrium_cdf(params)
    k = np.empty(log_q.size, dtype=np.int64)
    todo = np.arange(log_q.size)
    while todo.size:
        proposal = np.searchsorted(cdf, stream.generator.random(todo.size), "right")
        deep = np.flatnonzero(proposal == cdf.size)
        if deep.size:
            proposal[deep] = _equilibrium_tail(params, stream, deep.size)
        keep = stream.generator.random(todo.size) < np.exp(proposal * log_q[todo])
        k[todo[keep]] = proposal[keep]
        todo = todo[~keep]
    return k


def _owner_chunks(alive: np.ndarray):
    """Owner of each individual of a frontier with ``alive[o]`` individuals
    per owner, `_DRAW_CHUNK` individuals at a time."""
    active = np.flatnonzero(alive)
    ends = np.cumsum(alive[active])
    total = int(ends[-1]) if ends.size else 0
    for start in range(0, total, _DRAW_CHUNK):
        positions = np.arange(start, min(start + _DRAW_CHUNK, total))
        yield active[np.searchsorted(ends, positions, side="right")]


def _surviving_sums(
    params: ModelParams,
    alive: np.ndarray,
    dist: np.ndarray,
    p: np.ndarray,
    stream: RngStream,
    max_population: int,
) -> np.ndarray:
    """Per owner ``o``, the sum of ``alive[o]`` independent draws of
    ``(D_d | D_d > 0)``, ``d = dist[o]``, along first surviving lineages
    (Geiger 1999; Lyons, Pemantle & Peres 1995).

    A conditioned individual at distance 1 from the target adds its brood
    ``(B | B >= 1)``.  One at distance ``d >= 2`` has ``K`` children before
    its first surviving one (`_spine_positions`) in a brood ``J ~ (B | B >
    K)``: those ``K`` die out, the next survives, and ``Binomial(J - K - 1,
    p[d-1])`` of the rest survive; the survivors go on at distance ``d - 1``.
    All owners advance one distance per round; ``p[n] = P(D_n > 0)`` must
    reach ``max(dist)``.  An owner whose frontier or total passes
    ``max_population`` saturates there, with one ``population_cap`` event;
    each ``K`` or ``J`` saturated at `A_VALUE_CAP` (siblings beyond it go
    uncounted) records an ``a_value_cap`` event.
    """
    n = alive.astype(np.float64)
    d = dist.copy()
    sums = np.zeros(n.size, dtype=np.int64)
    while n.any():
        over = n > max_population  # a frontier past the cap: each adds >= 1
        n[over] = 0.0
        grown, broods = np.zeros(n.size), np.zeros(n.size)
        for who in _owner_chunks(n.astype(np.int64)):
            leaf = d[who] == 1
            if leaf.any():
                draws = _conditional_b_batch(params, stream, int(leaf.sum()))
                np.minimum(draws, max_population + 1, out=draws)
                broods += np.bincount(who[leaf], weights=draws, minlength=n.size)
            inner = who[~leaf]
            if inner.size:
                d_in = d[inner]
                k = _spine_positions(params, np.log1p(-p[d_in - 1]), stream)
                u = stream.generator.random(k.size) * law_B(params).survival(k)
                j = _invert_b_uniforms(params, u)
                n_capped = int(np.count_nonzero(j == A_VALUE_CAP))  # K or J
                if n_capped:
                    stream.events["a_value_cap"] += n_capped
                r = stream.generator.binomial(np.maximum(j - k - 1, 0), p[d_in - 1])
                grown += np.bincount(inner, weights=1.0 + r, minlength=n.size)
        finished = (d == 1) & (n > 0)
        sums[finished] = broods[finished]
        over |= broods > max_population
        if over.any():
            stream.events["population_cap"] += int(over.sum())
            sums[over] = max_population
        n = grown
        d -= 1
    return sums


def sample_clusters(
    params: ModelParams,
    depth: int,
    count: int,
    stream: RngStream,
    max_population: int = DEFAULT_MAX_POPULATION,
) -> ClusterBatch:
    """Draw ``count`` stationary samples resolved by generation (batched).

    For each sample: one immigration draw, then for each generation
    ``n = 1 .. depth`` an independent immigration count whose nonzero
    depth-``n`` aggregates are selected by Binomial thinning at the
    survival probability ``p[n]``; every generation's aggregates are then
    drawn together by `_surviving_sums`.  ``p`` and the batch's
    ``remainder_bound`` come from the model's one extinction table.  Draw
    order is deterministic, so a fixed ``(seed, stream_id)`` reproduces the
    batch bit-for-bit; the cached tables never change a draw.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if max_population > DEFAULT_MAX_POPULATION:
        raise ValueError("cluster sampling needs max_population <= 2**26 (exact sums)")
    p = extinction_table(params, depth)
    immigration = _sample_a_batch(stream, count)
    contrib = np.empty((count, depth), dtype=np.int64)
    for n in range(1, depth + 1):
        counts = _sample_a_batch(stream, count)
        contrib[:, n - 1] = stream.generator.binomial(counts, p[n])
    owners = np.flatnonzero(contrib)  # (sample, generation) cells
    flat = contrib.reshape(-1)
    flat[owners] = _surviving_sums(
        params, flat[owners], owners % depth + 1, p, stream, max_population
    )
    return ClusterBatch(immigration, contrib, depth_remainder_bound(params, depth))

