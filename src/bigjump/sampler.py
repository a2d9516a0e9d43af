"""Monte Carlo samplers for the branching fixed point.

Two independent sampling routes to the stationary law:

* **Markov chain** (`run_chain`): iterate the recursion
  ``X' = A + sum_{i <= X} B_i`` from zero.  Each step draws the offspring
  sum by thinning — a Binomial count of nonzero children followed by
  conditional draws from ``(B | B >= 1)`` — which is identical in law to
  summing ``X`` independent copies of ``B`` but costs ``O(theta * X)``
  conditional draws instead of ``X``.

* **Cluster sampling** (`sample_cluster`): resolve the stationary value
  into its per-generation contributions — immigration plus, for each
  generation ``n``, a thinned count of nonzero depth-``n`` aggregates with
  conditional aggregate sizes drawn by rejection.  The truncation error of
  stopping at depth ``m`` is certified by an explicit bound carried on
  every sample.

All randomness flows through :class:`RngStream`, a counter-based generator
with explicit ``(seed, stream_id)`` addressing: the same pair reproduces the
same draws bit-for-bit, distinct stream ids are statistically independent,
and tallies accumulated on different streams merge commutatively.

Every cap (population saturation, immigration-value overflow, rejection
retries) is recorded in the stream's event counter — saturation is never
silent.  Runs intended as ground truth should assert the counters are zero.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .model import (
    ModelParams,
    depth_remainder_bound,
    extinction_table,
    law_B,
    survival_B,
)

__all__ = [
    "A_VALUE_CAP",
    "DEFAULT_MAX_POPULATION",
    "Attribution",
    "ChainConfig",
    "ChainResult",
    "ClusterSample",
    "RngStream",
    "attribute",
    "chain_step",
    "run_chain",
    "sample_A",
    "sample_B",
    "sample_Dn",
    "sample_cluster",
    "sample_clusters",
]

#: Immigration draws are capped at this value (with an ``a_value_cap`` event);
#: the uniform resolution below ``2**-62`` cannot distinguish larger values.
A_VALUE_CAP = 1 << 62

#: Default saturation cap for population sizes.  Large enough that honest
#: runs at desk scale never touch it, small enough that batched integer
#: accumulation stays exact (see `_grow_one_level`).
DEFAULT_MAX_POPULATION = 1 << 26

#: Population caps above this would let batched per-tree sums exceed the
#: exact-integer range of float64 accumulation, so the tree engines refuse.
_MAX_EXACT_POPULATION = 1 << 26

#: Largest number of offspring draws requested from the generator at once.
_DRAW_CHUNK = 1 << 22

#: A rejection round asking for ``need`` conditional aggregates may spend at
#: most ``_REJECTION_RETRY_CAP * need / p`` candidate trees before giving up
#: (recording ``rejection_cap`` and substituting the smallest valid value).
#: The exhaustion probability is below ``exp(-_REJECTION_RETRY_CAP * need)``.
_REJECTION_RETRY_CAP = 60

#: Absolute wall on candidate trees per rejection call, so a conditional
#: draw at extreme depth (acceptance probability ~ b**n) stalls for bounded
#: time and records ``rejection_cap`` instead of running for hours.
_REJECTION_BUDGET_WALL = 1 << 28


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
            this stream (``a_value_cap``, ``population_cap``,
            ``rejection_cap``).
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
    config: ChainConfig
    events: dict

    def __post_init__(self) -> None:
        self.samples.setflags(write=False)


@dataclass(frozen=True)
class ClusterSample:
    """One stationary draw resolved into per-generation contributions.

    ``value = immigration + sum(gen_contrib)`` holds exactly by
    construction; ``gen_contrib[n - 1]`` is the total size of the
    generation-``n`` aggregates, for ``n = 1 .. depth``.  ``remainder_bound``
    bounds the probability that any generation beyond ``depth`` would have
    contributed at all, so the sampled law is within that total-variation
    distance of the untruncated one.
    """

    value: int
    immigration: int
    gen_contrib: tuple
    depth: int
    remainder_bound: float

    def __post_init__(self) -> None:
        if self.value != self.immigration + sum(self.gen_contrib):
            raise ValueError("value must equal immigration + sum(gen_contrib)")
        if len(self.gen_contrib) != self.depth:
            raise ValueError("gen_contrib must have one entry per generation")


@dataclass(frozen=True)
class Attribution:
    """Which component of a cluster sample carried its large value."""

    label: str
    component: int
    value: int
    dominant: bool


def sample_A(stream: RngStream) -> int:
    """One immigration draw: ``floor(1/U)``, so ``P(A > k) = 1/(1 + k)``.

    Draws below the uniform resolution (``U < 2**-62``) are capped at
    `A_VALUE_CAP` with an ``a_value_cap`` event recorded — the inversion
    cannot resolve larger values.
    """
    u = stream.generator.random()
    if u < 2.0**-62:
        stream.events["a_value_cap"] += 1
        return A_VALUE_CAP
    return int(1.0 / u)


def _sample_a_batch(stream: RngStream, size: int) -> np.ndarray:
    """Vectorized immigration draws with the same cap-and-record contract."""
    u = stream.generator.random(size)
    capped = u < 2.0**-62
    n_capped = int(capped.sum())
    if n_capped:
        stream.events["a_value_cap"] += n_capped
        u = u.copy()
        u[capped] = 1.0  # placeholder; overwritten below
    values = (1.0 / u).astype(np.int64)
    if n_capped:
        values[capped] = A_VALUE_CAP
    return values


def _invert_b_tail(params: ModelParams, u: float) -> int:
    """Smallest ``k`` with ``P(B > k) < u``, for ``u`` below the table floor.

    Exponential search brackets the level crossing, bisection pins it; the
    analytic survival function is evaluated with the same formula that built
    the table, so the seam at the table edge is exact.  Values beyond
    `A_VALUE_CAP` are saturated (the uniform grid cannot resolve them).
    """
    lo = params.tail_table_cutoff  # survival(lo) >= u by construction
    hi = 2 * lo
    while survival_B(params, hi) >= u:
        lo = hi
        hi *= 2
        if hi >= A_VALUE_CAP:
            return A_VALUE_CAP
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if survival_B(params, mid) >= u:
            lo = mid
        else:
            hi = mid
    return hi


def _invert_b_uniforms(params: ModelParams, u: np.ndarray) -> np.ndarray:
    """Map uniforms to offspring values: ``B = min{k : P(B > k) < u}``.

    The precomputed survival table answers all but the ~``3e-8`` tail via
    one vectorized binary search; deeper uniforms fall through to analytic
    bisection element by element.
    """
    key = law_B(params).search_key
    values = np.searchsorted(key, -u, side="right")
    deep = np.flatnonzero(values == key.size)
    for i in deep:
        values[i] = _invert_b_tail(params, float(u[i]))
    return values


def sample_B(
    params: ModelParams, stream: RngStream, size: Optional[int] = None
) -> Union[int, np.ndarray]:
    """Offspring draws by survival inversion (scalar, or a batch of `size`).

    Uniforms above ``P(B > 0)`` map to zero; the rest invert the precomputed
    survival table (binary search), falling back to analytic bisection
    beyond the table — so the draw is exact in distribution at every scale.
    """
    if size is None:
        return int(_invert_b_uniforms(params, stream.generator.random(1))[0])
    return _invert_b_uniforms(params, stream.generator.random(size))


def _conditional_b_batch(
    params: ModelParams, stream: RngStream, size: int
) -> np.ndarray:
    """Draws from ``(B | B >= 1)`` by inverting the conditional survival.

    Scaling the uniforms into ``(0, P(B > 0))`` reuses the unconditional
    inversion: the result is the exact conditional law, at one table search
    per draw.
    """
    theta = float(law_B(params).survival_table[0])
    u = stream.generator.random(size) * theta
    return _invert_b_uniforms(params, u)


def chain_step(
    params: ModelParams,
    x: int,
    stream: RngStream,
    max_population: int = DEFAULT_MAX_POPULATION,
) -> int:
    """One transition ``x -> A + sum_{i <= x} B_i``, offspring sum by thinning.

    The number of nonzero children is ``Binomial(x, P(B > 0))``; each is then
    drawn from ``(B | B >= 1)``.  This is identical in law to summing ``x``
    independent offspring draws at a fraction of the cost.  Totals beyond
    ``max_population`` saturate with a ``population_cap`` event — never
    silently.
    """
    if x < 0:
        raise ValueError("population must be >= 0")
    total = sample_A(stream)
    if x > 0:
        theta = float(law_B(params).survival_table[0])
        k = int(stream.generator.binomial(x, theta))
        if k > 0:
            draws = _conditional_b_batch(params, stream, k)
            # Float guard first: the exact int64 sum is only formed once the
            # total is known to be small enough to be exact.
            if float(draws.sum(dtype=np.float64)) + total > max_population:
                stream.events["population_cap"] += 1
                return max_population
            total += int(draws.sum())
    if total > max_population:
        stream.events["population_cap"] += 1
        return max_population
    return total


def run_chain(
    params: ModelParams, config: ChainConfig, stream: RngStream
) -> ChainResult:
    """Run the chain from zero and emit stationary-law samples.

    The start at zero makes the marginal law stochastically increasing in
    time, so any residual burn-in bias underestimates tails (one-sided).
    Emits every step after discarding ``burn_in`` steps; the result carries
    the cap events recorded during this run.
    """
    before = dict(stream.events)
    samples = np.empty(config.n_samples, dtype=np.int64)
    x = 0
    for _ in range(config.burn_in):
        x = chain_step(params, x, stream, config.max_population)
    for i in range(config.n_samples):
        x = chain_step(params, x, stream, config.max_population)
        samples[i] = x
    delta = {
        key: count - before.get(key, 0)
        for key, count in stream.events.items()
        if count - before.get(key, 0)
    }
    return ChainResult(samples=samples, config=config, events=delta)


def _grow_one_level(
    params: ModelParams,
    populations: np.ndarray,
    saturated: np.ndarray,
    stream: RngStream,
    max_population: int,
) -> None:
    """Advance a batch of branching populations by one generation, in place.

    Every individual in every non-saturated tree draws an offspring count;
    per-tree totals are accumulated exactly (counts and values are both at
    most ``2**26``, so the float64 partial sums stay below ``2**53``).
    Trees whose population crosses ``max_population`` saturate — the cap is
    absorbing and recorded — so the level cost stays bounded.
    """
    active = np.flatnonzero((populations > 0) & ~saturated)
    if active.size == 0:
        return
    counts = populations[active]
    new_totals = np.zeros(active.size, dtype=np.float64)
    # Chunk the flat draw so one level never materializes a huge array.
    tree_of_individual = np.repeat(np.arange(active.size), counts)
    start = 0
    total_individuals = int(counts.sum())
    while start < total_individuals:
        stop = min(start + _DRAW_CHUNK, total_individuals)
        draws = _invert_b_uniforms(params, stream.generator.random(stop - start))
        # Clip one above the cap so a draw at or past it still trips the
        # saturation test below instead of silently landing exactly on it.
        np.minimum(draws, max_population + 1, out=draws)
        new_totals += np.bincount(
            tree_of_individual[start:stop],
            weights=draws,
            minlength=active.size,
        )
        start = stop
    over = new_totals > max_population
    n_over = int(over.sum())
    if n_over:
        stream.events["population_cap"] += n_over
        saturated[active[over]] = True
        new_totals[over] = max_population
    populations[active] = new_totals.astype(np.int64)


def _simulate_trees(
    params: ModelParams,
    n: int,
    count: int,
    stream: RngStream,
    max_population: int,
) -> np.ndarray:
    """Sizes of generation ``n`` for ``count`` independent branching trees.

    Iterates exactly ``n`` levels from single roots, so the recursion depth
    equals ``n`` by construction and the expected work per tree is the total
    expected population, ``O(1 / (1 - b))``.
    """
    if n < 0:
        raise ValueError("generation must be >= 0")
    if max_population > _MAX_EXACT_POPULATION:
        raise ValueError(
            "tree engines require max_population <= 2**26 for exact sums"
        )
    populations = np.ones(count, dtype=np.int64)
    saturated = np.zeros(count, dtype=bool)
    for _ in range(n):
        if not populations.any():
            break
        _grow_one_level(params, populations, saturated, stream, max_population)
    return populations


def sample_Dn(
    params: ModelParams,
    n: int,
    stream: RngStream,
    max_population: int = DEFAULT_MAX_POPULATION,
) -> int:
    """Size of generation ``n`` of one branching tree (direct simulation)."""
    if n < 0:
        raise ValueError("generation must be >= 0")
    return int(_simulate_trees(params, n, 1, stream, max_population)[0])


def _conditional_dn_batch(
    params: ModelParams,
    n: int,
    need: int,
    p_survive: float,
    stream: RngStream,
    max_population: int,
) -> np.ndarray:
    """``need`` draws from the nonzero-conditioned generation-``n`` size.

    Rejection sampling: simulate candidate trees, keep those whose
    generation ``n`` is nonzero.  Acceptance probability is ``p_survive``,
    so batches are sized at slightly above ``need / p_survive`` candidates.
    A candidate budget of ``_REJECTION_RETRY_CAP * need / p_survive`` (capped
    by an absolute wall) bounds the worst case; exhausting it — probability
    below ``exp(-_REJECTION_RETRY_CAP * need)`` unless the wall bites —
    records ``rejection_cap`` events and substitutes the smallest valid
    value for the unfilled draws.
    """
    out = np.empty(need, dtype=np.int64)
    filled = 0
    budget = int(np.ceil(_REJECTION_RETRY_CAP * max(need, 1) / p_survive)) + 64
    budget = min(budget, _REJECTION_BUDGET_WALL)
    while filled < need and budget > 0:
        deficit = need - filled
        chunk = min(budget, _DRAW_CHUNK, int(1.4 * deficit / p_survive) + 16)
        budget -= chunk
        values = _simulate_trees(params, n, chunk, stream, max_population)
        accepted = values[values > 0]
        take = min(accepted.size, deficit)
        out[filled : filled + take] = accepted[:take]
        filled += take
    if filled < need:
        stream.events["rejection_cap"] += need - filled
        out[filled:] = 1
    return out


def sample_clusters(
    params: ModelParams,
    depth: int,
    count: int,
    stream: RngStream,
    max_population: int = DEFAULT_MAX_POPULATION,
) -> list:
    """Draw ``count`` stationary samples resolved by generation (batched).

    For each sample: one immigration draw, then for each generation
    ``n = 1 .. depth`` an independent immigration count whose nonzero
    depth-``n`` aggregates are selected by Binomial thinning at the
    survival probability ``p[n]`` and sized by conditional rejection draws.
    The batch engine vectorizes across samples per generation; draw order
    is deterministic, so a fixed ``(seed, stream_id)`` reproduces the batch
    bit-for-bit (the order differs from calling `sample_cluster` in a loop,
    but the law is the same).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    survival = extinction_table(params, depth).p
    remainder = depth_remainder_bound(params, depth)
    immigration = _sample_a_batch(stream, count)
    contrib = np.zeros((count, depth), dtype=np.int64)
    for n in range(1, depth + 1):
        counts = _sample_a_batch(stream, count)
        p_n = float(survival[n])
        nonzero = stream.generator.binomial(counts, p_n)
        over = nonzero > max_population
        n_over = int(over.sum())
        if n_over:
            # More nonzero aggregates than the cap: the total would exceed
            # the cap regardless of their sizes.
            stream.events["population_cap"] += n_over
            contrib[over, n - 1] = max_population
            nonzero = np.where(over, 0, nonzero)
        need = int(nonzero.sum())
        if need:
            values = _conditional_dn_batch(
                params, n, need, p_n, stream, max_population
            )
            np.minimum(values, max_population, out=values)
            owners = np.repeat(np.arange(count), nonzero)
            totals = np.bincount(owners, weights=values, minlength=count)
            capped = totals > max_population
            n_capped = int(capped.sum())
            if n_capped:
                stream.events["population_cap"] += n_capped
                totals[capped] = max_population
            contrib[:, n - 1] += totals.astype(np.int64)
    gen_totals = contrib.sum(axis=1)
    return [
        ClusterSample(
            value=int(immigration[i] + gen_totals[i]),
            immigration=int(immigration[i]),
            gen_contrib=tuple(int(v) for v in contrib[i]),
            depth=depth,
            remainder_bound=remainder,
        )
        for i in range(count)
    ]


def sample_cluster(
    params: ModelParams,
    depth: int,
    stream: RngStream,
    max_population: int = DEFAULT_MAX_POPULATION,
) -> ClusterSample:
    """One stationary draw resolved into per-generation contributions."""
    return sample_clusters(params, depth, 1, stream, max_population)[0]


def attribute(sample: ClusterSample, x: int) -> Attribution:
    """Name the component that carried a sample past the threshold ``x``.

    Requires ``sample.value > x``.  The winning component is the largest of
    ``(immigration, gen_contrib[0], .., gen_contrib[depth - 1])``, ties going
    to the lowest index (immigration first); it is ``dominant`` iff it alone
    exceeds ``x / 2``.
    """
    if sample.value <= x:
        raise ValueError(
            f"attribution requires value > threshold, got {sample.value} <= {x}"
        )
    components = (sample.immigration, *sample.gen_contrib)
    winner = int(np.argmax(components))
    value = components[winner]
    label = "immigration" if winner == 0 else f"gen {winner}"
    return Attribution(
        label=label,
        component=winner,
        value=int(value),
        dominant=2 * value > x,
    )
