#!/usr/bin/env python3
"""Compare the two independent samplers against each other and the oracle.

Draws the stationary law two ways — by running the population chain past its
burn-in, and by summing a cluster of generation contributions — then reports
a two-sample KS test plus empirical survival estimates next to the certified
oracle bracket.

Example:
    python3 scripts/sampler_agreement.py --samples 50000 --seed 7
"""

import argparse

from bigjump import oracle, sampler, stats
from bigjump.model import calibrate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--b", type=float, default=0.5)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--samples", type=int, default=20_000)
    parser.add_argument("--burnin", type=int, default=1_000)
    parser.add_argument("--depth", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cutoff", type=int, default=1 << 13)
    args = parser.parse_args()

    params = calibrate(args.b, args.epsilon)

    print(f"chain: {args.samples} samples after burn-in {args.burnin} ...")
    chain = sampler.run_chain(
        params,
        sampler.ChainConfig(n_samples=args.samples, burn_in=args.burnin),
        sampler.RngStream(seed=args.seed, stream_id=0),
    )
    print(f"cluster: {args.samples} samples at depth {args.depth} ...")
    clusters = sampler.sample_clusters(
        params,
        args.depth,
        args.samples,
        sampler.RngStream(seed=args.seed, stream_id=1),
    )
    cluster_values = clusters.value
    print(
        f"  truncation remainder bound {clusters.remainder_bound:.3e}; "
        f"events: chain {chain.events or 'none'}\n"
    )

    statistic, critical, reject = stats.ks_two_sample(
        chain.samples, cluster_values, alpha=0.01
    )
    verdict = "laws differ" if reject else "no detectable difference"
    print(
        f"KS two-sample: statistic {statistic:.5f} vs critical "
        f"{critical:.5f} (alpha 1%) -> {verdict}\n"
    )

    pmf = oracle.stationary_pmf(params, args.cutoff)
    xs = [10, 100, 1000]
    chain_curve = stats.empirical_survival(chain.samples, xs, level=0.99)
    cluster_curve = stats.empirical_survival(cluster_values, xs, level=0.99)
    print(f"{'x':>6} {'chain est':>12} {'cluster est':>12} {'oracle bracket':>28}")
    for i, x in enumerate(xs):
        lo, hi = pmf.survival_bracket(x)
        print(
            f"{x:>6} {chain_curve.estimate[i]:>12.6f} "
            f"{cluster_curve.estimate[i]:>12.6f} "
            f"[{lo:.6f}, {hi:.6f}]"
        )


if __name__ == "__main__":
    main()
