#!/usr/bin/env python3
"""Dissect how large values happen: one big contribution, or many small ones?

Samples clusters, keeps those exceeding a threshold, and attributes each
exceedance to its largest component (the immigration term or a single
generation's aggregate).  At heavy-tailed thresholds a single component
should dominate the overwhelming majority of exceedances — the share of
such "one big cause" events is printed last.

Example:
    python3 scripts/exceedance_anatomy.py --x 100 --samples 200000
"""

import argparse

import numpy as np

from bigjump import sampler, stats
from bigjump.model import calibrate, survival_A


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--b", type=float, default=0.5)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--x", type=int, default=100)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--depth", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    params = calibrate(args.b, args.epsilon)
    print(f"sampling {args.samples} clusters at depth {args.depth} ...")
    clusters = sampler.sample_clusters(
        params,
        args.depth,
        args.samples,
        sampler.RngStream(seed=args.seed, stream_id=0),
    )
    try:
        summary = stats.attribution_summary(clusters, args.x)
    except ValueError:
        print(f"no samples above x={args.x}; raise --samples or lower --x")
        return
    print(f"  {summary.total} exceedances above x={args.x}\n")

    labels = ["immigration", *(f"gen {n}" for n in range(1, summary.counts.size))]
    width = max(map(len, labels))
    for c in np.argsort(-summary.counts, kind="stable"):
        count = int(summary.counts[c])
        if count:
            print(f"  {labels[c]:<{width}}  {count:>7}  {count / summary.total:>7.3%}")

    # Crude single-cause benchmark: the chance that one immigration draw
    # (or one generation, scaled by its typical size) alone clears x.
    single = survival_A(args.x) + sum(
        survival_A(args.x / params.b**n) for n in range(1, args.depth + 1)
    )
    print(
        f"\ndominant-component share: {summary.dominant_share:.3%} "
        f"(single-cause benchmark ~{single * args.samples / summary.total:.3%})"
    )


if __name__ == "__main__":
    main()
