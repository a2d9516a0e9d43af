"""One timed unit of a benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per timed run, because the oracle keeps
module-global caches (``oracle._chain_cache``): a second in-process
``stationary_pmf`` measures a warm program.  Modes:

* ``setup``            import bigjump, ``calibrate`` and build ``law_B``;
* ``oracle-fft``       cold ``stationary_pmf`` plus bracket reads;
* ``sampling``         chain, cluster and statistics ops on derived streams;
* ``cli``              the ``bigjump`` command line, optionally traced.

Each mode writes ``result.json`` (and, traced, ``spans.json``) into ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracer import MISSING_TARGET_EXIT, Tracer, TraceTargetMissing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
B, EPSILON = 0.5, 1.0
DEPTH = 40
# Statistical checks run thousands of times across benchmark runs, so their
# false-alarm rates are set far below the suite's 0.01.
KS_ALPHA = 1e-9
CP_LEVEL = 1.0 - 1e-9
ORACLE_XS = (64, 256, 1024, 4096)
SAMPLING_XS = (10, 100)


def import_bigjump() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import bigjump

    where = Path(bigjump.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"bigjump imported from {where}, not from {ROOT / 'src'}")


def setup():
    from bigjump import model

    params = model.calibrate(B, EPSILON)
    model.law_B(params)
    return params


def reference() -> dict:
    """Survival brackets of the cutoff-2^14 oracle stored with the benchmark,
    keyed by x; see ``make_reference.py``."""
    with open(BENCH_DIR / "reference.json") as fh:
        return json.load(fh)["16384"]


def intersects(lo, hi, ref, slack=1e-12) -> bool:
    return lo <= ref[1] + slack and ref[0] <= hi + slack


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Ops:
    """Tally of ops: one call with its correctness check.

    A failed check is an error (wrong output) unless ``refused``: the call
    completed correctly but hit a recorded sampler cap, which counts as
    failed only.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def check(self, name: str, ok: bool, detail="", refused=False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not refused:
                self.errors.append(f"{name}: {detail}")

    def merge(self, tally: dict) -> None:
        self.attempted += tally["attempted"]
        self.failed += tally["failed"]
        self.errors += tally["errors"]

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


# ---------------------------------------------------------------------------
# oracle-fft
# ---------------------------------------------------------------------------


def run_oracle(args, tracer) -> dict:
    import numpy as np
    from bigjump import oracle

    ref = reference()
    ops = Ops()
    params = setup()
    root = tracer.span("solve") if tracer else nullcontext()
    t0 = time.perf_counter()
    with root:
        pi = oracle.stationary_pmf(params, args.cutoff)
        brackets = {x: pi.survival_bracket(x) for x in ORACLE_XS}
    solve_s = time.perf_counter() - t0

    deficit = abs(1.0 - float(np.sum(pi.mass)) - pi.overflow)
    monotone = bool(np.all(np.diff(pi.survival_curve()) <= 0.0))
    ops.check("stationary_pmf", deficit <= 1e-9 and monotone, f"deficit {deficit:.3e}, monotone {monotone}")
    for x, (lo, hi) in brackets.items():
        ok = lo <= hi and intersects(lo, hi, ref[str(x)])
        ops.check(f"survival_bracket({x})", ok, f"[{lo!r}, {hi!r}] vs {ref[str(x)]}")
    return {
        "solve_s": solve_s,
        "ops": ops.as_dict(),
        "overflow": pi.overflow,
        "brackets": {str(x): list(b) for x, b in brackets.items()},
    }


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sampling_op(params, seed: int, k: int, args, tracer=None) -> dict:
    """One op group on streams ``2k`` (chain) and ``2k+1`` (clusters)."""
    import numpy as np
    from bigjump import sampler, stats

    ref = reference()
    chain_stream = sampler.RngStream(seed, 2 * k)
    cluster_stream = sampler.RngStream(seed, 2 * k + 1)
    times = {}
    block = time.perf_counter()
    with tracer.span("solve") if tracer else nullcontext():
        t = time.perf_counter()
        chain = sampler.run_chain(
            params, sampler.ChainConfig(n_samples=args.chain_samples, burn_in=1000), chain_stream
        )
        times["run_chain"] = time.perf_counter() - t
        t = time.perf_counter()
        clusters = sampler.sample_clusters(params, DEPTH, args.cluster_samples, cluster_stream)
        times["sample_clusters"] = time.perf_counter() - t
        values = np.fromiter((c.value for c in clusters), dtype=np.int64, count=len(clusters))
        t = time.perf_counter()
        statistic, critical, reject = stats.ks_two_sample(chain.samples, values, alpha=KS_ALPHA)
        times["ks_two_sample"] = time.perf_counter() - t
        t = time.perf_counter()
        curve = stats.empirical_survival(values, SAMPLING_XS, level=CP_LEVEL)
        times["empirical_survival"] = time.perf_counter() - t
    block_s = time.perf_counter() - block

    ops = Ops()
    chain_ok = chain.samples.size == args.chain_samples and int(chain.samples.min()) >= 0
    ops.check("run_chain", chain_ok and not chain.events, f"events {chain.events}", refused=chain_ok)
    events = dict(cluster_stream.events)
    clusters_ok = len(clusters) == args.cluster_samples and clusters[0].remainder_bound < 1e-3
    ops.check("sample_clusters", clusters_ok and not events, f"events {events}", refused=clusters_ok)
    sane = 0.0 <= statistic <= 1.0 and reject == (statistic > critical)
    ops.check("ks_two_sample", sane, f"statistic {statistic}, critical {critical}, reject {reject}")
    for i, x in enumerate(SAMPLING_XS):
        lo, hi = float(curve.ci_lo[i]), float(curve.ci_hi[i])
        ops.check(f"empirical_survival({x})", intersects(lo, hi, ref[str(x)]), f"CP [{lo}, {hi}] vs {ref[str(x)]}")
    return {
        "times": times,
        "op_s": sum(times.values()),
        "block_s": block_s,
        "chain": chain.samples,
        "values": values,
        "cap_events": sum(chain.events.values()) + sum(events.values()),
        "value_sum": int(sum(int(v) for v in values)),
        "ops": ops.as_dict(),
    }


def pooled_checks(chains, values, ops: Ops) -> None:
    import numpy as np
    from bigjump import stats

    ref = reference()
    chain, clusters = np.concatenate(chains), np.concatenate(values)
    statistic, critical, reject = stats.ks_two_sample(chain, clusters, alpha=KS_ALPHA)
    ops.check("pooled ks_two_sample", not reject, f"statistic {statistic} > critical {critical}")
    curve = stats.empirical_survival(clusters, SAMPLING_XS, level=CP_LEVEL)
    for i, x in enumerate(SAMPLING_XS):
        lo, hi = float(curve.ci_lo[i]), float(curve.ci_hi[i])
        ops.check(f"pooled empirical_survival({x})", intersects(lo, hi, ref[str(x)]), f"CP [{lo}, {hi}]")


def run_sampling(args, tracer) -> dict:
    """Ops ``--first`` to ``--first + --ops - 1`` on streams derived from
    ``--seed``, so a seed fixes the work.  Traced, each op runs untraced and
    then traced on the same streams."""
    import numpy as np

    ops = Ops()
    with tracer.installed() if tracer else nullcontext():
        params = setup()
    chains, values, op_s, block_s, traced_block_s = [], [], [], [], []
    cap_events = value_sum = 0
    for k in range(args.first, args.first + args.ops):
        op = sampling_op(params, args.seed, k, args)
        if tracer:
            with tracer.installed():
                again = sampling_op(params, args.seed, k, args, tracer)
            ops.merge(again["ops"])
            same = np.array_equal(again["values"], op["values"])
            ops.check("traced op reproduces untraced op", same, f"op {k}")
            traced_block_s.append(again["block_s"])
        op_s.append(op["op_s"])
        block_s.append(op["block_s"])
        ops.merge(op["ops"])
        chains.append(op["chain"])
        values.append(op["values"])
        cap_events += op["cap_events"]
        value_sum += op["value_sum"]
    pooled_checks(chains, values, ops)
    return {
        "op_s": op_s,
        "block_s": block_s,
        "traced_block_s": traced_block_s,
        "ops": ops.as_dict(),
        "cap_events": cap_events,
        "cluster_value_sum": value_sum,
        "chain_steps": args.ops * (args.chain_samples + 1000),
        "cluster_samples": args.ops * args.cluster_samples,
    }


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def run_cli(argv, trace_file) -> int:
    from bigjump import cli

    if not trace_file:
        return cli.main(argv)
    tracer = Tracer()
    with tracer.installed():
        code = cli.main(argv)
    tracer.dump(trace_file, command=argv[0])
    return code


def main() -> int:
    argv = sys.argv[1:]
    cli_args = []
    if "--" in argv:
        argv, cli_args = argv[: argv.index("--")], argv[argv.index("--") + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "oracle-fft", "sampling", "cli"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=int, default=0)
    # Sizes come from run.py's `Sizes`; the modes that use them need them.
    parser.add_argument("--seed", type=int)
    parser.add_argument("--cutoff", type=int)
    parser.add_argument("--chain-samples", type=int)
    parser.add_argument("--cluster-samples", type=int)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--first", type=int, default=0, help="sampling: index of the first op")
    parser.add_argument("--trace-file", help="cli mode: write spans here")
    args = parser.parse_args(argv)

    import_bigjump()
    try:
        return run_mode(args, cli_args)
    except TraceTargetMissing as exc:
        print(f"trace target missing: {exc}", file=sys.stderr)
        return MISSING_TARGET_EXIT


def run_mode(args, cli_args) -> int:
    if args.mode == "setup":
        setup()
        return 0
    if args.mode == "cli":
        return run_cli(cli_args, args.trace_file)

    tracer = Tracer() if args.trace else None
    if args.mode == "oracle-fft":
        with tracer.installed() if tracer else nullcontext():
            result = run_oracle(args, tracer)
    else:
        result = run_sampling(args, tracer)
    result["versions"] = versions()
    (args.out / "result.json").write_text(json.dumps(result, indent=1))
    if tracer:
        tracer.dump(args.out / "spans.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
