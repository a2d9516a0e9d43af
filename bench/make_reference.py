"""Write ``bench/reference.json``: oracle survival brackets the benchmark's
correctness checks compare against.

The stored brackets come from the commit that defined the benchmark.  Checks
require a measured bracket or confidence interval to *intersect* the stored
one, so a later change that tightens brackets still passes.

    python3 bench/make_reference.py
"""

import json

from worker import BENCH_DIR, import_bigjump, setup

XS = (10, 64, 100, 256, 1024, 4096)
CUTOFF = 1 << 14


def main() -> None:
    import_bigjump()
    from bigjump import oracle

    pi = oracle.stationary_pmf(setup(), CUTOFF)
    out = {str(CUTOFF): {str(x): list(pi.survival_bracket(x)) for x in XS}}
    (BENCH_DIR / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
