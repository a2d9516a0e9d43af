"""Heavy-tailed branching fixed point: calibrated laws, samplers, an exact
truncated-pmf oracle, closed-form tail asymptotics, and verification tooling.

The central object is the distributional fixed point

    X =d A + B_1 + ... + B_X

for an immigration count ``A`` with survival exactly ``1/(1+k)`` and an
offspring count ``B`` with mean ``b < 1`` and a tail at the boundary index 1.
The package computes the stationary law three independent ways (Markov-chain
sampling, cluster-expansion sampling, exact truncated-pmf fixed-point
iteration) and evaluates every closed-form tail predictor next to them.
"""

from bigjump.model import (
    ExtinctionTable,
    LawA,
    LawB,
    ModelParams,
    calibrate,
    depth_remainder_bound,
    extinction_table,
    law_B,
    offspring_mean_bracket,
    pgf_B,
    pmf_A,
    survival_A,
    survival_B,
    truncated_mean_A,
)
from bigjump.sampler import (
    Attribution,
    ChainConfig,
    ChainResult,
    ClusterBatch,
    RngStream,
    attribute,
    run_chain,
    sample_clusters,
)
from bigjump.oracle import (
    Pmf,
    RandomSumCheck,
    TailRatioBracket,
    compound,
    conv_tail_ratio,
    convolve,
    dn_pmf,
    pmf_of,
    random_sum_check,
    stationary_pmf,
)
from bigjump.asymptotics import (
    PredictionTable,
    a_tail_sums,
    correction_sum,
    decomposition_pred,
    generation_tail_pred,
    leading_tail,
    prediction_table,
    second_scale,
    series_identities,
    two_scale_total,
)
from bigjump.stats import (
    AttributionSummary,
    TailCurve,
    attribution_summary,
    clopper_pearson,
    empirical_survival,
    ks_two_sample,
)

__version__ = "0.1.0"

__all__ = [
    # model
    "ExtinctionTable",
    "LawA",
    "LawB",
    "ModelParams",
    "calibrate",
    "depth_remainder_bound",
    "extinction_table",
    "law_B",
    "offspring_mean_bracket",
    "pgf_B",
    "pmf_A",
    "survival_A",
    "survival_B",
    "truncated_mean_A",
    # sampler
    "Attribution",
    "ChainConfig",
    "ChainResult",
    "ClusterBatch",
    "RngStream",
    "attribute",
    "run_chain",
    "sample_clusters",
    # oracle
    "Pmf",
    "RandomSumCheck",
    "TailRatioBracket",
    "compound",
    "conv_tail_ratio",
    "convolve",
    "dn_pmf",
    "pmf_of",
    "random_sum_check",
    "stationary_pmf",
    # asymptotics
    "PredictionTable",
    "a_tail_sums",
    "correction_sum",
    "decomposition_pred",
    "generation_tail_pred",
    "leading_tail",
    "prediction_table",
    "second_scale",
    "series_identities",
    "two_scale_total",
    # stats
    "AttributionSummary",
    "TailCurve",
    "attribution_summary",
    "clopper_pearson",
    "empirical_survival",
    "ks_two_sample",
    "__version__",
]
