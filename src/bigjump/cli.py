"""Command-line interface over the model, samplers, oracle, and predictors.

Subcommands
-----------
* ``model``     — calibration summary (JSON).
* ``predict``   — closed-form tail predictors on a threshold grid (CSV).
* ``oracle``    — truncated stationary pmf with survival brackets (CSV).
* ``simulate``  — chain or cluster samples (CSV).
* ``verify``    — the acceptance-check suite (JSON report; exit 0 iff all
  selected checks pass, 1 otherwise).
* ``attribute`` — exceedance attribution of cluster samples (CSV).

One JSON config file holds every knob; command-line flags override single
values (flags win over the file, the file wins over defaults).  The default
seed — used only when neither the config nor a flag sets one — may be
overridden by the ``BIGJUMP_SEED`` environment variable.  Each knob is one
dataclass field whose metadata holds its limits and its flag's help: one
pass in ``RunConfig.validate`` checks them all (a value out of range exits
2), and every field is the flag ``--<name-with-dashes>`` (``--burnin`` for
``simulate.burn_in``).

Artifacts are deterministic given (config, seed): no timestamps, shortest
round-trip float formatting, fixed column orders (documented per subcommand
in ``--help``).  Every artifact embeds the hash of the effective config and
the seed — CSV files in a leading ``#`` comment, JSON files in a
``provenance`` block.  Files are written to a temporary sibling and
atomically renamed, so readers never observe a partial artifact.  The
timings side file ``verify_timings.json`` is not an artifact.

Exit codes: 0 success (for ``verify``: every selected check passed);
1 ``verify`` ran but a check failed; 2 config parse or validation error;
3 a sampler cap was hit (saturation, recorded in the events counters).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np
import scipy

from . import asymptotics, oracle, sampler, stats
from .model import (
    LawA,
    ModelParams,
    calibrate,
    depth_remainder_bound,
    extinction_table,
    law_B,
    offspring_mean_bracket,
)

DEFAULT_SEED = 20260821
_SEED_ENV_VAR = "BIGJUMP_SEED"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SATURATED = 3


class ConfigError(ValueError):
    """Raised for malformed or out-of-range configuration; maps to exit 2."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _setting(default, help: str, flag: Optional[str] = None, **limits):
    """Declare one config field: its default, its flag's help text, its flag
    where that is not ``--<name-with-dashes>``, and its limits (``gt``,
    ``ge``, ``lt``, ``le`` or ``choices``), which ``RunConfig.validate``
    checks."""
    return field(default=default, metadata={"help": help, "flag": flag, **limits})


@dataclass(frozen=True)
class ModelConfig:
    b: float = _setting(0.5, "offspring mean", gt=0, lt=1)
    epsilon: float = _setting(1.0, "tail log exponent offset", gt=0)
    tolerance: float = _setting(1e-10, "calibration tolerance", gt=0)


@dataclass(frozen=True)
class SimulateConfig:
    method: str = _setting("chain", "which sampler draws", choices=("chain", "cluster"))
    samples: int = _setting(10_000, "number of samples", ge=1)
    burn_in: int = _setting(1_000, "chain steps dropped first", flag="--burnin", ge=0)
    depth: int = _setting(40, "cluster generations drawn", ge=1)
    # None: DEFAULT_SEED (or its env override)
    seed: Optional[int] = _setting(None, "random seed", ge=0, lt=1 << 64)
    streams: int = _setting(1, "independent substreams", ge=1)
    # At most 2**26: cluster sums are exact only up to there.
    max_population: int = _setting(
        sampler.DEFAULT_MAX_POPULATION,
        "sampler population cap",
        ge=1 << 20,
        le=sampler.DEFAULT_MAX_POPULATION,
    )


@dataclass(frozen=True)
class OracleConfig:
    cutoff: int = _setting(1 << 16, "oracle pmf truncation", ge=16)
    tol: float = _setting(1e-11, "assembly stopping gap", gt=0)
    max_iter: int = _setting(60, "assembly iteration cap", ge=1)


@dataclass(frozen=True)
class PredictConfig:
    x_grid: tuple = _setting((100.0, 1000.0, 10_000.0), "comma-separated x", gt=0)
    n_max: int = _setting(6, "generations in the decomposition", ge=1)


@dataclass(frozen=True)
class VerifyConfig:
    suite: str = _setting("all", "'all' or comma-separated check ids")
    confidence: float = _setting(0.999, "survival interval level", gt=0, lt=1)


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    predict: PredictConfig = field(default_factory=PredictConfig)
    verify: VerifyConfig = field(default_factory=VerifyConfig)

    def validate(self) -> None:
        """Check every field against its declaration (type, finiteness,
        limits), then the two rules that are not limits: the grid's order
        and the suite's check names."""
        for name, f, hint in _declared_fields():
            value = getattr(getattr(self, name), f.name)
            _check_value(f"{name}.{f.name}", value, hint, f.metadata)
        grid = self.predict.x_grid
        if len(grid) == 0:
            raise ConfigError("predict.x_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("predict.x_grid must be strictly increasing")
        tokens = _suite_tokens(self.verify.suite)
        if not tokens:
            raise ConfigError("verify.suite selects no checks")
        for token in tokens:
            if token not in CHECK_IDS:
                raise ConfigError(
                    f"unknown verify.suite entry '{token}'; known: "
                    f"{', '.join(CHECK_IDS)}"
                )

    @property
    def seed(self) -> int:
        """Effective seed: explicit config value, else the (env-overridable)
        default."""
        if self.simulate.seed is not None:
            return self.simulate.seed
        raw = os.environ.get(_SEED_ENV_VAR)
        if raw is not None:
            try:
                value = int(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{_SEED_ENV_VAR} must be an integer, got '{raw}'"
                ) from exc
            seed_limits = SimulateConfig.__dataclass_fields__["seed"].metadata
            _check_value(_SEED_ENV_VAR, value, int, seed_limits)
            return value
        return DEFAULT_SEED

    def params(self) -> ModelParams:
        """The calibrated model; a calibration that cannot meet the model
        section (an unreachable tolerance, a failed tail bracket) is a
        config error."""
        m = self.model
        try:
            return calibrate(m.b, m.epsilon, tolerance=m.tolerance)
        except (ValueError, RuntimeError) as exc:
            raise ConfigError(
                f"cannot calibrate model.b={m.b}, model.epsilon={m.epsilon} "
                f"to model.tolerance={m.tolerance}: {exc}"
            ) from exc

    def canonical_dict(self) -> dict:
        d = asdict(self)
        d["simulate"]["seed"] = self.seed  # resolve before hashing
        d["predict"]["x_grid"] = [float(x) for x in self.predict.x_grid]
        return d

    def config_hash(self) -> str:
        text = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


_SECTION_TYPES = get_type_hints(RunConfig)  # section name -> its dataclass
_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
           "lt": (operator.lt, "<"), "le": (operator.le, "<=")}


def _declared_fields():
    """Yield (section name, field, type hint) for every config field."""
    for name, cls in _SECTION_TYPES.items():
        hints = get_type_hints(cls)
        for f in fields(cls):
            yield name, f, hints[f.name]


def _check_value(where: str, value, hint, limits) -> None:
    """Check one config value against its field's type and limits.

    ``bool`` is not accepted as ``int``, ``int`` is accepted as ``float``,
    and a float must be finite; ``Optional`` fields also take ``null`` and
    the ``tuple`` field is a list of numbers, each held to the limits.
    """
    if get_origin(hint) is Union:
        if value is None:
            return
        (hint,) = (h for h in get_args(hint) if h is not type(None))
    if hint is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list of numbers")
        for x in value:
            _check_value(f"{where} entry", x, float, limits)
        return
    kinds = (int, float) if hint is float else (hint,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = "a number" if hint is float else f"of type {hint.__name__}"
        raise ConfigError(f"{where} must be {expected}, got {value!r}")
    choices = limits.get("choices")
    if choices is not None and value not in choices:
        wanted = ", ".join(repr(c) for c in choices)
        raise ConfigError(f"{where} must be one of {wanted}, got {value!r}")
    bounds = [(_BOUNDS[key], limits[key]) for key in _BOUNDS if key in limits]
    finite = not isinstance(value, float) or math.isfinite(value)
    if not (finite and all(op(value, bound) for (op, _), bound in bounds)):
        wanted = ["finite"] if isinstance(value, float) else []
        wanted += [f"{sign} {bound}" for (_, sign), bound in bounds]
        raise ConfigError(f"{where} must be {' and '.join(wanted)}, got {value!r}")


def _build_section(name: str, cls, data: dict):
    """One section from its JSON object; ``RunConfig.validate`` checks the
    values, and a JSON array (the grid) becomes a tuple."""
    for key in data:
        if key not in cls.__dataclass_fields__:
            raise ConfigError(f"unknown config key '{key}' in section '{name}'")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})


def load_config(path: Optional[str]) -> RunConfig:
    """Read a JSON config file; unknown keys are rejected by name."""
    if path is None:
        return RunConfig()
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    sections = {}
    for key, value in data.items():
        if key not in _SECTION_TYPES:
            raise ConfigError(f"unknown config key '{key}'")
        if not isinstance(value, dict):
            raise ConfigError(f"config section '{key}' must be an object")
        sections[key] = _build_section(key, _SECTION_TYPES[key], value)
    return RunConfig(**sections)


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Fold command-line flags into the config (flags win).

    Every config field name is unique across sections and ``build_parser``
    makes it the ``dest`` of its flag, so each non-None ``args.<field>``
    replaces that field.
    """
    sections = {}
    for name in _SECTION_TYPES:
        section = getattr(config, name)
        supplied = {
            key: getattr(args, key)
            for key in section.__dataclass_fields__
            if getattr(args, key, None) is not None
        }
        sections[name] = replace(section, **supplied)
    return RunConfig(**sections)


# ---------------------------------------------------------------------------
# Deterministic artifact writing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain digits for ints."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _csv_artifact(
    path: Path, columns: list, rows, config: RunConfig, extra_comment: str = ""
) -> None:
    lines = [f"# config_hash={config.config_hash()} seed={config.seed}"]
    if extra_comment:
        lines.append(f"# {extra_comment}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_artifact(path: Path, payload: dict, config: RunConfig) -> None:
    payload = dict(payload)
    payload["provenance"] = _provenance(config)
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _provenance(config: RunConfig) -> dict:
    from . import __version__

    return {
        "seed": config.seed,
        "config_hash": config.config_hash(),
        "versions": {
            "bigjump": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_model(config: RunConfig, out_dir: Path) -> int:
    params = config.params()
    lo, hi = offspring_mean_bracket(params)
    survival = extinction_table(params, 5).p
    payload = {
        "b": params.b,
        "epsilon": params.epsilon,
        "theta": params.theta,
        "series_const": params.series_const,
        "tail_table_cutoff": params.tail_table_cutoff,
        "offspring_mean_bracket": {"lo": lo, "hi": hi},
        "extinction_survival": {f"p{n}": float(survival[n]) for n in range(1, 6)},
    }
    path = out_dir / "model.json"
    _json_artifact(path, payload, config)
    print(path)
    return EXIT_OK


def _cmd_predict(config: RunConfig, out_dir: Path) -> int:
    params = config.params()
    xs = [float(x) for x in config.predict.x_grid]
    try:
        table = asymptotics.prediction_table(params, xs, config.predict.n_max)
    except ValueError as exc:
        raise ConfigError(f"predict.x_grid at model.b = {params.b}: {exc}") from exc
    columns = [
        "leading",
        "second_scale",
        "two_scale_total",
        "decomposition",
        "a_tail_exact",
        "a_tail_asym",
    ]
    rows = [
        (x, *(float(getattr(table, column)[i]) for column in columns))
        for i, x in enumerate(xs)
    ]
    path = out_dir / "predict.csv"
    _csv_artifact(path, ["x", *columns], rows, config)
    print(path)
    return EXIT_OK


def _stationary_pmf(params: ModelParams, config: RunConfig) -> oracle.Pmf:
    """The oracle's stationary law under the configured truncation.

    Generation 1's term takes the series reciprocal 1/(1 + r C), stable only
    for ``r = theta/(1-theta) < 1``, ``theta = P(B >= 1)``, so larger
    ``theta`` is refused as a config error rather than a traceback, as is an
    iteration that does not converge within ``oracle.max_iter``.  A large
    depth remainder is not refused: it widens the law's brackets, up to
    [0, 1] where it reaches 1.
    """
    where = f"b = {params.b}, epsilon = {params.epsilon}"
    if params.theta >= 0.5:
        raise ConfigError(
            f"the oracle needs theta = P(B >= 1) < 0.5, got theta = "
            f"{params.theta:.6g} at {where}"
        )
    try:
        return oracle.stationary_pmf(
            params,
            config.oracle.cutoff,
            tol=config.oracle.tol,
            max_iter=config.oracle.max_iter,
        )
    except oracle.NotConverged as exc:
        raise ConfigError(
            f"the oracle did not converge at {where}: sup-norm gap "
            f"{exc.gap:.3e} still above oracle.tol = {exc.tol:g} after "
            f"oracle.max_iter = {exc.max_iter} iterations; "
            + _sufficient_max_iter(params, exc.tol, exc.max_iter)
        ) from exc


def _sufficient_max_iter(params: ModelParams, tol: float, max_iter: int) -> str:
    """``oracle.max_iter = m + 1`` for the first ``m >= max_iter`` with a
    depth remainder below ``tol``: the generations past ``m`` add less than
    ``tol`` to any survival, so the gap is below it by iteration ``m + 1``.
    The search gives up where ``P(D_m > 0)`` leaves float resolution."""
    m = max_iter
    while depth_remainder_bound(params, m) >= tol:
        if extinction_table(params, m).q[m] == 1.0:
            return (
                "no oracle.max_iter brings the depth remainder below it "
                "before P(D_n > 0) leaves float resolution"
            )
        m += 1
    return f"oracle.max_iter = {m + 1} suffices"


def _cmd_oracle(config: RunConfig, out_dir: Path) -> int:
    pi = _stationary_pmf(config.params(), config)
    hi_curve = np.minimum(pi.survival_curve(), 1.0)
    lo_curve = np.maximum(pi.survival_curve() - pi.overflow, 0.0)
    rows = (
        (k, float(pi.mass[k]), float(lo_curve[k]), float(hi_curve[k]))
        for k in range(pi.mass.size)
    )
    path = out_dir / "oracle.csv"
    _csv_artifact(
        path,
        ["k", "mass", "survival_lo", "survival_hi"],
        rows,
        config,
        extra_comment=f"law={pi.meta} overflow={_fmt(pi.overflow)}",
    )
    print(path)
    return EXIT_OK


def _cmd_simulate(config: RunConfig, out_dir: Path) -> int:
    params = config.params()
    sim = config.simulate
    columns = ["sample_index", "value", "method", "stream_id"]
    if sim.method == "cluster":
        gen_cols = [f"gen_{n}" for n in range(1, sim.depth + 1)]
        columns += ["immigration", *gen_cols, "remainder_bound"]
    rows = []
    events = Counter()
    # The samples split evenly, the remainder going to the early streams;
    # streams past the sample count would draw none and are skipped.
    share, extra = divmod(sim.samples, sim.streams)
    for stream_id in range(min(sim.streams, sim.samples)):
        n = share + (stream_id < extra)
        stream = sampler.RngStream(seed=config.seed, stream_id=stream_id)
        if sim.method == "chain":
            chain = sampler.ChainConfig(
                n_samples=n, burn_in=sim.burn_in, max_population=sim.max_population
            )
            result = sampler.run_chain(params, chain, stream)
            events.update(result.events)
            draws = [(int(value),) for value in result.samples]
        else:
            clusters = sampler.sample_clusters(
                params, sim.depth, n, stream, sim.max_population
            )
            events.update(stream.events)
            draws = [(v, imm, *gens, bound) for v, imm, gens, _, bound in clusters]
        for value, *parts in draws:
            rows.append((len(rows), value, sim.method, stream_id, *parts))
    path = out_dir / "simulate.csv"
    _csv_artifact(path, columns, rows, config)
    print(path)
    if events:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(events.items()))
        print(f"saturation events: {detail}", file=sys.stderr)
        return EXIT_SATURATED
    return EXIT_OK


def _read_cluster_csv(path: Path) -> sampler.ClusterBatch:
    lines = [
        line
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    if len(lines) < 2:
        raise ConfigError(f"no rows in {path}")
    header = lines[0].split(",")
    gen_cols = [header.index(name) for name in header if name.startswith("gen_")]
    required = {"value", "immigration", "remainder_bound"}
    if not required.issubset(header) or not gen_cols:
        raise ConfigError(
            f"{path} does not look like cluster output (need value, "
            "immigration, gen_*, remainder_bound columns)"
        )
    columns = [header.index("value"), header.index("immigration"), *gen_cols]
    try:
        table = np.loadtxt(lines[1:], delimiter=",", usecols=columns, dtype=np.int64)
        remainder = np.loadtxt(
            lines[1:], delimiter=",", usecols=header.index("remainder_bound")
        )
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"malformed cluster row in {path}: {exc}") from exc
    if not np.all(remainder == remainder.flat[0]):
        raise ConfigError(f"{path}: remainder_bound differs between rows")
    table = table.reshape(len(lines) - 1, len(columns))
    clusters = sampler.ClusterBatch(table[:, 1], table[:, 2:], float(remainder.flat[0]))
    if not np.array_equal(clusters.value, table[:, 0]):
        raise ConfigError(f"{path}: value is not immigration + sum(gen_*)")
    return clusters


def _cmd_attribute(config: RunConfig, out_dir: Path, args) -> int:
    params = config.params()
    threshold = args.x
    if threshold is None or threshold < 0:
        raise ConfigError("attribute requires --x >= 0")
    if args.infile is not None:
        clusters = _read_cluster_csv(Path(args.infile))
    else:
        stream = sampler.RngStream(seed=config.seed, stream_id=0)
        clusters = sampler.sample_clusters(
            params,
            config.simulate.depth,
            config.simulate.samples,
            stream,
            config.simulate.max_population,
        )
    attribution = sampler.attribute(clusters, threshold)
    if not attribution.index.size:
        raise ConfigError(
            f"no samples exceed x={threshold}; increase samples or lower x"
        )
    summary = stats.attribution_summary(attribution.component, attribution.dominant)
    rows = [
        (f"gen {c}" if c else "immigration", count, count / summary.total)
        for c, count in enumerate(summary.counts.tolist())
        if count
    ]
    path = out_dir / "attribution.csv"
    _csv_artifact(
        path,
        ["label", "count", "share"],
        rows,
        config,
        extra_comment=(
            f"x={_fmt(threshold)} exceedances={summary.total} "
            f"dominant_share={_fmt(summary.dominant_share)}"
        ),
    )
    print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------
#
# One check per acceptance criterion; each returns a plain dict (the report
# row).  Shared expensive inputs (the stationary oracle law, the long chain
# run) are computed once per VerifyContext.  `CHECKS` is the only definition
# of these criteria: tests/test_acceptance.py runs the same entries.


class VerifyContext:
    """Lazily computed shared state for the verification checks."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.params = config.params()

    @cached_property
    def stationary(self) -> oracle.Pmf:
        return _stationary_pmf(self.params, self.config)

    @cached_property
    def chain(self) -> sampler.ChainResult:
        """One long chain run (10^6 samples, burn-in 10^3, stream 0)."""
        stream = sampler.RngStream(seed=self.config.seed, stream_id=0)
        return sampler.run_chain(
            self.params,
            sampler.ChainConfig(
                n_samples=1_000_000,
                burn_in=1_000,
                max_population=self.config.simulate.max_population,
            ),
            stream,
        )


def _record(check_id, description, measured, expected, tolerance, passed):
    return {
        "id": check_id,
        "description": description,
        "measured": measured,
        "expected": expected,
        "tolerance": tolerance,
        "pass": bool(passed),
    }


def _check_series(ctx: VerifyContext) -> dict:
    worst = 0.0
    for b in (0.2, 0.5, 0.8):
        closed = asymptotics.series_identities(b)
        partial = asymptotics.series_partial_sums(b)
        worst = max(worst, *(abs(p - c) for p, c in zip(partial, closed)))
    return _record(
        "series",
        "geometric-series first and second moments match closed forms "
        "for b in {0.2, 0.5, 0.8}",
        worst,
        0.0,
        1e-10,
        worst <= 1e-10,
    )


def _check_calibration(ctx: VerifyContext) -> dict:
    lo, hi = offspring_mean_bracket(ctx.params)
    b = ctx.params.b
    # Both endpoints must sit within 1e-9 of b (strict containment is not
    # required: summing 2^21 floats legitimately shifts both ends a few ulp).
    worst = max(abs(lo - b), abs(hi - b))
    passed = lo <= hi and worst <= 1e-9
    return _record(
        "calibration",
        "offspring survival sum brackets the calibrated mean b within 1e-9",
        worst,
        0.0,
        1e-9,
        passed,
    )


# The x at which each check reads an oracle law.  At x >= oracle.cutoff the
# law places no mass above x and its bracket is [0, overflow], so a verdict
# there would be made up: `run_verify` needs oracle.cutoff > max(grid).
_ORACLE_XS = {
    "conv_tail": (1 << 14,),
    "generation_tail": (1 << 12, 1 << 13, 1 << 14),
    "random_sum": (1 << 13,),
    "two_scale": (1024, 4096),
    "mc_oracle": (10, 100, 1000),
}


def _check_conv_tail(ctx: VerifyContext) -> dict:
    cutoff = ctx.config.oracle.cutoff
    heavy = oracle.pmf_of(law_B(ctx.params), cutoff)
    (x,) = _ORACLE_XS["conv_tail"]
    ratio = oracle.conv_tail_ratio(heavy, float(x))
    light = oracle.pmf_of(oracle.GeometricLaw(0.5), 256)
    control = oracle.conv_tail_ratio(light, 60.0)
    passed = 1.8 <= ratio.point <= 2.2 and control.point > 2.5
    return _record(
        "conv_tail",
        "offspring-law convolution tail doubles the single tail at x=2^14 "
        "(point estimate in [1.8, 2.2]); geometric control exceeds 2.5 at x=60",
        {"heavy_point": ratio.point, "light_point": control.point},
        "heavy in [1.8, 2.2]; light > 2.5",
        None,
        passed,
    )


def _check_generation_tail(ctx: VerifyContext) -> dict:
    cutoff = ctx.config.oracle.cutoff
    xs = _ORACLE_XS["generation_tail"]
    measured = {}
    passed = True
    for n in (2, 3):
        law = oracle.dn_pmf(ctx.params, n, cutoff)
        ratios = {}
        for x in xs:
            exact = law.survival_bracket(x)[1]
            pred = asymptotics.generation_tail_pred(ctx.params, n, float(x))
            ratios[x] = exact / pred
        for r in ratios.values():
            passed = passed and 0.7 <= r <= 1.3
        passed = passed and abs(ratios[xs[-1]] - 1) < abs(ratios[xs[0]] - 1)
        measured[f"n={n}"] = {str(x): r for x, r in ratios.items()}
    return _record(
        "generation_tail",
        "generation-aggregate tails match n*b^(n-1)*P(B>x) within 30% at "
        "x in {2^12, 2^13, 2^14}, improving with x",
        measured,
        "ratios in [0.7, 1.3], |ratio-1| smaller at 2^14 than at 2^12",
        None,
        passed,
    )


def _check_random_sum(ctx: VerifyContext) -> dict:
    cutoff = ctx.config.oracle.cutoff
    summand = oracle.dn_pmf(ctx.params, 1, cutoff)
    (x,) = _ORACLE_XS["random_sum"]
    check = oracle.random_sum_check(LawA, summand, float(x))
    passed = 0.7 <= check.ratio <= 1.3
    return _record(
        "random_sum",
        "random-sum tail at x=2^13 matches truncated-mean prediction "
        "within 30%",
        check.ratio,
        1.0,
        0.3,
        passed,
    )


def _check_a_tail(ctx: VerifyContext) -> dict:
    measured = {}
    passed = True
    for b in (0.2, 0.5, 0.8):
        params_b = calibrate(b, ctx.params.epsilon, tolerance=1e-10)
        exact, asym = asymptotics.a_tail_sums(params_b, 1e6)
        rel = abs(exact / asym - 1.0)
        measured[f"b={b}"] = rel
        passed = passed and rel <= 0.02
    xs = [1e3, 1e4, 1e5, 1e6]
    try:
        corr = [asymptotics.correction_sum(ctx.params, x) * x for x in xs]
    except ValueError as exc:
        message = f"the a_tail check at model.b = {ctx.params.b}: {exc}"
        raise ConfigError(message) from exc
    decreasing = all(later < earlier for earlier, later in zip(corr, corr[1:]))
    measured["correction_times_x"] = corr
    passed = passed and decreasing
    return _record(
        "a_tail",
        "immigration tail sums match b/((1-b)x) within 2% at x=1e6; "
        "correction sum times x strictly decreasing over 1e3..1e6",
        measured,
        "relative errors <= 0.02 and strictly decreasing sequence",
        None,
        passed,
    )


def _check_ks_consistency(ctx: VerifyContext) -> dict:
    chain = ctx.chain.samples[:100_000]
    stream = sampler.RngStream(seed=ctx.config.seed, stream_id=1)
    depth = 40
    clusters = sampler.sample_clusters(
        ctx.params, depth, 100_000, stream, ctx.config.simulate.max_population
    )
    remainder = clusters.remainder_bound
    statistic, critical, reject = stats.ks_two_sample(chain, clusters.value, alpha=0.01)
    saturation = {
        k: v for k, v in stream.events.items() if k != "a_value_cap"
    }
    passed = (not reject) and remainder < 1e-3 and not saturation
    return _record(
        "ks_consistency",
        "chain (1e5 samples) and depth-40 cluster (1e5 samples) laws are "
        "KS-indistinguishable at alpha=0.01",
        {
            "statistic": statistic,
            "critical": critical,
            "remainder_bound": remainder,
        },
        "statistic <= critical, remainder < 1e-3, no saturation",
        None,
        passed,
    )


def _check_two_scale(ctx: VerifyContext) -> dict:
    pi = ctx.stationary
    measured = {}
    passed = True
    for x in _ORACLE_XS["two_scale"]:
        lo, hi = pi.survival_bracket(x)
        lead = float(asymptotics.leading_tail(ctx.params, float(x)))
        two = float(asymptotics.two_scale_total(ctx.params, float(x)))
        ratio_lead = hi / lead  # upper endpoint is the point-estimate convention
        ratio_two = hi / two
        in_band = 0.75 <= lo / lead <= 1.25 and 0.75 <= ratio_lead <= 1.25
        improves = abs(np.log(ratio_two)) < abs(np.log(ratio_lead))
        measured[f"x={x}"] = {
            "bracket_over_leading": [lo / lead, ratio_lead],
            "abs_log_leading": abs(float(np.log(ratio_lead))),
            "abs_log_two_scale": abs(float(np.log(ratio_two))),
            "improves": bool(improves),
        }
        passed = passed and in_band and improves
    return _record(
        "two_scale",
        "stationary tail matches the leading predictor within 25% at "
        "x in {1024, 4096}, and adding the second scale shrinks |log ratio| "
        "at both x",
        measured,
        "brackets within [0.75, 1.25] of leading; |log| strictly smaller "
        "with the second scale",
        None,
        passed,
    )


def _check_second_scale_decay(ctx: VerifyContext) -> dict:
    xs = 1e4 * 2.0 ** np.arange(0, 27)
    xs = xs[xs <= 1e12]
    values = [
        float(asymptotics.second_scale(ctx.params, x)) * (1.0 + x) for x in xs
    ]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    return _record(
        "second_scale_decay",
        "second-scale correction times (1+x) decreases monotonically on a "
        "doubling grid from 1e4 to 1e12",
        {"first": values[0], "last": values[-1]},
        "strictly decreasing",
        None,
        decreasing,
    )


def _check_mc_oracle(ctx: VerifyContext) -> dict:
    samples = ctx.chain.samples
    level = ctx.config.verify.confidence
    xs = _ORACLE_XS["mc_oracle"]
    curve = stats.empirical_survival(samples, xs, level=level, chain=True)
    pi = ctx.stationary
    measured = {}
    passed = not ctx.chain.events
    for i, x in enumerate(xs):
        lo, hi = pi.survival_bracket(x)
        ci_lo, ci_hi = float(curve.ci_lo[i]), float(curve.ci_hi[i])
        ok = ci_hi >= lo and ci_lo <= hi  # CP interval intersects the bracket
        measured[f"x={x}"] = {
            "estimate": float(curve.estimate[i]),
            "autocorrelation_time": float(curve.tau[i]),
            "cp_interval": [ci_lo, ci_hi],
            "oracle_bracket": [lo, hi],
        }
        passed = passed and ok
    return _record(
        "mc_oracle",
        "empirical chain survival (1e6 samples) is consistent with the "
        "oracle bracket at x in {10, 100, 1000} at the configured confidence",
        measured,
        "Clopper-Pearson interval at the effective sample size 1e6 / "
        "autocorrelation_time (batch means, batch length 1000) intersects "
        "the oracle bracket at each x",
        None,
        passed,
    )


_PROBE_SUITE = ("series", "calibration", "a_tail", "second_scale_decay")


def _check_repro_probe(ctx: VerifyContext) -> dict:
    def render() -> str:
        probe_ctx = VerifyContext(ctx.config)
        checks = [CHECKS[check_id](probe_ctx) for check_id in _PROBE_SUITE]
        return json.dumps(checks, sort_keys=True)

    first, second = render(), render()
    passed = first == second
    return _record(
        "repro_probe",
        "re-running the fast deterministic checks yields byte-identical "
        "serialized results (full-suite byte identity is verified by "
        "running the CLI twice)",
        {"identical": passed},
        "identical serializations",
        None,
        passed,
    )


CHECKS = {
    "series": _check_series,
    "calibration": _check_calibration,
    "conv_tail": _check_conv_tail,
    "generation_tail": _check_generation_tail,
    "random_sum": _check_random_sum,
    "a_tail": _check_a_tail,
    "ks_consistency": _check_ks_consistency,
    "two_scale": _check_two_scale,
    "second_scale_decay": _check_second_scale_decay,
    "mc_oracle": _check_mc_oracle,
    "repro_probe": _check_repro_probe,
}
CHECK_IDS = tuple(CHECKS)


def _suite_tokens(suite: str) -> list:
    if suite == "all":
        return list(CHECK_IDS)
    return [token.strip() for token in suite.split(",") if token.strip()]


def run_verify(config: RunConfig, seconds: Optional[dict] = None) -> dict:
    """Run the selected checks and assemble the machine-readable report;
    each check's wall seconds go into ``seconds``, never into the report (a
    check that first reads a shared input is charged for building it)."""
    selected = _suite_tokens(config.verify.suite)
    for check_id in (c for c in selected if c in _ORACLE_XS):
        x = max(_ORACLE_XS[check_id])
        if config.oracle.cutoff <= x:
            raise ConfigError(
                f"the {check_id} check needs oracle.cutoff > {x} to place "
                f"mass above x = {x}, got {config.oracle.cutoff}"
            )
    ctx = VerifyContext(config)
    seconds = {} if seconds is None else seconds
    checks = []
    for check_id in selected:
        start = time.perf_counter()
        checks.append(CHECKS[check_id](ctx))
        seconds[check_id] = time.perf_counter() - start
    return {
        "checks": checks,
        "overall": all(c["pass"] for c in checks),
    }


def _cmd_verify(config: RunConfig, out_dir: Path) -> int:
    seconds = {}
    report = run_verify(config, seconds)
    path = out_dir / "verify_report.json"
    _json_artifact(path, report, config)
    timings = json.dumps(seconds, indent=2) + "\n"
    _atomic_write(out_dir / "verify_timings.json", timings)
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{status} {check['id']}: {check['description']}")
    print(f"overall: {'PASS' if report['overall'] else 'FAIL'} ({path})")
    return EXIT_OK if report["overall"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_x_grid(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad x grid '{text}': {exc}") from exc


_EPILOG = """\
artifact formats (fixed column orders; all files start with
'# config_hash=<sha256> seed=<seed>'):
  predict.csv    x, leading, second_scale, two_scale_total, decomposition,
                 a_tail_exact, a_tail_asym
  oracle.csv     k, mass, survival_lo, survival_hi
  simulate.csv   sample_index, value, method, stream_id
                 (+ immigration, gen_1..gen_m, remainder_bound for clusters)
  attribution.csv label, count, share
  verify_report.json  checks[{id, description, measured, expected,
                 tolerance, pass}], overall, provenance
  verify_timings.json  {check id: wall seconds} (not deterministic)

exit codes: 0 ok / all checks pass; 1 verify check failed;
2 config or validation error; 3 sampler saturation (events recorded).
BIGJUMP_SEED overrides the built-in default seed (explicit config wins).
"""


# Subcommand -> (help, the config fields it takes as flags besides the
# model's).  Each flag's name, type, choices and help come from its field.
_COMMANDS = {
    "model": ("calibration summary (model.json)", ""),
    "predict": ("closed-form tail predictors (predict.csv)", "x_grid n_max"),
    "oracle": ("truncated stationary pmf (oracle.csv)", "cutoff tol max_iter"),
    "simulate": (
        "draw samples (simulate.csv)",
        "method samples burn_in depth seed streams max_population",
    ),
    "verify": (
        "acceptance checks (verify_report.json)",
        "suite confidence seed cutoff",
    ),
    "attribute": ("exceedance attribution (attribution.csv)", "samples depth seed"),
}
_FLAG_TYPES = {tuple: _parse_x_grid, Optional[int]: int}  # else the hint itself


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigjump",
        description=__doc__.splitlines()[0],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    declared = {f.name: (f, hint) for _, f, hint in _declared_fields()}

    def add_flag(p, name):
        f, hint = declared[name]
        p.add_argument(
            f.metadata["flag"] or "--" + name.replace("_", "-"),
            dest=name,
            type=_FLAG_TYPES.get(hint, hint),
            choices=f.metadata.get("choices"),
            help=f.metadata["help"],
        )

    for command, (help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        for f in fields(ModelConfig):
            add_flag(p, f.name)
        if command == "attribute":
            p.add_argument("--x", type=int, help="exceedance threshold")
            p.add_argument(
                "--in", dest="infile", help="cluster simulate.csv to attribute"
            )
        for name in names.split():
            add_flag(p, name)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        config.validate()
        _ = config.seed  # force env-var validation before any work
        out_dir = Path(args.out)
        if args.command == "model":
            return _cmd_model(config, out_dir)
        if args.command == "predict":
            return _cmd_predict(config, out_dir)
        if args.command == "oracle":
            return _cmd_oracle(config, out_dir)
        if args.command == "simulate":
            return _cmd_simulate(config, out_dir)
        if args.command == "verify":
            return _cmd_verify(config, out_dir)
        if args.command == "attribute":
            return _cmd_attribute(config, out_dir, args)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
