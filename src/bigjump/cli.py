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
overridden by the ``BIGJUMP_SEED`` environment variable.

Artifacts are deterministic given (config, seed): no timestamps, shortest
round-trip float formatting, fixed column orders (documented per subcommand
in ``--help``).  Every artifact embeds the hash of the effective config and
the seed — CSV files in a leading ``#`` comment, JSON files in a
``provenance`` block.  Files are written to a temporary sibling and
atomically renamed, so readers never observe a partial artifact.

Exit codes: 0 success (for ``verify``: every selected check passed);
1 ``verify`` ran but a check failed; 2 config parse or validation error;
3 a sampler cap was hit (saturation, recorded in the events counters).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np
import scipy

from . import asymptotics, oracle, sampler, stats
from .model import (
    LawA,
    ModelParams,
    calibrate,
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


@dataclass(frozen=True)
class ModelConfig:
    b: float = 0.5
    epsilon: float = 1.0
    tolerance: float = 1e-10

    def validate(self) -> None:
        if not 0.0 < self.b < 1.0:
            raise ConfigError(f"model.b must lie in (0, 1), got {self.b}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ConfigError(
                f"model.epsilon must be finite and > 0, got {self.epsilon}"
            )
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ConfigError(
                f"model.tolerance must be finite and > 0, got {self.tolerance}"
            )


@dataclass(frozen=True)
class SimulateConfig:
    method: str = "chain"
    samples: int = 10_000
    burn_in: int = 1_000
    depth: int = 40
    seed: Optional[int] = None  # None: DEFAULT_SEED (or its env override)
    streams: int = 1
    max_population: int = sampler.DEFAULT_MAX_POPULATION

    def validate(self) -> None:
        if self.method not in ("chain", "cluster"):
            raise ConfigError(
                f"simulate.method must be 'chain' or 'cluster', got "
                f"'{self.method}'"
            )
        if self.samples < 1:
            raise ConfigError(f"simulate.samples must be >= 1, got {self.samples}")
        if self.burn_in < 0:
            raise ConfigError(f"simulate.burn_in must be >= 0, got {self.burn_in}")
        if self.depth < 1:
            raise ConfigError(f"simulate.depth must be >= 1, got {self.depth}")
        if self.seed is not None and not 0 <= self.seed < 1 << 64:
            raise ConfigError(
                f"simulate.seed must lie in [0, 2**64), got {self.seed}"
            )
        if self.streams < 1:
            raise ConfigError(f"simulate.streams must be >= 1, got {self.streams}")
        if self.max_population < 1 << 20:
            raise ConfigError(
                f"simulate.max_population must be >= 2**20, got "
                f"{self.max_population}"
            )


@dataclass(frozen=True)
class OracleConfig:
    cutoff: int = 1 << 16
    tol: float = 1e-11
    max_iter: int = 60

    def validate(self) -> None:
        if self.cutoff < 16:
            raise ConfigError(f"oracle.cutoff must be >= 16, got {self.cutoff}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ConfigError(f"oracle.tol must be finite and > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"oracle.max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class PredictConfig:
    x_grid: tuple = (100.0, 1000.0, 10_000.0)
    n_max: int = 6

    def validate(self) -> None:
        if len(self.x_grid) == 0:
            raise ConfigError("predict.x_grid must be nonempty")
        grid = list(self.x_grid)
        if not all(math.isfinite(x) and x > 0 for x in grid):
            raise ConfigError("predict.x_grid entries must be finite and > 0")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("predict.x_grid must be strictly increasing")
        if self.n_max < 1:
            raise ConfigError(f"predict.n_max must be >= 1, got {self.n_max}")


@dataclass(frozen=True)
class VerifyConfig:
    suite: str = "all"
    confidence: float = 0.999

    def validate(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(
                f"verify.confidence must lie in (0, 1), got {self.confidence}"
            )
        tokens = _suite_tokens(self.suite)
        if not tokens:
            raise ConfigError("verify.suite selects no checks")
        for token in tokens:
            if token not in CHECK_IDS:
                raise ConfigError(
                    f"unknown verify.suite entry '{token}'; known: "
                    f"{', '.join(CHECK_IDS)}"
                )


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    predict: PredictConfig = field(default_factory=PredictConfig)
    verify: VerifyConfig = field(default_factory=VerifyConfig)

    def validate(self) -> None:
        self.model.validate()
        self.simulate.validate()
        self.oracle.validate()
        self.predict.validate()
        self.verify.validate()

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
            if not 0 <= value < 1 << 64:
                raise ConfigError(
                    f"{_SEED_ENV_VAR} must lie in [0, 2**64), got {value}"
                )
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


_SECTION_TYPES = {
    "model": ModelConfig,
    "simulate": SimulateConfig,
    "oracle": OracleConfig,
    "predict": PredictConfig,
    "verify": VerifyConfig,
}


def _typed(where: str, value, hint):
    """Check one config value against its field's type.

    ``bool`` is not accepted as ``int``, and ``int`` is accepted as
    ``float``; ``Optional`` fields also take ``null`` and the ``tuple``
    field is a list of numbers.
    """
    if get_origin(hint) is Union:
        if value is None:
            return None
        (hint,) = (h for h in get_args(hint) if h is not type(None))
    if hint is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list of numbers")
        return tuple(float(_typed(f"{where} entry", x, float)) for x in value)
    kinds = (int, float) if hint is float else (hint,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = "a number" if hint is float else f"of type {hint.__name__}"
        raise ConfigError(f"{where} must be {expected}, got {value!r}")
    return value


def _build_section(name: str, cls, data: dict):
    hints = get_type_hints(cls)
    for key in data:
        if key not in hints:
            raise ConfigError(f"unknown config key '{key}' in section '{name}'")
    return cls(**{k: _typed(f"{name}.{k}", v, hints[k]) for k, v in data.items()})


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

    Every config field name is unique across sections and is the ``dest``
    of its flag, so each non-None ``args.<field>`` replaces that field.
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
    payload = {
        "b": params.b,
        "epsilon": params.epsilon,
        "theta": params.theta,
        "series_const": params.series_const,
        "tail_table_cutoff": params.tail_table_cutoff,
        "offspring_mean_bracket": {"lo": lo, "hi": hi},
        "extinction_survival": {
            f"p{n}": float(extinction_table(params, 5).p[n]) for n in range(1, 6)
        },
    }
    path = out_dir / "model.json"
    _json_artifact(path, payload, config)
    print(path)
    return EXIT_OK


def _cmd_predict(config: RunConfig, out_dir: Path) -> int:
    params = config.params()
    xs = [float(x) for x in config.predict.x_grid]
    table = asymptotics.prediction_table(params, xs, n_max=config.predict.n_max)
    rows = []
    for i, x in enumerate(xs):
        rows.append(
            (
                x,
                float(table.leading[i]),
                float(table.second_scale[i]),
                float(table.two_scale_total[i]),
                asymptotics.decomposition_pred(params, x, config.predict.n_max),
                float(table.a_tail_exact[i]),
                float(table.a_tail_asym[i]),
            )
        )
    path = out_dir / "predict.csv"
    _csv_artifact(
        path,
        [
            "x",
            "leading",
            "second_scale",
            "two_scale_total",
            "decomposition",
            "a_tail_exact",
            "a_tail_asym",
        ],
        rows,
        config,
    )
    print(path)
    return EXIT_OK


def _stationary_pmf(params: ModelParams, config: RunConfig) -> oracle.Pmf:
    """The oracle's stationary law under the configured truncation.

    The thinned immigrant count of generation 1 has thinning probability
    ``theta = P(B >= 1)``, and its recurrence is stable only below 1/2, so
    larger ``theta`` is refused as a config error rather than a traceback,
    as are an iteration that does not converge and a depth remainder too
    large for the stationary law's mass conservation.
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
            f"oracle.max_iter = {exc.max_iter} iterations"
        ) from exc
    except oracle.RemainderTooLarge as exc:
        raise ConfigError(
            f"the oracle cannot certify {where}: the depth remainder "
            f"{exc.remainder:.3e} beyond generation {exc.depth} exceeds the "
            f"mass conservation tolerance {exc.tolerance:g}"
        ) from exc


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


def _split_across_streams(total: int, streams: int) -> list:
    share, extra = divmod(total, streams)
    return [share + (1 if i < extra else 0) for i in range(streams)]


def _cmd_simulate(config: RunConfig, out_dir: Path) -> int:
    params = config.params()
    sim = config.simulate
    seed = config.seed
    columns = ["sample_index", "value", "method", "stream_id"]
    rows = []
    events = Counter()
    if sim.method == "chain":
        index = 0
        for stream_id, share in enumerate(
            _split_across_streams(sim.samples, sim.streams)
        ):
            if share == 0:
                continue
            stream = sampler.RngStream(seed=seed, stream_id=stream_id)
            result = sampler.run_chain(
                params,
                sampler.ChainConfig(
                    n_samples=share,
                    burn_in=sim.burn_in,
                    max_population=sim.max_population,
                ),
                stream,
            )
            events.update(result.events)
            for value in result.samples:
                rows.append((index, int(value), "chain", stream_id))
                index += 1
    else:
        columns = columns + [
            "immigration",
            *[f"gen_{n}" for n in range(1, sim.depth + 1)],
            "remainder_bound",
        ]
        index = 0
        for stream_id, share in enumerate(
            _split_across_streams(sim.samples, sim.streams)
        ):
            if share == 0:
                continue
            stream = sampler.RngStream(seed=seed, stream_id=stream_id)
            clusters = sampler.sample_clusters(
                params, sim.depth, share, stream, sim.max_population
            )
            events.update(stream.events)
            for value, imm, gens, _, bound in clusters:
                rows.append((index, value, "cluster", stream_id, imm, *gens, bound))
                index += 1
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
    summary = stats.attribution_summary(zip(attribution.labels, attribution.dominant))
    rows = [
        (label, summary.counts[label], summary.counts[label] / summary.total)
        for label in sorted(
            summary.counts, key=lambda s: (s != "immigration", len(s), s)
        )
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
        self._stationary = None
        self._chain = None

    @property
    def stationary(self) -> oracle.Pmf:
        if self._stationary is None:
            self._stationary = _stationary_pmf(self.params, self.config)
        return self._stationary

    @property
    def chain_samples(self) -> np.ndarray:
        """One long chain run (10^6 samples, burn-in 10^3, stream 0)."""
        if self._chain is None:
            stream = sampler.RngStream(seed=self.config.seed, stream_id=0)
            self._chain = sampler.run_chain(
                self.params,
                sampler.ChainConfig(
                    n_samples=1_000_000,
                    burn_in=1_000,
                    max_population=self.config.simulate.max_population,
                ),
                stream,
            )
        return self._chain.samples

    @property
    def chain_events(self) -> dict:
        _ = self.chain_samples
        return self._chain.events


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
        s1, s2 = asymptotics.series_identities(b)
        worst = max(
            worst,
            abs(s1 - 1.0 / (1.0 - b) ** 2),
            abs(s2 - (1.0 + b) / (1.0 - b) ** 3),
        )
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


def _check_conv_tail(ctx: VerifyContext) -> dict:
    cutoff = ctx.config.oracle.cutoff
    heavy = oracle.pmf_of(law_B(ctx.params), cutoff)
    ratio = oracle.conv_tail_ratio(heavy, float(1 << 14))
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
    measured = {}
    passed = True
    for n in (2, 3):
        law = oracle.dn_pmf(ctx.params, n, cutoff)
        ratios = {}
        for x in (1 << 12, 1 << 13, 1 << 14):
            exact = law.survival_bracket(x)[1]
            pred = asymptotics.generation_tail_pred(ctx.params, n, float(x))
            ratios[x] = exact / pred
        for r in ratios.values():
            passed = passed and 0.7 <= r <= 1.3
        passed = passed and abs(ratios[1 << 14] - 1) < abs(ratios[1 << 12] - 1)
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
    check = oracle.random_sum_check(LawA, summand, float(1 << 13))
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
    corr = [asymptotics.correction_sum(ctx.params, x) * x for x in xs]
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
    chain = ctx.chain_samples[:100_000]
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
    for x in (1024, 4096):
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
    samples = ctx.chain_samples
    level = ctx.config.verify.confidence
    curve = stats.empirical_survival(samples, [10, 100, 1000], level=level)
    pi = ctx.stationary
    measured = {}
    passed = not ctx.chain_events
    for i, x in enumerate((10, 100, 1000)):
        lo, hi = pi.survival_bracket(x)
        ci_lo, ci_hi = float(curve.ci_lo[i]), float(curve.ci_hi[i])
        ok = ci_hi >= lo and ci_lo <= hi  # CP interval intersects the bracket
        measured[f"x={x}"] = {
            "estimate": float(curve.estimate[i]),
            "cp_interval": [ci_lo, ci_hi],
            "oracle_bracket": [lo, hi],
        }
        passed = passed and ok
    return _record(
        "mc_oracle",
        "empirical chain survival (1e6 samples) is consistent with the "
        "oracle bracket at x in {10, 100, 1000} at the configured confidence",
        measured,
        "Clopper-Pearson interval intersects the oracle bracket at each x",
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


def run_verify(config: RunConfig) -> dict:
    """Run the selected checks and assemble the machine-readable report."""
    ctx = VerifyContext(config)
    selected = _suite_tokens(config.verify.suite)
    checks = [CHECKS[check_id](ctx) for check_id in selected]
    return {
        "checks": checks,
        "overall": all(c["pass"] for c in checks),
    }


def _cmd_verify(config: RunConfig, out_dir: Path) -> int:
    report = run_verify(config)
    path = out_dir / "verify_report.json"
    _json_artifact(path, report, config)
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

exit codes: 0 ok / all checks pass; 1 verify check failed;
2 config or validation error; 3 sampler saturation (events recorded).
BIGJUMP_SEED overrides the built-in default seed (explicit config wins).
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigjump",
        description=__doc__.splitlines()[0],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--b", type=float, help="offspring mean")
        p.add_argument("--epsilon", type=float, help="tail log exponent offset")
        p.add_argument("--tolerance", type=float, help="calibration tolerance")

    p_model = sub.add_parser("model", help="calibration summary (model.json)")
    common(p_model)

    p_predict = sub.add_parser(
        "predict", help="closed-form tail predictors (predict.csv)"
    )
    common(p_predict)
    p_predict.add_argument(
        "--x-grid", dest="x_grid", type=_parse_x_grid, help="comma-separated x"
    )
    p_predict.add_argument("--n-max", dest="n_max", type=int)

    p_oracle = sub.add_parser(
        "oracle", help="truncated stationary pmf (oracle.csv)"
    )
    common(p_oracle)
    p_oracle.add_argument("--cutoff", type=int, help="pmf truncation")
    p_oracle.add_argument("--tol", type=float, help="assembly stopping gap")
    p_oracle.add_argument("--max-iter", dest="max_iter", type=int)

    p_sim = sub.add_parser("simulate", help="draw samples (simulate.csv)")
    common(p_sim)
    p_sim.add_argument("--method", choices=["chain", "cluster"])
    p_sim.add_argument("--samples", type=int)
    p_sim.add_argument("--burnin", dest="burn_in", type=int)
    p_sim.add_argument("--depth", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--streams", type=int)
    p_sim.add_argument("--max-population", dest="max_population", type=int)

    p_verify = sub.add_parser(
        "verify", help="acceptance checks (verify_report.json)"
    )
    common(p_verify)
    p_verify.add_argument("--suite", help="'all' or comma-separated check ids")
    p_verify.add_argument("--confidence", type=float)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--cutoff", type=int, help="oracle pmf truncation")

    p_att = sub.add_parser(
        "attribute", help="exceedance attribution (attribution.csv)"
    )
    common(p_att)
    p_att.add_argument("--x", type=int, help="exceedance threshold")
    p_att.add_argument(
        "--in", dest="infile", help="cluster simulate.csv to attribute"
    )
    p_att.add_argument("--samples", type=int)
    p_att.add_argument("--depth", type=int)
    p_att.add_argument("--seed", type=int)

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
