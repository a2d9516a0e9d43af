"""Command-line interface over the model, samplers, oracle, and predictors.

README's "Command-line interface" section documents the subcommands, the
config layering, the artifact rules and the exit codes; ``bigjump --help``
lists the artifact columns and the exit codes.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional, get_type_hints

import numpy as np

from . import asymptotics, oracle, sampler, stats
from .model import (
    ModelParams,
    calibrate,
    depth_remainder_bound,
    extinction_table,
    offspring_mean_bracket,
)

DEFAULT_SEED = 20260821

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
    seed: int = _setting(DEFAULT_SEED, "random seed", ge=0, lt=1 << 64)
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
    # At most 2**18, the largest cutoff measured to finish (41.8 s, 708 MB on
    # a 2-core, 7 GB VM); D_2's power table alone would take about 2 GB at
    # 2**19 and 8 GB at 2**20.
    cutoff: int = _setting(1 << 16, "oracle pmf truncation", ge=16, le=1 << 18)
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
        d["predict"]["x_grid"] = [float(x) for x in self.predict.x_grid]
        return d

    def config_hash(self) -> str:
        text = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return _sha256_hex(text.encode())


# SHA-256's initial hash value and round constants (NIST FIPS 180-4, 5.3.3
# and 4.2.2): the first 32 bits of the fractional parts of the square roots
# of the first 8 primes and of the cube roots of the first 64.
_SHA256_H0 = (
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
)
_SHA256_K = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
)


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 digest of ``data`` in hex (NIST FIPS 180-4, section 6.2),
    the bytes ``hashlib.sha256(data).hexdigest()`` gives.

    Written out because importing ``hashlib`` loads OpenSSL's libcrypto,
    about 3.6 MB resident, into every command for one digest of a few
    hundred bytes.  The default config's 327 bytes take 1.3 ms, against
    3 ms to import ``hashlib`` (2-vCPU VM, Python 3.11).
    """
    mask = 0xFFFFFFFF

    def rotr(x: int, n: int) -> int:
        return (x >> n | x << (32 - n)) & mask

    # Pad to whole 64-byte blocks: a 1 bit, zeros, the bit length in 64 bits.
    zeros = bytes(-(len(data) + 9) % 64)
    padded = data + b"\x80" + zeros + (8 * len(data)).to_bytes(8, "big")
    h = list(_SHA256_H0)
    for start in range(0, len(padded), 64):
        block = padded[start : start + 64]
        w = [int.from_bytes(block[i : i + 4], "big") for i in range(0, 64, 4)]
        for t in range(16, 64):
            s0 = rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
            s1 = rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & mask)
        a, b, c, d, e, f, g, hh = h
        for k, wt in zip(_SHA256_K, w):
            ch = (e & f) ^ (~e & g)
            t1 = hh + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + ch + k + wt
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + maj
            e, f, g, hh = (d + t1) & mask, e, f, g
            a, b, c, d = (t1 + t2) & mask, a, b, c
        h = [(x + y) & mask for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return "".join(f"{x:08x}" for x in h)


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
    and a float must be finite; the ``tuple`` field is a list of numbers,
    each held to the limits.
    """
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
    except (OSError, UnicodeDecodeError) as exc:
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


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` in order to a temp file beside ``path``,
    then move it over ``path``, so no reader sees a partial file.  ``main``
    has made the directory."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as out:
            out.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _csv_artifact(
    path: Path, columns: dict, config: RunConfig, comment: str = ""
) -> None:
    """Write a table given as named columns of equal length, in order.

    Each column is formatted once: a float column by ``repr`` (the shortest
    round-trip decimal), any other column (integers, labels) by ``str``.
    The rows are streamed to the file, never joined into one string.
    """
    lines = [f"# config_hash={config.config_hash()} seed={config.simulate.seed}"]
    if comment:
        lines.append(f"# {comment}")
    lines.append(",".join(columns))
    cells = []
    for column in map(np.asarray, columns.values()):
        cells.append(map(repr if column.dtype.kind == "f" else str, column.tolist()))
    rows = map(",".join, zip(*cells))
    _atomic_write(path, (line + "\n" for line in chain(lines, rows)))


def _json_artifact(path: Path, payload: dict, config: RunConfig) -> None:
    payload = dict(payload)
    payload["provenance"] = _provenance(config)
    _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True), "\n"])


def _provenance(config: RunConfig) -> dict:
    # Imported here: only the commands that write JSON provenance need scipy.
    import scipy

    from . import __version__

    return {
        "seed": config.simulate.seed,
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
    survival = extinction_table(params, 5)
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
    xs = np.asarray(config.predict.x_grid, dtype=np.float64)
    try:
        table = asymptotics.prediction_table(params, xs, config.predict.n_max)
    except ValueError as exc:
        raise ConfigError(f"predict.x_grid at model.b = {params.b}: {exc}") from exc
    path = out_dir / "predict.csv"
    _csv_artifact(path, {"x": xs, **table}, config)
    print(path)
    return EXIT_OK


def _stationary_pmf(params: ModelParams, config: RunConfig) -> oracle.Pmf:
    """The oracle's stationary law under the configured truncation.

    An iteration that does not converge within ``oracle.max_iter`` is
    refused as a config error rather than a traceback, naming an
    ``oracle.max_iter`` that suffices where one exists.  A large depth
    remainder is not refused: it widens the law's brackets, up to [0, 1]
    where it reaches 1.
    """
    where = f"b = {params.b}, epsilon = {params.epsilon}"
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
        if 1.0 - extinction_table(params, m)[m] == 1.0:
            return (
                "no oracle.max_iter brings the depth remainder below it "
                "before P(D_n > 0) leaves float resolution"
            )
        m += 1
    return f"oracle.max_iter = {m + 1} suffices"


def _cmd_oracle(config: RunConfig, out_dir: Path) -> int:
    pi = _stationary_pmf(config.params(), config)
    survival = pi.survival_curve()
    columns = {
        "k": np.arange(pi.mass.size),
        "mass": pi.mass,
        "survival_lo": np.maximum(survival - pi.overflow, 0.0),
        "survival_hi": np.minimum(survival, 1.0),
    }
    path = out_dir / "oracle.csv"
    comment = f"law={pi.meta} overflow={float(pi.overflow)!r}"
    _csv_artifact(path, columns, config, comment)
    print(path)
    return EXIT_OK


def _cmd_simulate(config: RunConfig, out_dir: Path) -> int:
    params = config.params()
    sim = config.simulate
    values, stream_ids, clusters = [], [], []
    events = Counter()
    # The samples split evenly, the remainder going to the early streams;
    # streams past the sample count would draw none and are skipped.
    share, extra = divmod(sim.samples, sim.streams)
    for stream_id in range(min(sim.streams, sim.samples)):
        n = share + (stream_id < extra)
        stream = sampler.RngStream(seed=config.simulate.seed, stream_id=stream_id)
        if sim.method == "chain":
            chain = sampler.ChainConfig(
                n_samples=n, burn_in=sim.burn_in, max_population=sim.max_population
            )
            result = sampler.run_chain(params, chain, stream)
            events.update(result.events)
            values.append(result.samples)
        else:
            batch = sampler.sample_clusters(
                params, sim.depth, n, stream, sim.max_population
            )
            events.update(stream.events)
            values.append(batch.value)
            clusters.append(batch)
        stream_ids.append(np.full(n, stream_id))
    columns = {
        "sample_index": np.arange(sim.samples),
        "value": np.concatenate(values),
        "method": np.full(sim.samples, sim.method),
        "stream_id": np.concatenate(stream_ids),
    }
    if clusters:
        columns["immigration"] = np.concatenate([c.immigration for c in clusters])
        contrib = np.concatenate([c.gen_contrib for c in clusters])
        columns.update((f"gen_{n}", contrib[:, n - 1]) for n in range(1, sim.depth + 1))
        columns["remainder_bound"] = np.full(sim.samples, clusters[0].remainder_bound)
    path = out_dir / "simulate.csv"
    _csv_artifact(path, columns, config)
    print(path)
    return _saturation_exit(events)


def _saturation_exit(events) -> int:
    """Exit 3, with the sampler's cap events counted on stderr, where a
    draw recorded any; else exit 0.  The artifact is written either way."""
    if events:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(events.items()))
        print(f"saturation events: {detail}", file=sys.stderr)
        return EXIT_SATURATED
    return EXIT_OK


def _read_cluster_csv(path: Path) -> sampler.ClusterBatch:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read cluster file {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if len(lines) < 2:
        raise ConfigError(f"no rows in {path}")
    header = lines[0].split(",")
    gens = sorted(name for name in header if name.startswith("gen_"))
    order = [f"gen_{k}" for k in range(1, len(gens) + 1)]
    required = {"value", "immigration", "remainder_bound"}
    if not required.issubset(header) or not gens or sorted(order) != gens:
        raise ConfigError(
            f"{path} does not look like cluster output (need value, "
            "immigration, gen_1..gen_m each once, remainder_bound columns)"
        )
    columns = [header.index(name) for name in ("value", "immigration", *order)]
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
    if np.any(table < 0):
        raise ConfigError(f"{path}: negative count")
    clusters = sampler.ClusterBatch(table[:, 1], table[:, 2:], float(remainder.flat[0]))
    if not np.array_equal(clusters.value, table[:, 0]):
        raise ConfigError(f"{path}: value is not immigration + sum(gen_*)")
    return clusters


def _cmd_attribute(config: RunConfig, out_dir: Path, args) -> int:
    threshold = args.x
    if threshold is None or threshold < 0:
        raise ConfigError("attribute requires --x >= 0")
    events = {}
    if args.infile is not None:
        clusters = _read_cluster_csv(Path(args.infile))
    else:
        stream = sampler.RngStream(seed=config.simulate.seed, stream_id=0)
        clusters = sampler.sample_clusters(
            config.params(),
            config.simulate.depth,
            config.simulate.samples,
            stream,
            config.simulate.max_population,
        )
        events = stream.events
    try:
        summary = stats.attribution_summary(clusters, threshold)
    except ValueError as exc:
        raise ConfigError(f"{exc}; increase samples or lower x") from exc
    (components,) = np.nonzero(summary.counts)
    counts = summary.counts[components]
    columns = {
        "label": [f"gen {c}" if c else "immigration" for c in components.tolist()],
        "count": counts,
        "share": counts / summary.total,
    }
    path = out_dir / "attribution.csv"
    comment = (
        f"x={threshold} exceedances={summary.total} "
        f"dominant_share={summary.dominant_share!r}"
    )
    _csv_artifact(path, columns, config, comment)
    print(path)
    return _saturation_exit(events)


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------
#
# One check per acceptance criterion; each returns a plain dict, which
# `run_verify` stamps with the check's `CHECKS` key as its report row.
# Shared expensive inputs (the stationary oracle law, the long chain run) are
# computed once per VerifyContext.  `CHECKS` is the only definition of these
# criteria: tests/test_acceptance.py runs the same entries.


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
        stream = sampler.RngStream(seed=self.config.simulate.seed, stream_id=0)
        return sampler.run_chain(
            self.params,
            sampler.ChainConfig(
                n_samples=1_000_000,
                burn_in=1_000,
                max_population=self.config.simulate.max_population,
            ),
            stream,
        )


def _record(description, measured, expected, tolerance, passed):
    return {
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
    # Both endpoints must sit within 1e-9 of b.  Strict containment is not
    # required: theta is b over a series constant known only to within its
    # own calibration bracket, so b may sit some 1e-15 outside this one.
    worst = max(abs(lo - b), abs(hi - b))
    passed = lo <= hi and worst <= 1e-9
    return _record(
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


def _pair_tail_ratio(law: oracle.Pmf, x: float) -> float:
    """P(X_1 + X_2 > x) / P(X > x) for two independent draws of ``law``, each
    tail read at the upper end of its bracket.  A subexponential tail puts
    it near 2; a light tail far above."""
    pair = oracle.convolve(law, law)
    return pair.survival_bracket(x)[1] / law.survival_bracket(x)[1]


def _check_conv_tail(ctx: VerifyContext) -> dict:
    cutoff = ctx.config.oracle.cutoff
    heavy = oracle.dn_pmf(ctx.params, 1, cutoff)
    (x,) = _ORACLE_XS["conv_tail"]
    ratio = _pair_tail_ratio(heavy, float(x))
    # The control, Geometric(1/2) on {0..256}: masses 2^-(k+1) and overflow
    # 2^-257, each exact, so its ratio at x is exactly (x + 3) / 2.
    light = oracle.Pmf(mass=np.ldexp(1.0, -np.arange(1, 258)), overflow=2.0**-257)
    control = _pair_tail_ratio(light, 60.0)
    passed = 1.8 <= ratio <= 2.2 and control > 2.5
    return _record(
        "offspring-law convolution tail doubles the single tail at x=2^14 "
        "(point estimate in [1.8, 2.2]); geometric control exceeds 2.5 at x=60",
        {"heavy_point": ratio, "light_point": control},
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
        "generation-aggregate tails match n*b^(n-1)*P(B>x) within 30% at "
        "x in {2^12, 2^13, 2^14}, improving with x",
        measured,
        "ratios in [0.7, 1.3], |ratio-1| smaller at 2^14 than at 2^12",
        None,
        passed,
    )


def _check_random_sum(ctx: VerifyContext) -> dict:
    summand = oracle.dn_pmf(ctx.params, 1, ctx.config.oracle.cutoff)
    (x,) = _ORACLE_XS["random_sum"]
    exact = oracle.generation_term(summand).survival_bracket(x)[1]
    ratio = exact / asymptotics.per_generation_pred(ctx.params, 1, float(x))
    passed = 0.7 <= ratio <= 1.3
    return _record(
        "random-sum tail at x=2^13 matches truncated-mean prediction "
        "within 30%",
        ratio,
        1.0,
        0.3,
        passed,
    )


def _check_a_tail(ctx: VerifyContext) -> dict:
    measured = {}
    passed = True
    for b in (0.2, 0.5, 0.8):
        exact, asym = asymptotics.a_tail_sums(b, 1e6)
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
        "immigration tail sums match b/((1-b)x) within 2% at x=1e6; "
        "correction sum times x strictly decreasing over 1e3..1e6",
        measured,
        "relative errors <= 0.02 and strictly decreasing sequence",
        None,
        passed,
    )


# Criterion 7 reads every this-many-th state of the 10^6-step chain: its
# exceedance indicators have autocorrelation times near 3, and states this
# far apart are close to independent, as the KS critical value assumes.
_KS_THIN = 10


def _check_ks_consistency(ctx: VerifyContext) -> dict:
    chain = ctx.chain.samples[::_KS_THIN]
    stream = sampler.RngStream(seed=ctx.config.simulate.seed, stream_id=1)
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
        f"chain (every {_KS_THIN}th of 1e6 states, 1e5 samples) and "
        "depth-40 cluster (1e5 samples) laws are KS-indistinguishable at "
        "alpha=0.01",
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
        checks.append({"id": check_id, **CHECKS[check_id](ctx)})
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
    timings = [json.dumps(seconds, indent=2), "\n"]
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
2 config or validation error, such as a value outside its field's range
(oracle.cutoff must lie in [16, 2**18]); 3 sampler saturation (events
recorded).
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
_FLAG_TYPES = {tuple: _parse_x_grid}  # else the hint itself


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
    out_dir = Path(args.out)
    made = not out_dir.exists()
    try:
        config = _apply_overrides(load_config(args.config), args)
        config.validate()
        # Made before any command runs, so that an --out that cannot be a
        # directory is refused at once, not after a solve or a suite.
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out_dir}: {exc}") from exc
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
        if made:  # a refused run leaves no directory it made behind
            try:
                out_dir.rmdir()
            except OSError:  # absent, or it holds a file
                pass
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
