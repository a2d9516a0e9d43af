"""Span tracing of bigjump's layers from outside the package.

`Tracer.installed()` replaces each traced function with a wrapper wherever a
bigjump module binds it (``from .model import calibrate`` makes a second
binding in ``cli``), plus the entries of ``cli.CHECKS``, and restores every
original on exit.  The package calls these functions through module globals,
so spans nest: each records its name, start, end and parent.  Spans stay in
memory until `dump` writes them to a side file.  A target that no longer
exists raises `TraceTargetMissing`, and the worker exits with
`MISSING_TARGET_EXIT`, which fails the benchmark run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  ``oracle._conv_full`` is the convolution
# kernel (direct or FFT) behind `convolve` and `compound`; no public function
# isolates it.  ``model.LawB`` is the survival-table build behind the cached
# ``law_B``: wrapping the class instead of ``law_B`` keeps spans off the
# per-chain-step cache hits.
TARGETS = (
    ("bigjump.model", "calibrate", "model.calibrate"),
    ("bigjump.model", "LawB", "model.law_B"),
    ("bigjump.model", "extinction_table", "model.extinction_table"),
    ("bigjump.oracle", "stationary_pmf", "oracle.stationary_pmf"),
    ("bigjump.oracle", "generation_term", "oracle.generation_term"),
    ("bigjump.oracle", "dn_pmf", "oracle.dn_pmf"),
    ("bigjump.oracle", "compound", "oracle.compound"),
    ("bigjump.oracle", "convolve", "oracle.convolve"),
    ("bigjump.oracle", "_conv_full", "oracle.conv_kernel"),
    ("bigjump.sampler", "run_chain", "sampler.run_chain"),
    ("bigjump.sampler", "sample_clusters", "sampler.sample_clusters"),
    ("bigjump.stats", "ks_two_sample", "stats.ks_two_sample"),
    ("bigjump.stats", "empirical_survival", "stats.empirical_survival"),
    ("bigjump.stats", "attribution_summary", "stats.attribution_summary"),
    ("bigjump.asymptotics", "prediction_table", "asymptotics.prediction_table"),
    ("bigjump.cli", "_cmd_model", "cli.model"),
    ("bigjump.cli", "_cmd_predict", "cli.predict"),
    ("bigjump.cli", "_cmd_oracle", "cli.oracle"),
    ("bigjump.cli", "_cmd_simulate", "cli.simulate"),
    ("bigjump.cli", "_cmd_attribute", "cli.attribute"),
    ("bigjump.cli", "_cmd_verify", "cli.verify"),
)

NAME, START, END, PARENT = range(4)
# Exit code of a worker whose tracer could not install; the run then fails.
MISSING_TARGET_EXIT = 70


class TraceTargetMissing(RuntimeError):
    """A traced function or module no longer exists under its name."""


class Tracer:
    """In-memory span recorder; a span is ``[name, start, end, parent]``."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][END] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block.

        A target that cannot be found raises `TraceTargetMissing`: a renamed
        layer must break the traced run, not report zero time for itself.
        """
        undo = []
        try:
            for module_name, attr, name in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError as exc:
                    raise TraceTargetMissing(f"{module_name}: {exc}") from exc
                original = getattr(module, attr, None)
                if original is None:
                    raise TraceTargetMissing(f"{module_name}.{attr}")
                wrapper = self.wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "bigjump" and not mod_name.startswith("bigjump."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            checks = getattr(sys.modules["bigjump.cli"], "CHECKS", None)
            if not isinstance(checks, dict):
                raise TraceTargetMissing("bigjump.cli.CHECKS")
            for check_id, fn in list(checks.items()):
                checks[check_id] = self.wrap(f"cli.check.{check_id}", fn)
                undo.append((checks, check_id, fn))
            yield self
        finally:
            for target, key, original in reversed(undo):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(span_lists, root_names=("solve",)) -> dict:
    """Aggregate spans by name over one or more processes' span lists.

    Returns self seconds and call counts per name, the inclusive seconds of
    every span (``total``), inclusive seconds of check spans not called by
    another check (``check_total``), and for the root spans named in
    ``root_names`` their total duration and the part no layer span covers.
    """
    out = {
        "self": defaultdict(float),
        "calls": defaultdict(int),
        "total": defaultdict(float),
        "check_total": defaultdict(float),
        "root_s": 0.0,
        "root_self_s": 0.0,
    }
    for spans in span_lists:
        own = self_times(spans)
        for i, s in enumerate(spans):
            name, duration = s[NAME], s[END] - s[START]
            out["self"][name] += own[i]
            out["calls"][name] += 1
            out["total"][name] += duration
            if name in root_names:
                out["root_s"] += duration
                out["root_self_s"] += own[i]
            if name.startswith("cli.check.") and s[PARENT] >= 0:
                if not spans[s[PARENT]][NAME].startswith("cli.check."):
                    out["check_total"][name] += duration
    return out
