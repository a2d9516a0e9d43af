"""The package surface: no scipy submodule loads until it is used, and no
public name exists only for tests."""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import bigjump

SRC = Path(bigjump.__file__).resolve().parents[1]
ROOT = SRC.parent

# Each costs 0.3 s or more at import (scipy.integrate alone 0.55 s, through
# scipy.special, scipy.optimize and numpy.f2py).
HEAVY = ("scipy.integrate", "scipy.fft", "scipy.special", "scipy.stats", "scipy.signal")


def _loaded_after(code: str) -> list:
    """The `HEAVY` modules loaded once a fresh interpreter has run ``code``."""
    probe = (
        f"{code}\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_import_loads_no_heavy_scipy_submodule():
    assert _loaded_after("import bigjump, bigjump.cli") == []


def test_clopper_pearson_leaves_scipy_stats_unloaded():
    # The interval needs only scipy.special's beta quantile.
    code = "from bigjump.stats import clopper_pearson\nclopper_pearson(3, 10, 0.95)"
    assert _loaded_after(code) == ["scipy.special"]


def _used_names() -> set:
    """Every name that src/, scripts/ or bench/ reads as a variable or an
    attribute.  Definitions, assignment targets, imports, ``__all__``
    strings and docstrings are not reads."""
    used = set()
    for folder in ("src", "scripts", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_outside_tests():
    # A public name that only tests read is a second API to keep working;
    # the test goes through a private helper instead.
    modules = [bigjump] + [
        importlib.import_module(f"bigjump.{info.name}")
        for info in pkgutil.iter_modules(bigjump.__path__)
    ]
    exported = {
        (module.__name__, name)
        for module in modules
        for name in getattr(module, "__all__", ())
    }
    used = _used_names()
    assert sorted(f"{m}.{name}" for m, name in exported if name not in used) == []
