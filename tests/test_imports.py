"""Import cost of the package: no scipy submodule loads until it is used."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import bigjump

SRC = Path(bigjump.__file__).resolve().parents[1]

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
