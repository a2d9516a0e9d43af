"""Import cost of the package: heavy scipy submodules load only on use."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import bigjump

SRC = Path(bigjump.__file__).resolve().parents[1]


def test_import_leaves_scipy_signal_and_stats_unloaded():
    # scipy.signal (which pulls in scipy.stats) and scipy.stats add about
    # 0.7 s and 23 MB to the package's import; nothing needs them until a
    # confidence interval is built.
    code = (
        "import sys, bigjump\n"
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') "
        "if m in sys.modules))"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
