"""The example scripts run end to end at tiny sizes.

Each script runs as a subprocess against this checkout's package, so an API
change that breaks a script fails here rather than silently.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import bigjump

SRC = Path(bigjump.__file__).resolve().parents[1]
SCRIPTS = SRC.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, expected",
    [
        (
            "sampler_agreement.py",
            ["--samples", "2000", "--burnin", "100", "--cutoff", "256"],
            "KS two-sample",
        ),
        (
            "exceedance_anatomy.py",
            ["--samples", "5000", "--x", "20", "--depth", "20"],
            "dominant-component share",
        ),
        (
            "tail_bracket_demo.py",
            ["--cutoff", "256", "--xs", "16,64"],
            "two-term",
        ),
    ],
)
def test_script_runs(script, args, expected, src_env):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        env=src_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert expected in proc.stdout
